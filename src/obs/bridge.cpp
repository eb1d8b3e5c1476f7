#include "obs/bridge.hpp"

#include "core/stack_graph.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "sim/memory_system.hpp"
#include "stack/host.hpp"
#include "stack/netdev.hpp"

namespace ldlp::obs {
namespace {

std::string join(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + 1 + name.size());
  out.append(prefix);
  out += '.';
  out.append(name);
  return out;
}

void set_counter(Registry& registry, std::string name, std::uint64_t value) {
  registry.counter(name).set(value);
}

}  // namespace

void publish_graph(Registry& registry, const core::StackGraph& graph,
                   std::string_view prefix) {
  const core::GraphStats& gs = graph.graph_stats();
  set_counter(registry, join(prefix, "injected"), gs.injected);
  set_counter(registry, join(prefix, "shed_entry"), gs.shed_entry);
  set_counter(registry, join(prefix, "shed_depth"), gs.shed_depth);
  set_counter(registry, join(prefix, "delivered_top"), gs.delivered_top);
  set_counter(registry, join(prefix, "runs"), gs.runs);
  registry.gauge(join(prefix, "backlog"))
      .set(static_cast<double>(graph.backlog()));

  const RunningStats& drain = graph.drain_stats();
  registry.counter(join(prefix, "drain.count")).set(drain.count());
  registry.gauge(join(prefix, "drain.mean_sec")).set(drain.mean());
  registry.gauge(join(prefix, "drain.max_sec")).set(drain.max());

  for (core::LayerId id = 0; id < graph.layer_count(); ++id) {
    const core::Layer& layer = graph.layer(id);
    const core::LayerStats& ls = layer.stats();
    const std::string base = join(prefix, join("layer", layer.name()));
    set_counter(registry, join(base, "enqueued"), ls.enqueued);
    set_counter(registry, join(base, "processed"), ls.processed);
    set_counter(registry, join(base, "drops"), ls.drops);
    set_counter(registry, join(base, "activations"), ls.activations);
    registry.gauge(join(base, "queue_depth"))
        .set(static_cast<double>(layer.queue_len()));
    registry.gauge(join(base, "max_queue"))
        .set(static_cast<double>(ls.max_queue));
    registry.gauge(join(base, "mean_batch")).set(ls.mean_batch());
  }
}

void publish_memory(Registry& registry, const sim::MemorySystem& memory,
                    std::string_view prefix) {
  const sim::CacheStats& ic = memory.icache().stats();
  const sim::CacheStats& dc = memory.dcache().stats();
  set_counter(registry, join(prefix, "icache.hits"), ic.hits);
  set_counter(registry, join(prefix, "icache.misses"), ic.misses);
  set_counter(registry, join(prefix, "dcache.hits"), dc.hits);
  set_counter(registry, join(prefix, "dcache.misses"), dc.misses);
  set_counter(registry, join(prefix, "stall_cycles"),
              memory.total_stall_cycles());
  if (memory.l2() != nullptr) {
    set_counter(registry, join(prefix, "l2.hits"), memory.l2()->stats().hits);
    set_counter(registry, join(prefix, "l2.misses"),
                memory.l2()->stats().misses);
  }
  if (memory.tlb() != nullptr)
    set_counter(registry, join(prefix, "tlb.misses"), memory.tlb_misses());

  const auto& scopes = memory.scope_misses();
  for (std::size_t id = 0; id < scopes.size(); ++id) {
    const std::string base = join(prefix, "layer" + std::to_string(id));
    set_counter(registry, join(base, "i_misses"), scopes[id].i_misses);
    set_counter(registry, join(base, "d_misses"), scopes[id].d_misses);
  }
}

void publish_fault(Registry& registry, const fault::FaultInjector& injector,
                   std::string_view prefix) {
  const fault::FaultStats& fs = injector.stats();
  set_counter(registry, join(prefix, "frames_seen"), fs.frames_seen);
  set_counter(registry, join(prefix, "frames_dropped"), fs.dropped);
  set_counter(registry, join(prefix, "frames_corrupted"), fs.corrupted);
  set_counter(registry, join(prefix, "frames_duplicated"), fs.duplicated);
  set_counter(registry, join(prefix, "frames_reordered"), fs.reordered);
  set_counter(registry, join(prefix, "frames_delayed"), fs.delayed);
  set_counter(registry, join(prefix, "frames_burst_dropped"),
              fs.burst_dropped);
  set_counter(registry, join(prefix, "burst_entries"), fs.burst_entries);
  set_counter(registry, join(prefix, "pool_squeezes"), fs.pool_squeezes);
  set_counter(registry, join(prefix, "frames_partition_dropped"),
              fs.partition_dropped);
  set_counter(registry, join(prefix, "frames_flap_dropped"), fs.flap_dropped);
  set_counter(registry, join(prefix, "frames_restart_dropped"),
              fs.restart_dropped);
  set_counter(registry, join(prefix, "host_restarts"), fs.host_restarts);
  registry.gauge(join(prefix, "mbufs_held_peak"))
      .set(static_cast<double>(fs.mbufs_held_peak));
  registry.gauge(join(prefix, "delayed_pending"))
      .set(static_cast<double>(injector.delayed_pending()));
}

void publish_device(Registry& registry, const stack::NetDevice& device,
                    std::string_view prefix) {
  const stack::NetDeviceStats& ds = device.stats();
  set_counter(registry, join(prefix, "tx_frames"), ds.tx_frames);
  set_counter(registry, join(prefix, "tx_bytes"), ds.tx_bytes);
  set_counter(registry, join(prefix, "rx_frames"), ds.rx_frames);
  set_counter(registry, join(prefix, "rx_bytes"), ds.rx_bytes);
  set_counter(registry, join(prefix, "rx_drops"), ds.rx_drops);
  set_counter(registry, join(prefix, "tx_drops"), ds.tx_drops);
  registry.gauge(join(prefix, "rx_pending"))
      .set(static_cast<double>(device.rx_pending()));
}

void publish_host(Registry& registry, stack::Host& host,
                  std::string_view prefix) {
  const std::string p(prefix.empty() ? std::string_view(host.name()) : prefix);

  publish_device(registry, host.device(), join(p, "dev"));
  publish_graph(registry, host.graph(), join(p, "graph"));

  const stack::EthLayerStats& es = host.eth().eth_stats();
  set_counter(registry, join(p, "eth.rx_ip"), es.rx_ip);
  set_counter(registry, join(p, "eth.rx_arp"), es.rx_arp);
  set_counter(registry, join(p, "eth.rx_dropped"), es.rx_dropped);
  set_counter(registry, join(p, "eth.tx_frames"), es.tx_frames);
  set_counter(registry, join(p, "eth.tx_arp_held"), es.tx_arp_held);

  const stack::ArpCacheStats& as = host.eth().arp().stats();
  set_counter(registry, join(p, "arp.parked"), as.parked);
  set_counter(registry, join(p, "arp.park_drops"), as.park_drops);
  set_counter(registry, join(p, "arp.requests_allowed"), as.requests_allowed);
  set_counter(registry, join(p, "arp.requests_suppressed"),
              as.requests_suppressed);
  set_counter(registry, join(p, "arp.retries"), as.retries);
  set_counter(registry, join(p, "arp.resolve_failures"),
              as.resolve_failures);

  const stack::IpStats& is = host.ip().ip_stats();
  set_counter(registry, join(p, "ip.rx"), is.rx);
  set_counter(registry, join(p, "ip.rx_bad"), is.rx_bad);
  set_counter(registry, join(p, "ip.rx_not_mine"), is.rx_not_mine);
  set_counter(registry, join(p, "ip.rx_fragments"), is.rx_fragments);
  set_counter(registry, join(p, "ip.rx_reassembled"), is.rx_reassembled);
  set_counter(registry, join(p, "ip.rx_icmp_echo"), is.rx_icmp_echo);
  set_counter(registry, join(p, "ip.rx_igmp"), is.rx_igmp);
  set_counter(registry, join(p, "ip.rx_multicast"), is.rx_multicast);
  set_counter(registry, join(p, "ip.tx"), is.tx);
  set_counter(registry, join(p, "ip.tx_fragmented"), is.tx_fragmented);
  set_counter(registry, join(p, "ip.tx_no_route"), is.tx_no_route);

  const stack::TcpLayerStats& ts = host.tcp().tcp_stats();
  set_counter(registry, join(p, "tcp.segs_in"), ts.segs_in);
  set_counter(registry, join(p, "tcp.bad_checksum"), ts.bad_checksum);
  set_counter(registry, join(p, "tcp.bad_header"), ts.bad_header);
  set_counter(registry, join(p, "tcp.no_pcb"), ts.no_pcb);
  set_counter(registry, join(p, "tcp.pcb_cache_hits"), ts.pcb_cache_hits);
  set_counter(registry, join(p, "tcp.pcb_cache_misses"), ts.pcb_cache_misses);
  set_counter(registry, join(p, "tcp.pcb_table_probes"), ts.pcb_table_probes);
  set_counter(registry, join(p, "tcp.rsts_sent"), ts.rsts_sent);
  set_counter(registry, join(p, "tcp.rsts_ignored"), ts.rsts_ignored);
  set_counter(registry, join(p, "tcp.time_wait_reuses"), ts.time_wait_reuses);
  set_counter(registry, join(p, "tcp.keepalive_drops"), ts.keepalive_drops);
  set_counter(registry, join(p, "tcp.conns_established"),
              ts.conns_established);
  set_counter(registry, join(p, "tcp.conns_reset"), ts.conns_reset);

  const stack::UdpStats& us = host.udp().udp_stats();
  set_counter(registry, join(p, "udp.rx"), us.rx);
  set_counter(registry, join(p, "udp.rx_bad"), us.rx_bad);
  set_counter(registry, join(p, "udp.rx_no_port"), us.rx_no_port);
  set_counter(registry, join(p, "udp.tx"), us.tx);

  const time::WheelStats& ws = host.wheel().stats();
  set_counter(registry, join(p, "time.arms"), ws.arms);
  set_counter(registry, join(p, "time.fires"), ws.fires);
  set_counter(registry, join(p, "time.cancels"), ws.cancels);
  set_counter(registry, join(p, "time.spurious_fires"), ws.spurious_fires);
  set_counter(registry, join(p, "time.shed"), ws.shed);
  set_counter(registry, join(p, "time.cascades"), ws.cascades);
  registry.gauge(join(p, "time.armed"))
      .set(static_cast<double>(host.wheel().armed_count()));
  registry.gauge(join(p, "time.max_armed"))
      .set(static_cast<double>(ws.max_armed));
}

void publish_fabric(Registry& registry, const net::Fabric& fabric,
                    std::string_view prefix) {
  const net::FabricTotals totals = fabric.totals();
  set_counter(registry, join(prefix, "injected"), totals.injected);
  set_counter(registry, join(prefix, "delivered"), totals.delivered);
  set_counter(registry, join(prefix, "queue_drops"), totals.queue_drops);
  set_counter(registry, join(prefix, "fault_drops"), totals.fault_drops);
  set_counter(registry, join(prefix, "suppressed_ticks"),
              fabric.suppressed_ticks());
  registry.gauge(join(prefix, "in_flight"))
      .set(static_cast<double>(totals.in_flight));
  registry.gauge(join(prefix, "conservation_residual"))
      .set(static_cast<double>(fabric.conservation_residual()));
  // Fleet-summed timer-wheel work: how much firing the fabric's hosts did
  // and how much the idle skip avoided (pairs with suppressed_ticks).
  time::WheelStats wheel_totals;
  std::size_t armed = 0;
  for (std::size_t i = 0; i < fabric.host_count(); ++i) {
    const time::WheelStats& s =
        fabric.host(static_cast<net::HostId>(i)).wheel().stats();
    wheel_totals.arms += s.arms;
    wheel_totals.fires += s.fires;
    wheel_totals.cancels += s.cancels;
    wheel_totals.spurious_fires += s.spurious_fires;
    wheel_totals.shed += s.shed;
    wheel_totals.cascades += s.cascades;
    armed += fabric.host(static_cast<net::HostId>(i)).wheel().armed_count();
  }
  set_counter(registry, join(prefix, "time.arms"), wheel_totals.arms);
  set_counter(registry, join(prefix, "time.fires"), wheel_totals.fires);
  set_counter(registry, join(prefix, "time.cancels"), wheel_totals.cancels);
  set_counter(registry, join(prefix, "time.spurious_fires"),
              wheel_totals.spurious_fires);
  set_counter(registry, join(prefix, "time.shed"), wheel_totals.shed);
  set_counter(registry, join(prefix, "time.cascades"),
              wheel_totals.cascades);
  registry.gauge(join(prefix, "time.armed"))
      .set(static_cast<double>(armed));
  for (net::LinkId id = 0; id < fabric.link_count(); ++id) {
    const std::string base = join(prefix, "link" + std::to_string(id));
    for (int dir = 0; dir < 2; ++dir) {
      const net::LinkDirStats& s = fabric.link_stats(id, dir);
      const std::string d = join(base, dir == 0 ? "ab" : "ba");
      set_counter(registry, join(d, "frames_in"), s.frames_in);
      set_counter(registry, join(d, "frames_out"), s.frames_out);
      set_counter(registry, join(d, "queue_drops"), s.queue_drops);
      set_counter(registry, join(d, "fault_drops"), s.fault_drops);
      registry.gauge(join(d, "queue_depth"))
          .set(static_cast<double>(s.in_flight));
      registry.gauge(join(d, "queue_depth_peak"))
          .set(static_cast<double>(s.max_in_flight));
    }
  }
  for (net::SwitchId id = 0; id < fabric.switch_count(); ++id) {
    const net::SwitchStats& s = fabric.switch_stats(id);
    const std::string base = join(prefix, fabric.switch_name(id));
    set_counter(registry, join(base, "forwarded"), s.forwarded);
    set_counter(registry, join(base, "flooded"), s.flooded);
  }
}

}  // namespace ldlp::obs

// The TCP, DNS, fleet and tail scenarios: workloads over a Harness.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "dns/resolver.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "recover/partition_heal.hpp"
#include "rpc/fanout.hpp"
#include "scenario/registry.hpp"
#include "wire/ipv4.hpp"

namespace ldlp::scenario {

namespace {

using wire::ip_from_parts;

/// One stream a -> b of `payload_bytes`, read in `read_chunk` pieces.
Result run_stream(const check::Schedule& schedule, std::uint64_t timeout_ms,
                  std::size_t payload_bytes, std::size_t read_chunk) {
  Result r;
  const std::uint64_t seed = schedule.seed;
  // A restart wipes an endpoint's connections: the stream may end short
  // (still prefix-exact), the handshake may never complete, and the
  // server's listener must be re-established like init restarting a
  // daemon after boot.
  const bool restarts = schedule.has_kind(fault::FaultKind::kHostRestart);
  Harness h(schedule, Topology{}, timeout_ms);
  h.supervise();
  stack::Host& a = h.host(0);
  stack::Host& b = h.host(1);

  check::DeliveryOracle oracle;
  oracle.set_allow_truncation(restarts);
  const auto flow = oracle.open_stream("a->b");
  b.sockets().set_tap(&oracle);

  stack::PcbId accepted = stack::kNoPcb;
  // Cached at accept time: the socket slot stays addressable across a
  // crash, while socket_of(accepted) on a wiped pcb would not.
  stack::SocketId accepted_socket = stack::kNoSocket;
  b.tcp().set_accept_hook([&](stack::PcbId id) {
    if (accepted == stack::kNoPcb) {
      accepted = id;
      accepted_socket = b.tcp().socket_of(id);
      oracle.bind_stream_rx(flow, accepted_socket);
    }
  });
  stack::PcbId listener = b.tcp().listen(80);
  const stack::PcbId conn = a.tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  a.tcp().set_send_tap(
      [&](stack::PcbId id, std::span<const std::uint8_t> bytes) {
        if (id == conn) oracle.stream_sent(flow, bytes);
      });
  const auto ensure_listener = [&] {
    if (!restarts) return;
    if (b.tcp().state(listener) != stack::TcpState::kListen)
      listener = b.tcp().listen(80);
  };
  for (int i = 0; i < 1600 && !h.expired() &&
                  a.tcp().state(conn) != stack::TcpState::kEstablished;
       ++i) {
    ensure_listener();
    h.fabric().run_for(0.05);
  }
  const bool established =
      a.tcp().state(conn) == stack::TcpState::kEstablished;
  if (!established && !restarts) {
    r.fail(h.expired() ? kBudgetExceeded : "TCP never established");
    return r;
  }
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + seed);
  // The send buffer may be smaller than the payload; feed it as the
  // connection drains.
  std::size_t queued = 0;
  std::vector<std::uint8_t> got;
  bool conn_died = false;
  for (int i = 0; established && i < 2400 && !h.expired() &&
                  got.size() < payload.size();
       ++i) {
    ensure_listener();
    if (a.tcp().state(conn) == stack::TcpState::kClosed) conn_died = true;
    if (!conn_died && queued < payload.size()) {
      const std::span<const std::uint8_t> rest(payload.data() + queued,
                                               payload.size() - queued);
      if (a.tcp().send(conn, rest)) queued = payload.size();
    }
    h.fabric().run_for(0.05);
    if (accepted_socket == stack::kNoSocket) continue;
    std::vector<std::uint8_t> chunk(read_chunk);
    const std::size_t n = b.sockets().read(accepted_socket, chunk);
    got.insert(got.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(n));
    // Once the connection is dead and the wire is quiet nothing more can
    // arrive; convergence is judged in the drain below.
    if (conn_died && h.faults_cleared()) break;
  }
  if (restarts) {
    // Truncation is legitimate; exactness of what did arrive is not
    // negotiable.
    if (got.size() > payload.size() ||
        !std::equal(got.begin(), got.end(), payload.begin()))
      r.fail("delivered bytes diverge from the sent stream");
  } else if (queued != payload.size()) {
    r.fail("send refused");
  }
  if (!restarts && got != payload) {
    r.fail("stream not delivered intact");
    std::size_t diff = 0;
    while (diff < got.size() && diff < payload.size() &&
           got[diff] == payload[diff])
      ++diff;
    r.detail = "got " + std::to_string(got.size()) + "/" +
               std::to_string(payload.size()) + " bytes, first mismatch at " +
               std::to_string(diff) + "; a: state=" +
               std::to_string(static_cast<int>(a.tcp().state(conn))) +
               " rtx=" + std::to_string(a.tcp().pcb_stats(conn).retransmits) +
               " bad_cksum=" +
               std::to_string(a.tcp().tcp_stats().bad_checksum) +
               "; b: bad_cksum=" +
               std::to_string(b.tcp().tcp_stats().bad_checksum) +
               " dev_rx_drops=" + std::to_string(b.device().stats().rx_drops) +
               " shed=" + std::to_string(b.graph().graph_stats().shed_entry) +
               "/" + std::to_string(b.graph().graph_stats().shed_depth);
    for (core::LayerId li = 0; li < b.graph().layer_count(); ++li) {
      const core::Layer& l = b.graph().layer(li);
      r.detail += " " + l.name() + ":d" + std::to_string(l.stats().drops);
    }
  }
  a.tcp().close(conn);
  if (accepted != stack::kNoPcb) b.tcp().close(accepted);
  // The application is done: from here on the stack owes convergence —
  // every pcb must reach a terminal or quiescent state within the
  // oracle's pass budget once the faults have cleared.
  h.convergence().arm();
  for (int i = 0; i < 8 && !h.expired(); ++i) h.fabric().run_for(1.0);
  for (int i = 0; i < 2200 && !h.convergence().settled() && !h.expired(); ++i)
    h.fabric().run_for(0.05);
  h.settle(r);
  (void)oracle.finalize();
  fold(r, oracle, "delivery oracle", "oracle");
  h.fold_audits(r);
  h.fold_liveness(r);
  b.sockets().set_tap(nullptr);
  return r;
}

}  // namespace

Result run_tcp(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  return run_stream(schedule, timeout_ms, /*payload_bytes=*/8000,
                    /*read_chunk=*/2000);
}

Result run_tcp_slow(const check::Schedule& schedule,
                    std::uint64_t timeout_ms) {
  return run_stream(schedule, timeout_ms, /*payload_bytes=*/24000,
                    /*read_chunk=*/900);
}

/// Eight parallel lookups a -> b, re-kicked until each converges.
Result run_dns(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  Result r;
  Harness h(schedule, Topology{}, timeout_ms);
  h.supervise();
  stack::Host& a = h.host(0);
  stack::Host& b = h.host(1);

  dns::DnsServer server(b);
  constexpr int kNames = 8;
  for (int i = 0; i < kNames; ++i)
    server.add_a("h" + std::to_string(i) + ".soak",
                 ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)));
  dns::DnsResolver::Config cfg;
  cfg.server_ip = ip_from_parts(10, 0, 0, 2);
  dns::DnsResolver resolver(a, cfg);

  // Datagram oracles, one per direction: queries a->b, responses b->a.
  // The wire may legally duplicate under duplicate (or reorder: a frame
  // can be cloned then displaced) episodes, so re-delivery is tolerated
  // exactly when the schedule says so; byte-exactness never is.
  check::DeliveryOracle to_server;    // taps b's socket layer
  check::DeliveryOracle to_resolver;  // taps a's socket layer
  const bool wire_duplicates = schedule.has_kind(fault::FaultKind::kDuplicate);
  to_server.set_allow_duplicates(wire_duplicates);
  to_resolver.set_allow_duplicates(wire_duplicates);
  const auto queries = to_server.open_datagram("dns.query");
  const auto responses = to_resolver.open_datagram("dns.response");
  to_server.bind_datagram_rx(queries, server.socket());
  to_resolver.bind_datagram_rx(responses, resolver.socket());
  b.sockets().set_tap(&to_server);
  a.sockets().set_tap(&to_resolver);
  a.udp().set_send_tap([&](std::uint16_t, std::uint32_t,
                           std::uint16_t dst_port,
                           std::span<const std::uint8_t> payload) {
    if (dst_port == dns::kDnsPort) to_server.datagram_sent(queries, payload);
  });
  b.udp().set_send_tap([&](std::uint16_t src_port, std::uint32_t,
                           std::uint16_t,
                           std::span<const std::uint8_t> payload) {
    if (src_port == dns::kDnsPort)
      to_resolver.datagram_sent(responses, payload);
  });

  std::vector<std::optional<std::uint32_t>> results(kNames);
  std::vector<bool> outstanding(kNames, false);
  const auto kick = [&](int i) {
    outstanding[i] = true;
    resolver.resolve(
        "h" + std::to_string(i) + ".soak",
        [&results, &outstanding, i](const std::string&,
                                    std::optional<std::uint32_t> addr) {
          outstanding[i] = false;
          if (addr.has_value()) results[i] = addr;
        });
  };
  for (int i = 0; i < kNames; ++i) kick(i);
  for (int iter = 0; iter < 500 && !h.expired(); ++iter) {
    h.fabric().run_for(0.25);
    server.poll();
    b.pump();
    a.pump();
    resolver.poll();
    bool done = true;
    for (int i = 0; i < kNames; ++i) {
      if (results[i].has_value()) continue;
      done = false;
      if (!outstanding[i]) kick(i);
    }
    if (done) break;
  }
  if (h.expired()) r.fail(kBudgetExceeded);
  for (int i = 0; i < kNames; ++i) {
    if (!results[i].has_value())
      r.fail("lookup " + std::to_string(i) + " never converged");
    else if (*results[i] !=
             ip_from_parts(10, 7, 0, static_cast<std::uint8_t>(i)))
      r.fail("lookup " + std::to_string(i) + " converged to wrong address");
  }
  if (!r.pass) {
    const dns::ResolverStats& rs = resolver.stats();
    r.detail = "resolver: lookups=" + std::to_string(rs.lookups) +
               " sent=" + std::to_string(rs.queries_sent) +
               " retries=" + std::to_string(rs.retries) +
               " answers=" + std::to_string(rs.answers) +
               " failures=" + std::to_string(rs.failures) +
               "; server: queries=" + std::to_string(server.stats().queries) +
               " answered=" + std::to_string(server.stats().answered) +
               " malformed=" + std::to_string(server.stats().malformed);
  }
  // No TCP state here, so convergence reduces to "faults cleared and the
  // graphs drain"; the watchdog still guards against silently held work.
  h.convergence().arm();
  for (int i = 0; i < 40 && !h.convergence().settled() && !h.expired(); ++i) {
    h.fabric().run_for(0.1);
    server.poll();
    resolver.poll();
  }
  h.settle(r);
  (void)to_server.finalize();
  (void)to_resolver.finalize();
  fold(r, to_server, "delivery oracle", "oracle");
  h.fold_audits(r);
  h.fold_liveness(r);
  fold(r, to_resolver, "delivery oracle", "oracle");
  a.sockets().set_tap(nullptr);
  b.sockets().set_tap(nullptr);
  return r;
}

/// The fleet scenario: 16 cross-rack stream pairs striped over the 64-host
/// fat-tree plus a fan-out from one seed-chosen host to one host in every
/// rack, judged by the PartitionHealOracle (exactly-once across every
/// healed cut) on top of the harness checks.
Result run_fleet(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  Result r;
  const std::uint64_t seed = schedule.seed;
  const bool restarts = schedule.has_kind(fault::FaultKind::kHostRestart);
  Harness h(schedule, kFleet, timeout_ms);
  h.supervise();

  recover::PartitionHealOracle heal;
  heal.set_allow_truncation(restarts);

  // Each pair listens on its own port; dst hosts carry several pairs.
  struct PairRun {
    std::size_t src = 0, dst = 0;
    recover::PartitionHealOracle::PairId pid = 0;
    std::uint16_t port = 0;
    stack::PcbId listener = stack::kNoPcb;
    stack::PcbId conn = stack::kNoPcb;
    stack::PcbId accepted = stack::kNoPcb;
    stack::SocketId rx_socket = stack::kNoSocket;
    std::vector<std::uint8_t> payload;
    std::size_t sent_off = 0;
    std::size_t got = 0;
    bool dead = false;
  };
  std::vector<PairRun> pairs;
  const auto add_pair = [&](std::size_t src, std::size_t dst) {
    if (src == dst) return;
    PairRun p;
    p.src = src;
    p.dst = dst;
    p.port = static_cast<std::uint16_t>(2000 + pairs.size());
    p.pid = heal.open_pair(h.host(src).name(), h.host(dst).name());
    p.payload.resize(3000);
    for (std::size_t i = 0; i < p.payload.size(); ++i)
      p.payload[i] =
          static_cast<std::uint8_t>(i * 31 + seed + pairs.size() * 7);
    pairs.push_back(std::move(p));
  };
  const std::size_t per_rack = kFleet.hosts_per_rack;
  for (std::size_t k = 0; k < 16; ++k) {
    const std::size_t src = (k * 5) % kFleetHosts;
    const std::size_t dst =
        (src + per_rack * (1 + k % (kFleet.racks - 1)) + k) % kFleetHosts;
    add_pair(src, dst);
  }
  const std::size_t fan_src = seed % kFleetHosts;
  for (std::size_t rack = 0; rack < kFleet.racks; ++rack)
    add_pair(fan_src, rack * per_rack + (seed + 3) % per_rack);

  // Receive-side taps (one per receiving host) and accept hooks that
  // route an accepted connection to its pair by listening port.
  std::vector<bool> is_dst(kFleetHosts, false);
  for (const PairRun& p : pairs) is_dst[p.dst] = true;
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (is_dst[i])
      h.host(i).sockets().set_tap(&heal.rx_tap(h.host(i).name()));
  }
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (!is_dst[i]) continue;
    h.host(i).tcp().set_accept_hook([&, i](stack::PcbId id) {
      const std::uint16_t port = h.host(i).tcp().pcb_view(id).local_port;
      for (PairRun& p : pairs) {
        if (p.dst != i || p.port != port) continue;
        if (p.accepted == stack::kNoPcb) {
          p.accepted = id;
          p.rx_socket = h.host(i).tcp().socket_of(id);
          heal.bind_rx(p.pid, p.rx_socket);
        }
        return;
      }
    });
  }
  for (PairRun& p : pairs) p.listener = h.host(p.dst).tcp().listen(p.port);
  for (PairRun& p : pairs)
    p.conn = h.host(p.src).tcp().connect(
        net::host_ip(static_cast<std::uint32_t>(p.dst)), p.port);
  // Send taps, one per source host, dispatching on the sending pcb.
  std::vector<bool> is_src(kFleetHosts, false);
  for (const PairRun& p : pairs) is_src[p.src] = true;
  for (std::size_t i = 0; i < kFleetHosts; ++i) {
    if (!is_src[i]) continue;
    h.host(i).tcp().set_send_tap(
        [&, i](stack::PcbId id, std::span<const std::uint8_t> bytes) {
          for (const PairRun& p : pairs)
            if (p.src == i && p.conn == id) {
              heal.sent(p.pid, bytes);
              return;
            }
        });
  }

  const auto ensure_listener = [&](PairRun& p) {
    // A restarted server lost its listener; re-listen like a respawned
    // daemon so late SYN retransmits still find a socket.
    if (h.host(p.dst).tcp().state(p.listener) != stack::TcpState::kListen)
      p.listener = h.host(p.dst).tcp().listen(p.port);
  };
  std::vector<std::uint8_t> chunk(1024);
  for (int iter = 0; iter < 400 && !h.expired(); ++iter) {
    bool all_done = true;
    for (PairRun& p : pairs) {
      if (restarts) ensure_listener(p);
      stack::TcpLayer& stcp = h.host(p.src).tcp();
      if (!p.dead && stcp.state(p.conn) == stack::TcpState::kClosed)
        p.dead = true;
      // Drip-feed: one 250-byte chunk every third iteration (~0.15 s sim)
      // so the streams span the whole fault horizon instead of finishing
      // before the first episode bites. A refused chunk (full send
      // buffer) just retries next round.
      if (!p.dead && p.sent_off < p.payload.size() && iter % 3 == 0 &&
          stcp.state(p.conn) == stack::TcpState::kEstablished) {
        const std::size_t n =
            std::min<std::size_t>(250, p.payload.size() - p.sent_off);
        if (stcp.send(p.conn, std::span(p.payload).subspan(p.sent_off, n)))
          p.sent_off += n;
      }
      if (p.rx_socket != stack::kNoSocket)
        p.got += h.host(p.dst).sockets().read(p.rx_socket, chunk);
      if (!(p.got >= p.payload.size() || p.dead)) all_done = false;
    }
    if (all_done && h.faults_cleared()) break;
    h.fabric().run_for(0.05);
  }
  for (PairRun& p : pairs) {
    if (!restarts && p.got < p.payload.size() && !p.dead)
      r.fail("pair " + h.host(p.src).name() + "->" + h.host(p.dst).name() +
             " incomplete (" + std::to_string(p.got) + "/" +
             std::to_string(p.payload.size()) + " bytes)");
    h.host(p.src).tcp().close(p.conn);
    if (p.accepted != stack::kNoPcb) h.host(p.dst).tcp().close(p.accepted);
  }
  h.convergence().arm();
  for (int i = 0; i < 8 && !h.expired(); ++i) h.fabric().run_for(1.0);
  for (int i = 0; i < 240 && !h.convergence().settled() && !h.expired(); ++i)
    h.fabric().run_for(0.25);
  h.settle(r);
  (void)heal.finalize();
  fold(r, heal, "partition-heal oracle", "heal");
  h.fold_audits(r);
  h.fold_liveness(r);
  if (r.pass && heal.stats().stream_bytes_delivered == 0)
    r.fail("no bytes crossed the fabric (traffic never started)");
  const net::FabricTotals t = h.fabric().totals();
  r.detail = "injected=" + std::to_string(t.injected) +
             " delivered=" + std::to_string(t.delivered) +
             " qdrop=" + std::to_string(t.queue_drops) +
             " fdrop=" + std::to_string(t.fault_drops) +
             " heal_sent=" + std::to_string(heal.stats().stream_bytes_sent) +
             " heal_rx=" + std::to_string(heal.stats().stream_bytes_delivered);
  for (std::size_t i = 0; i < kFleetHosts; ++i)
    h.host(i).sockets().set_tap(nullptr);
  return r;
}

/// The tail scenario: the RPC fan-out workload from src/rpc/fanout.hpp,
/// run for correctness rather than latency. Client h0 fans every request
/// to 8 servers (two per rack, odd host indices) over UDP while the
/// fabric runs a topology-scoped fault plan. Client-owned reliability
/// (per-leg RTO with exponential backoff) must deliver every request
/// *through* the partitions and loss bursts; DeliveryOracles assert every
/// call and reply that arrives is byte-exact and at-most-once, and the
/// convergence oracle asserts the fleet settles once the plan clears.
Result run_tail(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  Result r;
  Harness h(schedule, kTail, timeout_ms);
  h.supervise();

  // No CPU service model: this scenario checks delivery, not latency
  // distributions.
  rpc::FanoutConfig cfg;
  std::vector<std::size_t> server_idx;
  for (std::size_t i = 1; i < kTailHosts; i += 2) server_idx.push_back(i);
  std::vector<std::unique_ptr<rpc::FanoutServer>> servers;
  std::vector<std::uint32_t> server_ips;
  for (std::size_t idx : server_idx) {
    servers.push_back(std::make_unique<rpc::FanoutServer>(h.host(idx), cfg));
    server_ips.push_back(net::host_ip(static_cast<std::uint32_t>(idx)));
  }
  obs::Histogram lat(1e-4, 1e3, 32);
  rpc::FanoutClient client(h.host(0), server_ips, cfg, lat);

  // Call-direction oracles: one per server host, because socket ids are
  // per-host (every host's first socket is id 0) so a shared oracle
  // could not tell the receive sockets apart. Retransmits re-enter
  // datagram_sent with the identical payload, which keeps the multiset
  // counting balanced; fleet plans never corrupt or duplicate frames
  // (partition/flap/loss only), so the oracles run strict.
  std::vector<std::unique_ptr<check::DeliveryOracle>> call_oracles;
  std::vector<check::DeliveryOracle::FlowId> call_flows;
  for (std::size_t k = 0; k < server_idx.size(); ++k) {
    auto oracle = std::make_unique<check::DeliveryOracle>();
    const check::DeliveryOracle::FlowId flow =
        oracle->open_datagram("call.h" + std::to_string(server_idx[k]));
    oracle->bind_datagram_rx(flow, servers[k]->udp_socket());
    h.host(server_idx[k]).sockets().set_tap(oracle.get());
    call_flows.push_back(flow);
    call_oracles.push_back(std::move(oracle));
  }
  client.set_call_hook(
      [&](std::size_t leg, std::span<const std::uint8_t> bytes) {
        call_oracles[leg]->datagram_sent(call_flows[leg], bytes);
      });
  // Reply direction: replies to one xid are byte-identical across
  // servers (results keyed on the xid alone), so a single flow fed by
  // every server's UDP send tap stays consistent.
  check::DeliveryOracle reply_oracle;
  const check::DeliveryOracle::FlowId reply_flow =
      reply_oracle.open_datagram("reply");
  reply_oracle.bind_datagram_rx(reply_flow, client.udp_socket());
  h.host(0).sockets().set_tap(&reply_oracle);
  for (std::size_t idx : server_idx) {
    h.host(idx).udp().set_send_tap(
        [&reply_oracle, reply_flow, port = cfg.port](
            std::uint16_t src_port, std::uint32_t, std::uint16_t,
            std::span<const std::uint8_t> payload) {
          if (src_port == port)
            reply_oracle.datagram_sent(reply_flow, payload);
        });
  }

  // Workload: requests paced evenly across the whole fault horizon, then
  // a drain window generous enough for the full RTO ladder (0.25 s
  // doubling to 4 s) to push the last retransmits through after heal.
  constexpr std::size_t kRequests = 150;
  const double t0 = h.fabric().now();
  const double spacing = kTailHorizon / static_cast<double>(kRequests);
  const double deadline = t0 + kTailHorizon + 30.0;
  std::size_t issued = 0;
  while (!h.expired()) {
    const double now = h.fabric().now();
    while (issued < kRequests &&
           now >= t0 + static_cast<double>(issued) * spacing) {
      client.start(/*arrival_sec=*/now, now);
      ++issued;
    }
    client.poll(now);
    for (auto& server : servers) server->poll(now);
    if (issued == kRequests && client.outstanding() == 0) break;
    if (now > deadline) break;
    h.fabric().run_for(kTickSec);
  }

  const rpc::FanoutClientStats& cs = client.stats();
  if (client.outstanding() != 0 || issued < kRequests)
    r.fail("rpc fan-out never drained: " +
           std::to_string(client.outstanding()) + " of " +
           std::to_string(issued) + " issued requests outstanding (" +
           std::to_string(cs.requests_completed) + " completed, " +
           std::to_string(cs.retransmits) + " retransmits)");
  if (cs.malformed != 0)
    r.fail("client saw " + std::to_string(cs.malformed) +
           " malformed replies (fleet plans never corrupt)");
  for (std::size_t k = 0; k < servers.size(); ++k)
    if (servers[k]->stats().malformed != 0)
      r.fail(h.host(server_idx[k]).name() + ": malformed calls");

  h.convergence().arm();
  for (int i = 0; i < 240 && !h.convergence().settled() && !h.expired(); ++i)
    h.fabric().run_for(0.25);
  h.settle(r);
  (void)reply_oracle.finalize();
  fold(r, reply_oracle, "delivery oracle", "reply");
  for (std::size_t k = 0; k < call_oracles.size(); ++k) {
    (void)call_oracles[k]->finalize();
    fold(r, *call_oracles[k], "delivery oracle",
         "call.h" + std::to_string(server_idx[k]));
  }
  h.fold_audits(r);
  h.fold_liveness(r);
  if (r.pass && cs.requests_completed == 0)
    r.fail("no requests completed (workload never started)");
  const net::FabricTotals t = h.fabric().totals();
  r.detail = "completed=" + std::to_string(cs.requests_completed) + "/" +
             std::to_string(cs.requests_started) +
             " calls=" + std::to_string(cs.calls_sent) +
             " rexmt=" + std::to_string(cs.retransmits) +
             " stale=" + std::to_string(cs.stale_replies) +
             " fdrop=" + std::to_string(t.fault_drops) +
             " qdrop=" + std::to_string(t.queue_drops);
  for (std::size_t i = 0; i < kTailHosts; ++i)
    h.host(i).sockets().set_tap(nullptr);
  for (std::size_t idx : server_idx) h.host(idx).udp().set_send_tap({});
  return r;
}

}  // namespace ldlp::scenario

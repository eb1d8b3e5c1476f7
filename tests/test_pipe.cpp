// Tests for ldlp::pipe — the staged receive path (parse -> steer ->
// proto -> socket).
//
// The properties pinned here are the ones the design note promises:
//  * per-flow FIFO through the stages, even when the wire reorders and
//    duplicates frames — the staged path must deliver exactly what the
//    layer-blocked baseline delivers;
//  * bounded stage queues conserve frames (offered = enqueued + drops,
//    enqueued = handed_off + queue_len) and drop, never block;
//  * the three schedules (ldlp / pipelined / hybrid) are byte-identical
//    end to end on a real TCP transfer;
//  * the parse stage's parallel classification is bit-identical for any
//    WorkerPool size;
//  * one lane in kLdlp mode leaves exactly what Host::pump leaves:
//    delivered bytes, per-layer stats, pool stats and TCP PCB state;
//  * the wide checksum is the same function as the scalar ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "pipe/pipeline.hpp"
#include "stack/host.hpp"
#include "wire/checksum.hpp"

namespace ldlp {
namespace {

using wire::ip_from_parts;

struct Pair {
  stack::HostConfig ca;
  stack::HostConfig cb;
  std::unique_ptr<stack::Host> tx;
  std::unique_ptr<stack::Host> rx;

  Pair() {
    ca.name = "tx";
    ca.mac = {2, 0, 0, 0, 0, 1};
    ca.ip = ip_from_parts(10, 0, 0, 1);
    cb.name = "rx";
    cb.mac = {2, 0, 0, 0, 0, 2};
    cb.ip = ip_from_parts(10, 0, 0, 2);
    cb.mode = core::SchedMode::kLdlp;  // StagedRx schedules the graph.
    tx = std::make_unique<stack::Host>(ca);
    rx = std::make_unique<stack::Host>(cb);
    stack::NetDevice::connect(tx->device(), rx->device());
  }
};

// Flow f sends datagrams from port 9001+f; payload byte 0 is the flow,
// byte 1 the sequence number. Every 7th send is duplicated at the source
// and the rx ring reorders adjacent frames — the adversarial wire.
constexpr int kFlows = 4;
constexpr int kRounds = 48;

/// One adversarial UDP run. `staged_mode` selects the StagedRx schedule;
/// nullptr runs the plain layer-blocked Host::pump baseline. Returns the
/// per-flow delivered sequence numbers, in delivery order.
std::map<int, std::vector<int>> adversarial_run(
    const pipe::RxMode* staged_mode, par::WorkerPool* pool = nullptr,
    pipe::StagedRx** staged_out = nullptr,
    std::unique_ptr<Pair>* keep = nullptr) {
  auto net = std::make_unique<Pair>();
  net->rx->device().set_reorder(0.3, 0xdead);

  std::unique_ptr<pipe::StagedRx> staged;
  if (staged_mode != nullptr) {
    pipe::PipelineConfig pc;
    pc.mode = *staged_mode;
    pc.lanes = 2;
    pc.batch_limit = 4;
    staged = std::make_unique<pipe::StagedRx>(*net->rx, pc);
  }
  const auto pump_rx = [&] {
    if (staged)
      (void)staged->pump(SIZE_MAX, pool);
    else
      net->rx->pump();
  };

  const stack::SocketId sock =
      net->rx->sockets().create(stack::SocketKind::kDatagram);
  EXPECT_TRUE(net->rx->udp().bind(9000, sock));

  // Resolve ARP before the measured flood so nothing parks.
  std::uint8_t warm[2] = {0xff, 0xff};
  net->tx->udp().send(9001, net->cb.ip, 9000, warm);
  for (int i = 0; i < 6; ++i) {
    net->tx->pump();
    pump_rx();
  }
  (void)net->rx->sockets().read_datagram(sock);

  for (int r = 0; r < kRounds; ++r) {
    for (int f = 0; f < kFlows; ++f) {
      const std::uint8_t payload[2] = {static_cast<std::uint8_t>(f),
                                       static_cast<std::uint8_t>(r)};
      net->tx->udp().send(static_cast<std::uint16_t>(9001 + f), net->cb.ip,
                          9000, payload);
      if ((r + f) % 7 == 0)  // source-duplicated frame
        net->tx->udp().send(static_cast<std::uint16_t>(9001 + f), net->cb.ip,
                            9000, payload);
    }
    if (r % 4 == 3) {
      net->tx->pump();
      pump_rx();
    }
  }
  for (int i = 0; i < 4; ++i) {
    net->tx->pump();
    pump_rx();
  }

  std::map<int, std::vector<int>> delivered;
  while (auto dgram = net->rx->sockets().read_datagram(sock)) {
    EXPECT_EQ(dgram->payload.size(), 2u) << "foreign datagram";
    delivered[dgram->payload[0]].push_back(dgram->payload[1]);
  }
  if (staged) {
    EXPECT_TRUE(staged->audit().empty());
  }
  if (staged_out != nullptr) *staged_out = staged.release();
  if (keep != nullptr) *keep = std::move(net);
  return delivered;
}

TEST(PerFlowOrder, AdversarialWireMatchesLayerBlockedBaseline) {
  const auto baseline = adversarial_run(nullptr);
  ASSERT_EQ(baseline.size(), static_cast<std::size_t>(kFlows));
  // The wire duplicates some frames, so each flow delivers > kRounds.
  for (const auto& [flow, seqs] : baseline)
    EXPECT_GT(seqs.size(), static_cast<std::size_t>(kRounds)) << flow;

  for (const pipe::RxMode mode :
       {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined, pipe::RxMode::kHybrid}) {
    const auto staged = adversarial_run(&mode);
    EXPECT_EQ(staged, baseline) << pipe::rx_mode_name(mode);
  }
}

TEST(Jobs, ParallelClassifyIsBitIdentical) {
  const pipe::RxMode mode = pipe::RxMode::kPipelined;
  par::WorkerPool one(1);
  par::WorkerPool four(4);
  const auto serial = adversarial_run(&mode, &one);
  const auto fanned = adversarial_run(&mode, &four);
  EXPECT_EQ(serial, fanned);
}

TEST(BoundedQueue, TinyCapsDropAndConserve) {
  Pair net;
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kPipelined;
  pc.lanes = 1;
  pc.stage_queue_cap = 4;
  pipe::StagedRx staged(*net.rx, pc);

  const stack::SocketId sock =
      net.rx->sockets().create(stack::SocketKind::kDatagram);
  ASSERT_TRUE(net.rx->udp().bind(9000, sock));
  std::uint8_t payload[8] = {};
  net.tx->udp().send(9001, net.cb.ip, 9000, payload);
  for (int i = 0; i < 6; ++i) {
    net.tx->pump();
    (void)staged.pump();
  }

  // A 64-frame burst against a 4-deep parse queue: the pull loop offers
  // every pending frame before the stages run, so most must drop there.
  for (int i = 0; i < 64; ++i)
    net.tx->udp().send(9001, net.cb.ip, 9000, payload);
  net.tx->pump();
  (void)staged.pump();

  const pipe::StageCounters parse = staged.counters(pipe::Stage::kParse);
  EXPECT_GT(parse.drops, 0u);
  EXPECT_EQ(parse.offered, parse.enqueued + parse.drops);
  EXPECT_EQ(parse.enqueued, parse.handed_off + parse.queue_len);
  EXPECT_LE(parse.high_water, pc.stage_queue_cap);
  EXPECT_TRUE(staged.audit().empty());

  // Dropped chains went back to the pool: nothing may leak.
  EXPECT_EQ(net.rx->pool().stats().mbufs_outstanding(), 0u);
}

TEST(ThreeModes, TcpTransferByteIdentical) {
  const std::vector<std::uint8_t> chunk = [] {
    std::vector<std::uint8_t> out(700);
    Rng rng(0x7cb);
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.bounded(256));
    return out;
  }();

  std::vector<std::uint8_t> first;
  for (const pipe::RxMode mode :
       {pipe::RxMode::kLdlp, pipe::RxMode::kPipelined, pipe::RxMode::kHybrid}) {
    Pair net;
    pipe::PipelineConfig pc;
    pc.mode = mode;
    pc.lanes = 2;
    pc.batch_limit = 4;
    pipe::StagedRx staged(*net.rx, pc);

    (void)net.rx->tcp().listen(80);
    stack::PcbId accepted = stack::kNoPcb;
    net.rx->tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
    const stack::PcbId conn = net.tx->tcp().connect(net.cb.ip, 80);
    for (int i = 0; i < 8; ++i) {
      net.tx->pump();
      (void)staged.pump();
    }
    ASSERT_EQ(net.tx->tcp().state(conn), stack::TcpState::kEstablished)
        << pipe::rx_mode_name(mode);

    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> buf(4096);
    const stack::SocketId sock = net.rx->tcp().socket_of(accepted);
    for (int seg = 0; seg < 8; ++seg) {
      ASSERT_TRUE(net.tx->tcp().send(conn, chunk));
      net.tx->pump();
      (void)staged.pump();
      const std::size_t n = net.rx->sockets().read(sock, buf);
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
      net.tx->pump();  // absorb the ACK
    }
    ASSERT_EQ(got.size(), chunk.size() * 8) << pipe::rx_mode_name(mode);
    EXPECT_TRUE(staged.audit().empty());
    if (first.empty())
      first = got;
    else
      EXPECT_EQ(got, first) << pipe::rx_mode_name(mode);
  }
  // And the bytes are the sender's, not merely mutually consistent.
  for (std::size_t i = 0; i < first.size(); ++i)
    ASSERT_EQ(first[i], chunk[i % chunk.size()]) << i;
}

TEST(Auditor, StageQueuesJoinTheHostAudit) {
  Pair net;
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kHybrid;
  pc.lanes = 2;
  pc.batch_limit = 4;
  pipe::StagedRx staged(*net.rx, pc);
  check::HostAuditor auditor(*net.rx, "rx");
  auditor.add_audit([&] { return staged.audit(); });
  auditor.install();

  const stack::SocketId sock =
      net.rx->sockets().create(stack::SocketKind::kDatagram);
  ASSERT_TRUE(net.rx->udp().bind(9000, sock));
  std::uint8_t payload[16] = {};
  for (int r = 0; r < 12; ++r) {
    net.tx->udp().send(9001, net.cb.ip, 9000, payload);
    net.tx->pump();
    (void)staged.pump();
  }
  auditor.run();
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front();
  EXPECT_GT(auditor.stats().passes, 0u);
}

TEST(Publish, PerStageCountersLandInTheRegistry) {
  // TCP stream traffic, so the socket *layer* sees graph messages and the
  // socket stage's counters move (UDP hands datagrams to the socket layer
  // directly, bypassing its queue).
  Pair net;
  pipe::PipelineConfig pc;
  pc.mode = pipe::RxMode::kPipelined;
  pc.lanes = 2;
  pipe::StagedRx staged(*net.rx, pc);

  (void)net.rx->tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  net.rx->tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = net.tx->tcp().connect(net.cb.ip, 80);
  for (int i = 0; i < 8; ++i) {
    net.tx->pump();
    (void)staged.pump();
  }
  ASSERT_EQ(net.tx->tcp().state(conn), stack::TcpState::kEstablished);
  const std::vector<std::uint8_t> payload(128, 0x5a);
  std::vector<std::uint8_t> sink(1024);
  const stack::SocketId sock = net.rx->tcp().socket_of(accepted);
  for (int seg = 0; seg < 4; ++seg) {
    ASSERT_TRUE(net.tx->tcp().send(conn, payload));
    net.tx->pump();
    (void)staged.pump();
    (void)net.rx->sockets().read(sock, sink);
    net.tx->pump();
  }

  obs::Registry registry;
  staged.publish(registry);
  EXPECT_GT(registry.counter("pipe.parse.offered").value(), 0u);
  EXPECT_GT(registry.counter("pipe.steer.handed_off").value(), 0u);
  EXPECT_GT(registry.counter("pipe.proto.enqueued").value(), 0u);
  EXPECT_GT(registry.counter("pipe.socket.handed_off").value(), 0u);
  EXPECT_EQ(registry.counter("pipe.parse.drops").value(), 0u);
  EXPECT_EQ(registry.gauge("pipe.lanes").value(), 2.0);
}

// ---- One lane in kLdlp mode is Host::pump --------------------------------

/// Everything a receive driver leaves behind that the protocol can see.
struct DriverOutcome {
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<core::LayerStats> layers;
  buf::PoolStats pool;
  stack::NetDeviceStats device;
  std::vector<stack::TcpPcb> pcbs;  ///< rx side then tx side.
  std::uint64_t graph_runs = 0;
};

/// One mixed UDP + TCP frame sequence, received either by Host::pump
/// (`staged` false) or by a one-lane kLdlp StagedRx. Includes a burst
/// that overflows the 64-slot rx ring and TCP segments of every shape the
/// device copy-in makes (internal area and cluster).
DriverOutcome one_lane_run(bool staged) {
  Pair net;
  std::unique_ptr<pipe::StagedRx> pipeline;
  if (staged) {
    pipe::PipelineConfig pc;
    pc.mode = pipe::RxMode::kLdlp;
    pc.lanes = 1;
    pipeline = std::make_unique<pipe::StagedRx>(*net.rx, pc);
  }
  const auto pump_rx = [&] {
    if (pipeline)
      (void)pipeline->pump();
    else
      (void)net.rx->pump();
  };
  const auto step = [&] {
    net.tx->pump();
    pump_rx();
    net.tx->advance(0.01);
    net.rx->advance(0.01);
  };

  const stack::SocketId dsock =
      net.rx->sockets().create(stack::SocketKind::kDatagram);
  EXPECT_TRUE(net.rx->udp().bind(9000, dsock));
  (void)net.rx->tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  net.rx->tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = net.tx->tcp().connect(net.cb.ip, 80);
  for (int i = 0; i < 8; ++i) step();
  EXPECT_EQ(net.tx->tcp().state(conn), stack::TcpState::kEstablished);
  EXPECT_NE(accepted, stack::kNoPcb);

  DriverOutcome out;
  Rng rng(0x1a7e);
  std::vector<std::uint8_t> buf(1 << 16);
  const stack::SocketId ssock = net.rx->tcp().socket_of(accepted);
  const auto drain = [&] {
    while (auto d = net.rx->sockets().read_datagram(dsock))
      out.datagrams.push_back(d->payload);
    const std::size_t n = net.rx->sockets().read(ssock, buf);
    out.stream.insert(out.stream.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(n));
  };
  for (int round = 0; round < 12; ++round) {
    // Round 5 sends 80 datagrams into one pump: the ring overflows.
    const int dgrams = round == 5 ? 80 : 1 + static_cast<int>(rng.bounded(6));
    for (int i = 0; i < dgrams; ++i) {
      std::vector<std::uint8_t> payload(
          rng.bounded(2) == 0 ? 64 : 1 + rng.bounded(1400));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.bounded(256));
      net.tx->udp().send(static_cast<std::uint16_t>(9001 + i % 4),
                         net.cb.ip, 9000, payload);
    }
    std::vector<std::uint8_t> data(
        round % 3 == 0 ? 64 : 300 + rng.bounded(3000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(256));
    EXPECT_TRUE(net.tx->tcp().send(conn, data));
    step();
    drain();
  }
  for (int i = 0; i < 20; ++i) {
    step();
    drain();
  }

  for (std::size_t id = 0; id < net.rx->graph().layer_count(); ++id)
    out.layers.push_back(net.rx->graph().layer(id).stats());
  out.pool = net.rx->pool().stats();
  out.device = net.rx->device().stats();
  out.pcbs.push_back(net.rx->tcp().pcb_view(accepted));
  out.pcbs.push_back(net.tx->tcp().pcb_view(conn));
  out.graph_runs = net.rx->graph().graph_stats().runs;
  if (pipeline) {
    EXPECT_TRUE(pipeline->audit().empty());
  }
  return out;
}

TEST(OneLane, LdlpStagedRxMatchesHostPump) {
  const DriverOutcome pump = one_lane_run(false);
  const DriverOutcome staged = one_lane_run(true);
  EXPECT_GT(pump.device.rx_drops, 0u) << "the ring must overflow once";
  EXPECT_GT(pump.stream.size(), 0u);
  EXPECT_GT(pump.datagrams.size(), 0u);

  EXPECT_EQ(staged.stream, pump.stream);
  EXPECT_EQ(staged.datagrams, pump.datagrams);
  ASSERT_EQ(staged.layers.size(), pump.layers.size());
  for (std::size_t id = 0; id < pump.layers.size(); ++id) {
    const core::LayerStats& a = pump.layers[id];
    const core::LayerStats& b = staged.layers[id];
    EXPECT_EQ(b.enqueued, a.enqueued) << "layer " << id;
    EXPECT_EQ(b.processed, a.processed) << "layer " << id;
    EXPECT_EQ(b.drops, a.drops) << "layer " << id;
    EXPECT_EQ(b.activations, a.activations) << "layer " << id;
    EXPECT_EQ(b.max_queue, a.max_queue) << "layer " << id;
  }
  EXPECT_EQ(staged.pool.mbuf_allocs, pump.pool.mbuf_allocs);
  EXPECT_EQ(staged.pool.mbuf_frees, pump.pool.mbuf_frees);
  EXPECT_EQ(staged.pool.cluster_allocs, pump.pool.cluster_allocs);
  EXPECT_EQ(staged.pool.cluster_frees, pump.pool.cluster_frees);
  EXPECT_EQ(staged.pool.alloc_failures, pump.pool.alloc_failures);
  EXPECT_EQ(staged.device.rx_frames, pump.device.rx_frames);
  EXPECT_EQ(staged.device.rx_drops, pump.device.rx_drops);
  EXPECT_EQ(staged.device.tx_frames, pump.device.tx_frames);
  EXPECT_EQ(staged.graph_runs, pump.graph_runs);
  ASSERT_EQ(staged.pcbs.size(), pump.pcbs.size());
  for (std::size_t i = 0; i < pump.pcbs.size(); ++i) {
    const stack::TcpPcb& a = pump.pcbs[i];
    const stack::TcpPcb& b = staged.pcbs[i];
    EXPECT_EQ(b.state, a.state) << i;
    EXPECT_EQ(b.snd_una, a.snd_una) << i;
    EXPECT_EQ(b.snd_nxt, a.snd_nxt) << i;
    EXPECT_EQ(b.snd_max, a.snd_max) << i;
    EXPECT_EQ(b.snd_wnd, a.snd_wnd) << i;
    EXPECT_EQ(b.rcv_nxt, a.rcv_nxt) << i;
    EXPECT_EQ(b.segs_since_ack, a.segs_since_ack) << i;
    EXPECT_EQ(b.stats.segs_in, a.stats.segs_in) << i;
    EXPECT_EQ(b.stats.fast_path, a.stats.fast_path) << i;
    EXPECT_EQ(b.stats.slow_path, a.stats.slow_path) << i;
    EXPECT_EQ(b.stats.acks_sent, a.stats.acks_sent) << i;
    EXPECT_EQ(b.stats.retransmits, a.stats.retransmits) << i;
    EXPECT_EQ(b.stats.ooo_buffered, a.stats.ooo_buffered) << i;
  }
}

// ---- The wide checksum is the same function ---------------------------

TEST(CksumWide, MatchesScalarOnRandomBuffers) {
  Rng rng(0xc4a);
  for (int len = 0; len <= 130; ++len) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_simple(buf)) << len;
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_unrolled(buf)) << len;
  }
  for (const int len : {551, 552, 1459, 1460, 4096}) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
    ASSERT_EQ(wire::cksum_wide(buf), wire::cksum_simple(buf)) << len;
  }
}

TEST(CksumWide, MatchesScalarOnUnalignedSpans) {
  Rng rng(0xa17);
  std::vector<std::uint8_t> buf(1500 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.bounded(256));
  for (int off = 0; off < 8; ++off) {
    const std::span<const std::uint8_t> view(buf.data() + off, 1500);
    ASSERT_EQ(wire::cksum_wide(view), wire::cksum_simple(view)) << off;
  }
}

TEST(CksumWide, Rfc1071Example) {
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(wire::cksum_wide(data), 0x220d);
  (void)wire::cksum_simd_enabled();  // linkage + callable under any macro
}

}  // namespace
}  // namespace ldlp

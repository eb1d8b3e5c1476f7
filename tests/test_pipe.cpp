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

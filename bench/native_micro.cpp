// Native microbenchmarks (google-benchmark): wall-clock costs of the real
// library primitives on the host machine. These complement the simulated
// figures — e.g. the warm-cache half of Figure 8 is directly measurable
// here, and the signalling benchmarks check the paper's stated goal of
// 10 000 setup/teardown pairs per second at ~100 us per message.
#include <benchmark/benchmark.h>

#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "buf/packet.hpp"
#include "buf/packet_queue.hpp"
#include "pipe/pipeline.hpp"
#include "signal/node.hpp"
#include "stack/host.hpp"
#include "time/timer_wheel.hpp"
#include "wire/checksum.hpp"
#include "wire/ipv4.hpp"
#include "wire/tcp.hpp"

namespace {

using namespace ldlp;

void BM_CksumSimple(benchmark::State& state) {
  std::vector<std::uint8_t> data(state.range(0), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::cksum_simple(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CksumSimple)->Arg(64)->Arg(552)->Arg(1460);

void BM_CksumUnrolled(benchmark::State& state) {
  std::vector<std::uint8_t> data(state.range(0), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::cksum_unrolled(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CksumUnrolled)->Arg(64)->Arg(552)->Arg(1460);

void BM_CksumWide(benchmark::State& state) {
  std::vector<std::uint8_t> data(state.range(0), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::cksum_wide(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CksumWide)->Arg(64)->Arg(552)->Arg(1460);

void BM_MbufPrependAdj(benchmark::State& state) {
  buf::MbufPool pool(256, 64);
  std::vector<std::uint8_t> payload(552, 0x42);
  for (auto _ : state) {
    buf::Packet pkt = buf::Packet::from_bytes(pool, payload);
    benchmark::DoNotOptimize(pkt.prepend(20));
    benchmark::DoNotOptimize(pkt.prepend(14));
    pkt.adj(34);
    benchmark::DoNotOptimize(pkt.length());
  }
}
BENCHMARK(BM_MbufPrependAdj);

void BM_Ipv4ParseSerialize(benchmark::State& state) {
  wire::Ipv4Header header;
  header.total_len = 572;
  header.protocol = 6;
  header.src = wire::ip_from_parts(10, 0, 0, 1);
  header.dst = wire::ip_from_parts(10, 0, 0, 2);
  std::uint8_t bytes[20];
  wire::write_ipv4(header, bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::parse_ipv4(bytes));
  }
}
BENCHMARK(BM_Ipv4ParseSerialize);

void BM_TcpParse(benchmark::State& state) {
  wire::TcpHeader header;
  header.src_port = 1234;
  header.dst_port = 80;
  header.mss = 1460;
  std::uint8_t bytes[24];
  wire::write_tcp(header, bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::parse_tcp(bytes));
  }
}
BENCHMARK(BM_TcpParse);

/// One Toeplitz flow hash (the RSS steering cost per frame on a
/// multi-queue device or a multi-lane StagedRx), over 64 distinct keys.
void BM_FlowHash(benchmark::State& state) {
  const stack::FlowHash hash;
  std::vector<stack::FlowKey> keys;
  for (std::uint32_t f = 0; f < 64; ++f)
    keys.push_back({0x0a000001u + f, 0x0a00ffffu,
                    static_cast<std::uint16_t>(10000 + f), 53, 17});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_FlowHash);

/// The per-layer input queue, before and after the intrusive rewrite.
/// "Deque" is the old implementation (std::deque<Packet> — one node
/// allocation plus a Packet move per enqueue); "Intrusive" is the current
/// PacketQueue (BSD m_nextpkt links threaded through the mbuf itself, no
/// allocator traffic). One iteration pushes and pops a burst of 16
/// packets, the receive-side pattern an LDLP batch drains.
constexpr int kQueueBurst = 16;

void BM_PacketQueueDeque(benchmark::State& state) {
  buf::MbufPool pool(256, 64);
  std::vector<std::uint8_t> payload(128, 0x42);
  std::deque<buf::Packet> queue;
  for (auto _ : state) {
    for (int i = 0; i < kQueueBurst; ++i)
      queue.push_back(buf::Packet::from_bytes(pool, payload));
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.front().length());
      queue.pop_front();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQueueBurst);
}
BENCHMARK(BM_PacketQueueDeque);

void BM_PacketQueueIntrusive(benchmark::State& state) {
  buf::MbufPool pool(256, 64);
  std::vector<std::uint8_t> payload(128, 0x42);
  buf::PacketQueue queue;
  for (auto _ : state) {
    for (int i = 0; i < kQueueBurst; ++i)
      (void)queue.push(buf::Packet::from_bytes(pool, payload));
    while (!queue.empty()) {
      buf::Packet pkt = queue.pop();
      benchmark::DoNotOptimize(pkt.length());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQueueBurst);
}
BENCHMARK(BM_PacketQueueIntrusive);

/// One TCP data segment carried receive-side through the whole real stack
/// (device pull -> eth -> ip -> tcp fast path -> socket), per scheduling
/// mode.
void tcp_segment_walk(benchmark::State& state, core::SchedMode mode) {
  stack::HostConfig ca;
  ca.name = "tx";
  ca.mac = {2, 0, 0, 0, 0, 1};
  ca.ip = wire::ip_from_parts(10, 0, 0, 1);
  stack::HostConfig cb;
  cb.name = "rx";
  cb.mac = {2, 0, 0, 0, 0, 2};
  cb.ip = wire::ip_from_parts(10, 0, 0, 2);
  cb.mode = mode;
  stack::Host tx(ca);
  stack::Host rx(cb);
  stack::NetDevice::connect(tx.device(), rx.device());

  (void)rx.tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  rx.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = tx.tcp().connect(cb.ip, 80);
  for (int i = 0; i < 8; ++i) {
    tx.pump();
    rx.pump();
  }
  if (tx.tcp().state(conn) != stack::TcpState::kEstablished) {
    state.SkipWithError("handshake failed");
    return;
  }

  std::vector<std::uint8_t> payload(512, 0x7e);
  std::vector<std::uint8_t> sink(payload.size());
  const stack::SocketId socket = rx.tcp().socket_of(accepted);
  for (auto _ : state) {
    if (!tx.tcp().send(conn, payload)) state.SkipWithError("send failed");
    rx.pump();
    benchmark::DoNotOptimize(rx.sockets().read(socket, sink));
    tx.pump();  // absorb the ACK
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}

void BM_TcpSegmentConventional(benchmark::State& state) {
  tcp_segment_walk(state, core::SchedMode::kConventional);
}
BENCHMARK(BM_TcpSegmentConventional);

void BM_TcpSegmentLdlp(benchmark::State& state) {
  tcp_segment_walk(state, core::SchedMode::kLdlp);
}
BENCHMARK(BM_TcpSegmentLdlp);

/// The staged receive path (parse -> steer -> proto -> socket) on real
/// frames: one iteration is a 16-datagram UDP burst carried tx -> wire ->
/// StagedRx -> socket under one scheduling mode.
void staged_rx_burst(benchmark::State& state, pipe::RxMode mode) {
  stack::HostConfig ca;
  ca.name = "tx";
  ca.mac = {2, 0, 0, 0, 0, 1};
  ca.ip = wire::ip_from_parts(10, 0, 0, 1);
  stack::HostConfig cb;
  cb.name = "rx";
  cb.mac = {2, 0, 0, 0, 0, 2};
  cb.ip = wire::ip_from_parts(10, 0, 0, 2);
  cb.mode = core::SchedMode::kLdlp;  // StagedRx schedules the graph itself.
  stack::Host tx(ca);
  stack::Host rx(cb);
  stack::NetDevice::connect(tx.device(), rx.device());

  pipe::PipelineConfig pc;
  pc.mode = mode;
  pc.lanes = 2;
  pc.batch_limit = 8;
  pipe::StagedRx staged(rx, pc);

  const stack::SocketId sock = rx.sockets().create(stack::SocketKind::kDatagram);
  if (!rx.udp().bind(9000, sock)) {
    state.SkipWithError("bind failed");
    return;
  }
  std::vector<std::uint8_t> payload(256, 0x7e);
  // First send parks behind ARP; settle the request/reply exchange.
  tx.udp().send(9001, cb.ip, 9000, payload);
  for (int i = 0; i < 6; ++i) {
    tx.pump();
    (void)staged.pump();
  }
  while (rx.sockets().read_datagram(sock).has_value()) {
  }

  for (auto _ : state) {
    for (int i = 0; i < kQueueBurst; ++i)
      tx.udp().send(9001, cb.ip, 9000, payload);
    tx.pump();
    benchmark::DoNotOptimize(staged.pump());
    while (rx.sockets().read_datagram(sock).has_value()) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQueueBurst);
}

void BM_StagedRxLdlp(benchmark::State& state) {
  staged_rx_burst(state, pipe::RxMode::kLdlp);
}
BENCHMARK(BM_StagedRxLdlp);

void BM_StagedRxPipelined(benchmark::State& state) {
  staged_rx_burst(state, pipe::RxMode::kPipelined);
}
BENCHMARK(BM_StagedRxPipelined);

void BM_StagedRxHybrid(benchmark::State& state) {
  staged_rx_burst(state, pipe::RxMode::kHybrid);
}
BENCHMARK(BM_StagedRxHybrid);

/// TCP connection churn: the paper counts "TCP's connection control
/// messages" among its small-message workloads. One full connect/close
/// cycle is six small segments (SYN, SYN|ACK, ACK, FIN|ACK, FIN|ACK, ACK)
/// plus timer work — all control, no payload.
void BM_TcpConnectClose(benchmark::State& state) {
  stack::HostConfig ca;
  ca.name = "dialer";
  ca.mac = {2, 0, 0, 0, 0, 1};
  ca.ip = wire::ip_from_parts(10, 0, 0, 1);
  stack::HostConfig cb;
  cb.name = "acceptor";
  cb.mac = {2, 0, 0, 0, 0, 2};
  cb.ip = wire::ip_from_parts(10, 0, 0, 2);
  // Short TIME_WAIT so PCB slots recycle inside the benchmark loop.
  ca.tcp.time_wait_sec = 0.001;
  cb.tcp.time_wait_sec = 0.001;
  stack::Host dialer(ca);
  stack::Host acceptor(cb);
  stack::NetDevice::connect(dialer.device(), acceptor.device());
  (void)acceptor.tcp().listen(9);
  stack::PcbId accepted = stack::kNoPcb;
  acceptor.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });

  auto settle = [&] {
    for (int i = 0; i < 6; ++i) {
      dialer.pump();
      acceptor.pump();
    }
  };

  for (auto _ : state) {
    const stack::PcbId conn = dialer.tcp().connect(cb.ip, 9);
    settle();
    if (dialer.tcp().state(conn) != stack::TcpState::kEstablished) {
      state.SkipWithError("handshake failed");
      return;
    }
    dialer.tcp().close(conn);
    settle();
    acceptor.tcp().close(accepted);
    settle();
    dialer.advance(0.01);  // expire TIME_WAIT
    acceptor.advance(0.01);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcpConnectClose);

/// A full signalling setup/teardown pair between two nodes — the paper's
/// target is 10 000 of these per second (<= 100 us per pair of messages on
/// each side).
void BM_SignallingSetupTeardown(benchmark::State& state) {
  signal::SignallingNode user("user");
  signal::SignallingNode network("switch");
  signal::SignallingNode::connect(user, network);
  const std::uint8_t called[] = {9, 1, 1};
  const std::uint8_t calling[] = {5, 5, 5};
  std::uint32_t active_ref = 0;
  user.calls().set_on_active(
      [&](const signal::Call& call) { active_ref = call.call_ref; });

  for (auto _ : state) {
    const std::uint32_t ref = user.calls().originate(
        called, calling, signal::TrafficDescriptor{353207, 176603});
    network.pump();
    user.pump();
    user.calls().release(ref);
    network.pump();
    user.pump();
  }
  benchmark::DoNotOptimize(active_ref);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SignallingSetupTeardown);

/// Per-pass timer maintenance: hierarchical wheel vs the legacy scan.
/// One iteration is one 1 ms scheduler pass over a host keeping `n`
/// retry timers live. The wheel advances in O(timers actually due) — an
/// idle pass touches nothing — where the scan the wheel replaced visits
/// every deadline every pass to re-derive the minimum. Fired timers
/// re-arm themselves ~50 ms out, the retransmit-ladder steady state.
void BM_TimerWheelPass(benchmark::State& state) {
  time::TimerWheel wheel;
  const int n = static_cast<int>(state.range(0));
  double t = 0.0;
  std::vector<time::TimerId> ids(static_cast<std::size_t>(n));
  std::function<void(int)> arm_slot = [&](int i) {
    ids[static_cast<std::size_t>(i)] =
        wheel.arm(t + 0.05 + 0.001 * i, time::TimerClass::kLiveness,
                  [&arm_slot, i] { arm_slot(i); });
  };
  for (int i = 0; i < n; ++i) arm_slot(i);
  for (auto _ : state) {
    t += 0.001;
    wheel.advance_to(t);
  }
  benchmark::DoNotOptimize(wheel.next_deadline());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerWheelPass)->Arg(64)->Arg(512)->Arg(4096);

void BM_TimerScanPass(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  double t = 0.0;
  std::vector<double> deadline(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    deadline[static_cast<std::size_t>(i)] = t + 0.05 + 0.001 * i;
  for (auto _ : state) {
    t += 0.001;
    double next = std::numeric_limits<double>::infinity();
    for (double& d : deadline) {
      if (d <= t) d = t + 0.05;  // "fire": re-arm the ladder
      if (d < next) next = d;
    }
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerScanPass)->Arg(64)->Arg(512)->Arg(4096);

void BM_Q93bEncodeDecode(benchmark::State& state) {
  const std::uint8_t called[] = {9, 1, 1};
  const std::uint8_t calling[] = {5, 5, 5};
  const auto msg = signal::make_setup(
      7, called, calling, signal::TrafficDescriptor{353207, 176603});
  for (auto _ : state) {
    const auto bytes = signal::encode(msg);
    benchmark::DoNotOptimize(signal::decode(bytes));
  }
}
BENCHMARK(BM_Q93bEncodeDecode);

}  // namespace

BENCHMARK_MAIN();

// ldlp::par — flow steering, multi-queue receive and the worker pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "par/worker_pool.hpp"
#include "stack/host.hpp"
#include "stack/netdev.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4.hpp"
#include "wire/udp.hpp"

namespace {

using namespace ldlp;

stack::FlowKey make_key(std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t dst_ip, std::uint16_t dst_port,
                        std::uint8_t proto = 17) {
  stack::FlowKey key;
  key.src_ip = src_ip;
  key.dst_ip = dst_ip;
  key.src_port = src_port;
  key.dst_port = dst_port;
  key.proto = proto;
  return key;
}

/// Eth + IPv4 + UDP frame carrying `payload_len` zero bytes.
std::vector<std::uint8_t> make_udp_frame(const wire::MacAddr& dst_mac,
                                         const stack::FlowKey& flow,
                                         std::size_t payload_len = 18,
                                         std::uint16_t frag_offset = 0) {
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen +
                                  wire::kIpMinHeaderLen +
                                  wire::kUdpHeaderLen + payload_len);
  wire::EthHeader eth;
  eth.dst = dst_mac;
  eth.src = {2, 0, 0, 0, 0, 9};
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  std::size_t at = wire::write_eth(eth, frame);
  wire::Ipv4Header ip;
  ip.total_len = static_cast<std::uint16_t>(frame.size() - wire::kEthHeaderLen);
  ip.protocol = flow.proto;
  ip.frag_offset = frag_offset;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  at += wire::write_ipv4(ip, std::span(frame).subspan(at));
  wire::UdpHeader udp;
  udp.src_port = flow.src_port;
  udp.dst_port = flow.dst_port;
  udp.length = static_cast<std::uint16_t>(wire::kUdpHeaderLen + payload_len);
  wire::write_udp(udp, std::span(frame).subspan(at));
  return frame;
}

TEST(FlowHash, StableAcrossInstancesAndCalls) {
  const stack::FlowHash a;
  const stack::FlowHash b;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto key = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    const std::uint32_t h = a(key);
    EXPECT_EQ(h, a(key)) << "same instance, same key";
    EXPECT_EQ(h, b(key)) << "fresh instance, default seed";
  }
}

TEST(FlowHash, SeedChangesTheMapping) {
  const stack::FlowHash a;
  const stack::FlowHash b(false, 0x1234'5678'9abc'def0ULL);
  int diff = 0;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto key = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    if (a(key) != b(key)) ++diff;
  }
  EXPECT_GT(diff, 32);
}

TEST(FlowHash, SymmetricModeCoSteersBothDirections) {
  const stack::FlowHash sym(true);
  const stack::FlowHash plain(false);
  int asym_diff = 0;
  for (std::uint32_t f = 0; f < 64; ++f) {
    const auto fwd = make_key(0x0a000001u + f, 10000 + f, 0x0a00ffffu, 53);
    const auto rev = make_key(fwd.dst_ip, fwd.dst_port, fwd.src_ip,
                              fwd.src_port);
    EXPECT_EQ(sym(fwd), sym(rev));
    if (plain(fwd) != plain(rev)) ++asym_diff;
  }
  // Plain Toeplitz is direction-sensitive; that is why symmetric mode
  // exists at all.
  EXPECT_GT(asym_diff, 0);
}

TEST(FlowHash, DistributionHasNoHotShard) {
  const stack::FlowHash hash;
  for (const std::size_t queues : {2u, 4u, 8u}) {
    std::vector<std::uint32_t> counts(queues, 0);
    const std::uint32_t flows = 512;
    for (std::uint32_t f = 0; f < flows; ++f) {
      const auto key =
          make_key(0x0a000000u + f * 7u + 1, 1024 + f, 0x0a00ffffu, 53);
      ++counts[hash(key) % queues];
    }
    const double fair = static_cast<double>(flows) / queues;
    for (std::size_t q = 0; q < queues; ++q) {
      EXPECT_LT(counts[q], 2.0 * fair)
          << queues << " queues, queue " << q;
      EXPECT_GT(counts[q], 0u);
    }
  }
}

/// Textbook bit-serial Toeplitz (the RSS specification's shift-register
/// form), written independently of FlowHash: a 32-bit window slides one
/// key bit left per input bit and is XORed in on every set bit.
std::uint32_t reference_toeplitz(const stack::FlowKey& key, bool symmetric,
                                 std::uint64_t seed) {
  std::uint8_t rss_key[48];
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < sizeof rss_key; i += 8) {
    const std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; b < 8; ++b)
      rss_key[i + b] = static_cast<std::uint8_t>(word >> (56 - 8 * b));
  }
  stack::FlowKey k = key;
  if (symmetric && (k.src_ip > k.dst_ip ||
                    (k.src_ip == k.dst_ip && k.src_port > k.dst_port))) {
    std::swap(k.src_ip, k.dst_ip);
    std::swap(k.src_port, k.dst_port);
  }
  std::vector<std::uint8_t> input;
  for (const std::uint32_t ip : {k.src_ip, k.dst_ip})
    for (int shift = 24; shift >= 0; shift -= 8)
      input.push_back(static_cast<std::uint8_t>(ip >> shift));
  for (const std::uint16_t port : {k.src_port, k.dst_port}) {
    input.push_back(static_cast<std::uint8_t>(port >> 8));
    input.push_back(static_cast<std::uint8_t>(port));
  }
  input.push_back(k.proto);

  std::uint32_t window = (std::uint32_t{rss_key[0]} << 24) |
                         (std::uint32_t{rss_key[1]} << 16) |
                         (std::uint32_t{rss_key[2]} << 8) | rss_key[3];
  std::size_t next_bit = 32;
  std::uint32_t result = 0;
  for (const std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) result ^= window;
      const std::uint32_t in =
          (rss_key[next_bit / 8] >> (7 - next_bit % 8)) & 1;
      window = (window << 1) | in;
      ++next_bit;
    }
  }
  return result;
}

TEST(FlowHash, MatchesBitSerialReference) {
  constexpr std::uint64_t kSecondSeed = 0x1234'5678'9abc'def0ULL;
  const stack::FlowHash plain;
  const stack::FlowHash sym(true);
  const stack::FlowHash plain2(false, kSecondSeed);
  const stack::FlowHash sym2(true, kSecondSeed);
  constexpr std::uint64_t kSeed = stack::FlowHash::kDefaultKeySeed;
  Rng rng(0xf10);
  for (int i = 0; i < 20000; ++i) {
    const auto key = make_key(
        static_cast<std::uint32_t>(rng()),
        static_cast<std::uint16_t>(rng.bounded(65536)),
        static_cast<std::uint32_t>(rng()),
        static_cast<std::uint16_t>(rng.bounded(65536)),
        static_cast<std::uint8_t>(rng.bounded(256)));
    ASSERT_EQ(plain(key), reference_toeplitz(key, false, kSeed)) << i;
    ASSERT_EQ(sym(key), reference_toeplitz(key, true, kSeed)) << i;
    ASSERT_EQ(plain2(key), reference_toeplitz(key, false, kSecondSeed)) << i;
    ASSERT_EQ(sym2(key), reference_toeplitz(key, true, kSecondSeed)) << i;
  }
  // Every single-bit input selects exactly one key window; walking them
  // all covers each table column on its own.
  for (int bit = 0; bit < 104; ++bit) {
    std::uint8_t in[13] = {};
    in[bit / 8] = static_cast<std::uint8_t>(0x80 >> (bit % 8));
    const auto key = make_key(
        (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
            (std::uint32_t{in[2]} << 8) | in[3],
        static_cast<std::uint16_t>((in[8] << 8) | in[9]),
        (std::uint32_t{in[4]} << 24) | (std::uint32_t{in[5]} << 16) |
            (std::uint32_t{in[6]} << 8) | in[7],
        static_cast<std::uint16_t>((in[10] << 8) | in[11]), in[12]);
    ASSERT_EQ(plain(key), reference_toeplitz(key, false, kSeed)) << bit;
    ASSERT_EQ(plain2(key), reference_toeplitz(key, false, kSecondSeed))
        << bit;
  }
}

TEST(FlowHash, GoldenValuesPinTheSteering) {
  // Recorded from the bit-serial implementation this table replaced; a
  // change here silently re-steers every flow (shard gates, soak seeds).
  struct Golden {
    stack::FlowKey key;
    std::uint32_t plain, sym, seeded;
  };
  const Golden golden[] = {
      {{0x0a000001u, 0x0a000002u, 9001, 9000, 17},
       0xfb8c7886u, 0xfb8c7886u, 0x9900eaacu},
      {{0x0a000002u, 0x0a000001u, 80, 40000, 6},
       0x8e3e2194u, 0x7e492305u, 0x4df0ee17u},
      {{0xc0a80101u, 0x08080808u, 53124, 53, 17},
       0x4274764bu, 0xe4bc8179u, 0x2e1b5a54u},
      {{0xffffffffu, 0x00000000u, 0xffff, 0, 0xff},
       0x07fb22eau, 0x0e1a5f47u, 0xe9f44394u},
      {{0x01020304u, 0x05060708u, 0x090a, 0x0b0c, 0x0d},
       0x3ff5c9a6u, 0x3ff5c9a6u, 0x3f2b7619u},
  };
  const stack::FlowHash plain;
  const stack::FlowHash sym(true);
  const stack::FlowHash seeded(false, 0x1234'5678'9abc'def0ULL);
  for (const Golden& g : golden) {
    EXPECT_EQ(plain(g.key), g.plain);
    EXPECT_EQ(sym(g.key), g.sym);
    EXPECT_EQ(seeded(g.key), g.seeded);
  }
}

TEST(FlowHash, ClassifyExtractsTheTuple) {
  const wire::MacAddr mac{2, 0, 0, 0, 0, 1};
  const auto flow = make_key(0x0a000001u, 4242, 0x0a000002u, 53);
  const auto frame = make_udp_frame(mac, flow);
  const auto key = stack::FlowHash::classify(frame);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, flow);
}

TEST(FlowHash, ClassifyRejectsNonIp) {
  std::vector<std::uint8_t> arp(60, 0);
  wire::EthHeader eth;
  eth.dst = wire::kBroadcastMac;
  eth.src = {2, 0, 0, 0, 0, 9};
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kArp);
  wire::write_eth(eth, arp);
  EXPECT_FALSE(stack::FlowHash::classify(arp).has_value());
  EXPECT_FALSE(stack::FlowHash::classify({}).has_value());
}

TEST(FlowHash, ClassifyFragmentFallsBackToAddresses) {
  const wire::MacAddr mac{2, 0, 0, 0, 0, 1};
  const auto flow = make_key(0x0a000001u, 4242, 0x0a000002u, 53);
  // A non-first fragment has no transport header; steering must use the
  // address pair only, and do so for every fragment of the datagram.
  const auto frag = make_udp_frame(mac, flow, 18, /*frag_offset=*/3);
  const auto key = stack::FlowHash::classify(frag);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->src_ip, flow.src_ip);
  EXPECT_EQ(key->dst_ip, flow.dst_ip);
  EXPECT_EQ(key->src_port, 0);
  EXPECT_EQ(key->dst_port, 0);
}

TEST(NetDevice, SteersEachFlowToOneQueue) {
  buf::MbufPool pool(512, 128);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  dev.set_rx_queues(4);
  ASSERT_EQ(dev.rx_queue_count(), 4u);

  std::map<std::size_t, std::uint32_t> per_queue;
  for (std::uint32_t f = 0; f < 6; ++f) {
    const auto flow =
        make_key(0x0a000001u + f, 20000 + f, 0x0a00ffffu, 53);
    const auto frame = make_udp_frame(dev.mac(), flow);
    const std::size_t queue = dev.steer(frame);
    ASSERT_LT(queue, 4u);
    for (int copy = 0; copy < 3; ++copy) {
      EXPECT_EQ(dev.steer(frame), queue) << "steering must be stable";
      dev.inject(frame);
      per_queue[queue] += 1;
    }
  }
  std::size_t pending = 0;
  for (const auto& [queue, count] : per_queue) {
    EXPECT_EQ(dev.rx_pending(queue), count);
    pending += count;
  }
  EXPECT_EQ(dev.rx_pending(), pending);

  std::size_t drained = 0;
  while (true) {
    buf::Packet pkt = dev.receive();
    if (pkt.empty()) break;
    ++drained;
  }
  EXPECT_EQ(drained, 18u);
  EXPECT_EQ(dev.rx_pending(), 0u);
}

TEST(NetDevice, ReconfigureResteersBufferedFrames) {
  buf::MbufPool pool(512, 128);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  for (std::uint32_t f = 0; f < 8; ++f) {
    const auto flow = make_key(0x0a000001u + f, 30000 + f, 0x0a00ffffu, 53);
    dev.inject(make_udp_frame(dev.mac(), flow));
  }
  ASSERT_EQ(dev.rx_pending(), 8u);
  dev.set_rx_queues(4);
  EXPECT_EQ(dev.rx_pending(), 8u) << "no frame may be lost on reconfigure";
  dev.set_rx_queues(1);
  EXPECT_EQ(dev.rx_pending(), 8u);
  std::size_t drained = 0;
  while (!dev.receive().empty()) ++drained;
  EXPECT_EQ(drained, 8u);
}

// ---- Driver copy-in: one buffer per frame (m_devget) ---------------------

std::vector<std::uint8_t> packet_bytes(const buf::Packet& pkt) {
  std::vector<std::uint8_t> out(pkt.length());
  EXPECT_TRUE(pkt.copy_out(0, out));
  return out;
}

std::vector<std::uint8_t> patterned_udp_frame(const wire::MacAddr& mac,
                                              std::size_t frame_len) {
  const auto flow = make_key(0x0a000001u, 4000, 0x0a000002u, 9000);
  auto frame = make_udp_frame(
      mac, flow,
      frame_len - wire::kEthHeaderLen - wire::kIpMinHeaderLen -
          wire::kUdpHeaderLen);
  for (std::size_t i = 42; i < frame.size(); ++i)
    frame[i] = static_cast<std::uint8_t>(i * 7);
  return frame;
}

TEST(DeviceCopyIn, SmallFrameIsOneMbufLargeFrameOneCluster) {
  buf::MbufPool pool(64, 8);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  const std::uint32_t internal = [&] {
    buf::Mbuf* m = pool.alloc(true);
    const std::uint32_t size = m->buffer_size();
    pool.free_one(m);
    return size;
  }();
  struct Case {
    std::size_t len;
    bool cluster;
  };
  for (const Case c : {Case{106, false}, Case{internal, false},
                       Case{internal + 1, true}, Case{1514, true},
                       Case{buf::kClusterSize, true}}) {
    const auto frame = patterned_udp_frame(dev.mac(), c.len);
    dev.inject(frame);
    const buf::PoolStats before = pool.stats();
    buf::Packet pkt = dev.receive();
    ASSERT_FALSE(pkt.empty()) << c.len;
    EXPECT_EQ(pkt.chain_count(), 1u) << c.len;
    EXPECT_EQ(pkt.head()->has_cluster(), c.cluster) << c.len;
    EXPECT_EQ(pool.stats().mbuf_allocs - before.mbuf_allocs, 1u) << c.len;
    EXPECT_EQ(pool.stats().cluster_allocs - before.cluster_allocs,
              c.cluster ? 1u : 0u)
        << c.len;
    EXPECT_EQ(pkt.head()->pkt_len(), c.len);
    EXPECT_EQ(packet_bytes(pkt), frame) << c.len;
  }
  EXPECT_EQ(dev.stats().rx_frames, 5u);
}

TEST(DeviceCopyIn, DryClustersLeaveTheFrameInTheRing) {
  buf::MbufPool pool(64, 2);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  std::vector<buf::Mbuf*> held;
  for (int i = 0; i < 2; ++i) {
    held.push_back(pool.alloc());
    ASSERT_TRUE(pool.add_cluster(*held.back()));
  }
  const auto big = patterned_udp_frame(dev.mac(), 1514);
  const auto small = patterned_udp_frame(dev.mac(), 106);
  dev.inject(big);
  dev.inject(small);
  const std::size_t outstanding = pool.stats().mbufs_outstanding();
  EXPECT_TRUE(dev.receive().empty());
  EXPECT_EQ(dev.rx_pending(), 2u) << "the frame must stay in device memory";
  EXPECT_EQ(dev.stats().rx_frames, 0u);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), outstanding)
      << "the mbuf taken for the frame must go back";
  EXPECT_GT(pool.stats().alloc_failures, 0u);

  for (buf::Mbuf* m : held) pool.free_one(m);
  buf::Packet first = dev.receive();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(packet_bytes(first), big) << "ring order is kept";
  buf::Packet second = dev.receive();
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(packet_bytes(second), small);
  EXPECT_EQ(dev.rx_pending(), 0u);
}

TEST(DeviceCopyIn, FrameLongerThanAClusterTakesTheFallback) {
  buf::MbufPool pool(64, 8);
  stack::NetDevice dev("rx", {2, 0, 0, 0, 0, 1}, pool);
  std::vector<std::uint8_t> jumbo(buf::kClusterSize + 900);
  for (std::size_t i = 0; i < jumbo.size(); ++i)
    jumbo[i] = static_cast<std::uint8_t>(i * 13 + 5);
  dev.inject(jumbo);
  buf::Packet pkt = dev.receive();
  ASSERT_FALSE(pkt.empty());
  EXPECT_GT(pkt.chain_count(), 1u);
  EXPECT_EQ(pkt.head()->pkt_len(), jumbo.size());
  EXPECT_EQ(packet_bytes(pkt), jumbo);
}

TEST(WorkerPool, ResultsLandInJobIndexedSlots) {
  std::vector<std::uint64_t> serial(64, 0);
  std::vector<std::uint64_t> parallel(64, 0);
  par::WorkerPool one(1);
  one.run(serial.size(), [&](std::size_t job, par::WorkerContext&) {
    serial[job] = job * job + 1;
  });
  par::WorkerPool four(4);
  four.run(parallel.size(), [&](std::size_t job, par::WorkerContext&) {
    parallel[job] = job * job + 1;
  });
  EXPECT_EQ(serial, parallel);
}

TEST(WorkerPool, MergesWorkerRegistriesDeterministically) {
  auto run_with = [](std::size_t workers) {
    par::WorkerPool pool(workers);
    pool.run(32, [](std::size_t job, par::WorkerContext& ctx) {
      ctx.registry->counter("par.t.jobs").add(1);
      ctx.registry->histogram("par.t.cost_sec")
          .add(1e-6 * static_cast<double>(job + 1));
    });
    obs::Registry reg;
    pool.publish(reg);
    pool.merge_registries(reg);
    return reg.snapshot();
  };
  const obs::Snapshot serial = run_with(1);
  const obs::Snapshot threaded = run_with(4);
  EXPECT_EQ(serial.value("par.t.jobs"), 32.0);
  EXPECT_EQ(threaded.value("par.t.jobs"), 32.0);
  const auto* sh = serial.find("par.t.cost_sec");
  const auto* th = threaded.find("par.t.cost_sec");
  ASSERT_NE(sh, nullptr);
  ASSERT_NE(th, nullptr);
  EXPECT_EQ(sh->value, th->value);
  EXPECT_DOUBLE_EQ(sh->max, th->max);
  EXPECT_EQ(threaded.value("par.pool.jobs"), 32.0);
}

TEST(WorkerPool, PropagatesTheFirstException) {
  par::WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(16,
               [](std::size_t job, par::WorkerContext&) {
                 if (job == 7) throw std::runtime_error("job 7 failed");
               }),
      std::runtime_error);
}

/// End to end: a TCP connection through a Host whose device runs two RX
/// queues. The handshake and data segments of one flow must all land on
/// the same shard, so the stack behaves exactly as with one queue.
TEST(HostMultiQueue, TcpDataFlowsThroughShardedReceive) {
  stack::HostConfig ca;
  ca.name = "tx";
  ca.mac = {2, 0, 0, 0, 0, 1};
  ca.ip = wire::ip_from_parts(10, 0, 0, 1);
  stack::HostConfig cb;
  cb.name = "rx";
  cb.mac = {2, 0, 0, 0, 0, 2};
  cb.ip = wire::ip_from_parts(10, 0, 0, 2);
  cb.mode = core::SchedMode::kLdlp;
  cb.rx_queues = 2;
  stack::Host tx(ca);
  stack::Host rx(cb);
  stack::NetDevice::connect(tx.device(), rx.device());
  ASSERT_EQ(rx.device().rx_queue_count(), 2u);

  (void)rx.tcp().listen(80);
  stack::PcbId accepted = stack::kNoPcb;
  rx.tcp().set_accept_hook([&](stack::PcbId id) { accepted = id; });
  const stack::PcbId conn = tx.tcp().connect(cb.ip, 80);
  for (int i = 0; i < 8; ++i) {
    tx.pump();
    rx.pump();
  }
  ASSERT_EQ(tx.tcp().state(conn), stack::TcpState::kEstablished);
  ASSERT_NE(accepted, stack::kNoPcb);

  const std::vector<std::uint8_t> payload(256, 0x7e);
  ASSERT_TRUE(tx.tcp().send(conn, payload));
  for (int i = 0; i < 4; ++i) {
    rx.pump();
    tx.pump();
  }
  std::vector<std::uint8_t> sink(payload.size());
  const stack::SocketId socket = rx.tcp().socket_of(accepted);
  EXPECT_EQ(rx.sockets().read(socket, sink), payload.size());
  EXPECT_EQ(sink, payload);
}

}  // namespace

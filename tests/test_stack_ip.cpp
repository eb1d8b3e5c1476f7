// Integration-style tests of the lower stack: device wire, ARP resolution,
// Ethernet demux, IP validation/fragmentation/reassembly, ICMP echo, UDP.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stack/host.hpp"
#include "stack/reassembly.hpp"
#include "wire/checksum.hpp"
#include "wire/udp.hpp"

namespace ldlp::stack {
namespace {

using wire::ip_from_parts;

struct Pair {
  HostConfig ca;
  HostConfig cb;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;

  explicit Pair(core::SchedMode mode = core::SchedMode::kConventional,
                std::uint16_t mtu = 1500) {
    ca.name = "a";
    ca.mac = {2, 0, 0, 0, 0, 1};
    ca.ip = ip_from_parts(10, 0, 0, 1);
    ca.mode = mode;
    ca.mtu = mtu;
    cb.name = "b";
    cb.mac = {2, 0, 0, 0, 0, 2};
    cb.ip = ip_from_parts(10, 0, 0, 2);
    cb.mode = mode;
    cb.mtu = mtu;
    a = std::make_unique<Host>(ca);
    b = std::make_unique<Host>(cb);
    NetDevice::connect(a->device(), b->device());
  }

  void settle(int rounds = 10) {
    for (int i = 0; i < rounds; ++i) {
      a->pump();
      b->pump();
    }
  }
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Device, WireCopiesFrames) {
  Pair net;
  buf::Packet frame = buf::Packet::make(net.a->pool());
  std::vector<std::uint8_t> payload(100, 0x5a);
  ASSERT_TRUE(frame.append(payload));
  std::uint8_t* front = frame.prepend(wire::kEthHeaderLen);
  ASSERT_NE(front, nullptr);
  wire::EthHeader eth;
  eth.dst = net.cb.mac;
  eth.src = net.ca.mac;
  eth.ether_type = 0x0800;
  wire::write_eth(eth, {front, wire::kEthHeaderLen});
  ASSERT_TRUE(net.a->device().transmit(std::move(frame)));
  EXPECT_EQ(net.b->device().rx_pending(), 1u);
  buf::Packet got = net.b->device().receive();
  ASSERT_TRUE(got);
  EXPECT_EQ(got.length(), 114u);
  EXPECT_EQ(net.b->device().stats().rx_frames, 1u);
}

TEST(Device, OversizedFrameDropped) {
  Pair net;
  std::vector<std::uint8_t> huge(2000, 1);
  buf::Packet frame = buf::Packet::from_bytes(net.a->pool(), huge);
  EXPECT_FALSE(net.a->device().transmit(std::move(frame)));
  EXPECT_EQ(net.a->device().stats().tx_drops, 1u);
}

TEST(Device, LossInjectionDrops) {
  Pair net;
  net.b->device().set_loss(1.0);
  buf::Packet frame =
      buf::Packet::from_bytes(net.a->pool(), std::vector<std::uint8_t>(64, 0));
  std::uint8_t* front = frame.prepend(0);
  (void)front;
  (void)net.a->device().transmit(std::move(frame));
  EXPECT_EQ(net.b->device().rx_pending(), 0u);
  EXPECT_EQ(net.b->device().stats().rx_drops, 1u);
}

TEST(Udp, SendReceiveWithArpResolution) {
  Pair net;
  const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b->udp().bind(9000, rx_sock));

  const auto payload = bytes_of("hello, small message");
  // First send triggers ARP: the datagram is parked, a request goes out,
  // the reply returns, and the parked datagram is released.
  net.a->udp().send(9001, net.cb.ip, 9000, payload);
  net.settle();

  ASSERT_EQ(net.b->sockets().pending_datagrams(rx_sock), 1u);
  const auto dgram = net.b->sockets().read_datagram(rx_sock);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, payload);
  EXPECT_EQ(dgram->from_ip, net.ca.ip);
  EXPECT_EQ(dgram->from_port, 9001);
  EXPECT_GT(net.a->eth().arp().entries(), 0u);

  // Second send goes straight through the warm ARP cache.
  net.a->udp().send(9001, net.cb.ip, 9000, payload);
  net.settle(2);
  EXPECT_EQ(net.b->sockets().pending_datagrams(rx_sock), 1u);
}

TEST(Udp, UnboundPortCounted) {
  Pair net;
  net.a->udp().send(1, net.cb.ip, 4242, bytes_of("x"));
  net.settle();
  EXPECT_EQ(net.b->udp().udp_stats().rx_no_port, 1u);
}

TEST(Udp, BindConflictRefused) {
  Pair net;
  const SocketId s1 = net.b->sockets().create(SocketKind::kDatagram);
  const SocketId s2 = net.b->sockets().create(SocketKind::kDatagram);
  EXPECT_TRUE(net.b->udp().bind(5000, s1));
  EXPECT_FALSE(net.b->udp().bind(5000, s2));
  net.b->udp().unbind(5000);
  EXPECT_TRUE(net.b->udp().bind(5000, s2));
}

TEST(Ip, FragmentationAndReassembly) {
  Pair net(core::SchedMode::kConventional, 600);  // small MTU forces frags
  const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b->udp().bind(7000, rx_sock));

  std::vector<std::uint8_t> big(2500);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 13);
  net.a->udp().send(7001, net.cb.ip, 7000, big);
  net.settle();

  EXPECT_GT(net.a->ip().ip_stats().tx_fragmented, 0u);
  EXPECT_GT(net.b->ip().ip_stats().rx_fragments, 0u);
  EXPECT_EQ(net.b->ip().ip_stats().rx_reassembled, 1u);
  const auto dgram = net.b->sockets().read_datagram(rx_sock);
  ASSERT_TRUE(dgram.has_value());
  EXPECT_EQ(dgram->payload, big);
}

TEST(Ip, IcmpEchoReplied) {
  Pair net;
  // Build an ICMP echo request by hand and push it through A's IP output.
  std::vector<std::uint8_t> icmp(16, 0);
  icmp[0] = 8;  // echo request
  icmp[4] = 0x12;
  icmp[5] = 0x34;  // identifier
  const std::uint16_t sum = wire::cksum_simple(icmp);
  icmp[2] = static_cast<std::uint8_t>(sum >> 8);
  icmp[3] = static_cast<std::uint8_t>(sum);
  buf::Packet pkt = buf::Packet::from_bytes(net.a->pool(), icmp);
  net.a->ip().output(std::move(pkt), net.cb.ip, wire::IpProto::kIcmp);
  net.settle();
  EXPECT_EQ(net.b->ip().ip_stats().rx_icmp_echo, 1u);
  // A receives the reply (delivered to ICMP handler; not an echo request,
  // so consumed silently — verify it arrived at IP intact).
  EXPECT_GE(net.a->ip().ip_stats().rx, 1u);
  EXPECT_EQ(net.a->ip().ip_stats().rx_bad, 0u);
}

TEST(Ip, ForeignDestinationIgnored) {
  Pair net;
  const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b->udp().bind(7000, rx_sock));
  // Prime the ARP cache so the bogus-destination datagram actually goes
  // out on the wire toward B's MAC.
  net.a->udp().send(1, net.cb.ip, 7000, bytes_of("warm"));
  net.settle();
  net.a->eth().arp().insert(ip_from_parts(10, 0, 0, 77), net.cb.mac);
  net.a->udp().send(1, ip_from_parts(10, 0, 0, 77), 7000, bytes_of("lost"));
  net.settle();
  EXPECT_EQ(net.b->ip().ip_stats().rx_not_mine, 1u);
  EXPECT_EQ(net.b->sockets().pending_datagrams(rx_sock), 1u);  // only "warm"
}

TEST(Reassembly, OutOfOrderFragmentsComplete) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table;
  wire::Ipv4Header base;
  base.src = 1;
  base.dst = 2;
  base.ident = 42;
  base.protocol = 17;

  auto frag = [&](std::uint16_t offset8, std::uint32_t len, bool more) {
    wire::Ipv4Header h = base;
    h.frag_offset = offset8;
    h.more_fragments = more;
    std::vector<std::uint8_t> payload(len);
    for (std::uint32_t i = 0; i < len; ++i)
      payload[i] = static_cast<std::uint8_t>(offset8 * 8 + i);
    return std::pair{h, buf::Packet::from_bytes(pool, payload)};
  };

  // Deliver middle, last, first.
  auto [h2, p2] = frag(100, 800, true);
  EXPECT_FALSE(table.offer(h2, std::move(p2), 0.0).has_value());
  auto [h3, p3] = frag(200, 100, false);
  EXPECT_FALSE(table.offer(h3, std::move(p3), 0.0).has_value());
  auto [h1, p1] = frag(0, 800, true);
  auto whole = table.offer(h1, std::move(p1), 0.0);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->length(), 1700u);
  std::uint8_t probe[4];
  ASSERT_TRUE(whole->copy_out(800, probe));
  EXPECT_EQ(probe[0], static_cast<std::uint8_t>(800));
  EXPECT_EQ(table.pending(), 0u);
}

TEST(Reassembly, DuplicateFragmentIgnored) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table;
  wire::Ipv4Header h;
  h.src = 1;
  h.dst = 2;
  h.ident = 7;
  h.protocol = 17;
  h.more_fragments = true;
  EXPECT_FALSE(table
                   .offer(h, buf::Packet::from_bytes(
                                 pool, std::vector<std::uint8_t>(8, 1)),
                          0.0)
                   .has_value());
  EXPECT_FALSE(table
                   .offer(h, buf::Packet::from_bytes(
                                 pool, std::vector<std::uint8_t>(8, 2)),
                          0.0)
                   .has_value());
  EXPECT_EQ(table.stats().fragments_in, 2u);
  EXPECT_EQ(table.pending(), 1u);
}

TEST(Reassembly, TimeoutExpiresStaleDatagrams) {
  buf::MbufPool pool(64, 16);
  ReassemblyTable table(64, 30.0);
  wire::Ipv4Header h;
  h.ident = 9;
  h.protocol = 17;
  h.more_fragments = true;
  (void)table.offer(
      h, buf::Packet::from_bytes(pool, std::vector<std::uint8_t>(8, 0)), 0.0);
  table.expire(10.0);
  EXPECT_EQ(table.pending(), 1u);
  table.expire(31.0);
  EXPECT_EQ(table.pending(), 0u);
  EXPECT_EQ(table.stats().timeouts, 1u);
}

TEST(Arp, RequestOnlyOncePerDestination) {
  Pair net;
  // Two sends before any reply: only one ARP request should leave.
  net.a->udp().send(1, net.cb.ip, 5555, bytes_of("one"));
  net.a->udp().send(1, net.cb.ip, 5555, bytes_of("two"));
  EXPECT_EQ(net.a->device().stats().tx_frames, 1u);  // single ARP request
  net.settle();
  // Both datagrams eventually delivered (parked then released).
  EXPECT_EQ(net.b->udp().udp_stats().rx, 2u);
}

TEST(Ip, RouteSelectionPicksGateway) {
  Pair net;
  // A "remote" destination routed via B as gateway: the frame's IP dst
  // stays remote while the Ethernet next hop resolves to B.
  const std::uint32_t remote = ip_from_parts(192, 168, 7, 7);
  net.a->ip().add_route(Route{ip_from_parts(192, 168, 0, 0),
                              ip_from_parts(255, 255, 0, 0), net.cb.ip});
  net.a->udp().send(1, remote, 7000, bytes_of("via-gw"));
  net.settle();
  // B receives the frame (ARP resolved to B) but the datagram is not for
  // B's IP, so IP counts it as not-mine — proving the gateway path.
  EXPECT_EQ(net.b->ip().ip_stats().rx_not_mine, 1u);
}

TEST(Ip, DefaultRouteFallsBackToOnLink) {
  Pair net;
  // No matching route: next hop is the destination itself (on-link).
  const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b->udp().bind(7000, rx_sock));
  net.a->ip().add_route(Route{ip_from_parts(172, 16, 0, 0),
                              ip_from_parts(255, 255, 0, 0),
                              ip_from_parts(172, 16, 0, 1)});
  net.a->udp().send(1, net.cb.ip, 7000, bytes_of("direct"));
  net.settle();
  EXPECT_EQ(net.b->sockets().pending_datagrams(rx_sock), 1u);
}

TEST(Udp, CorruptChecksumDropped) {
  Pair net;
  const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
  ASSERT_TRUE(net.b->udp().bind(7000, rx_sock));

  // Hand-craft a full Ethernet+IP+UDP frame whose UDP checksum is wrong
  // and inject it straight into B's device RX ring.
  std::vector<std::uint8_t> frame(wire::kEthHeaderLen +
                                  wire::kIpMinHeaderLen +
                                  wire::kUdpHeaderLen + 4);
  wire::EthHeader eth;
  eth.dst = net.cb.mac;
  eth.src = net.ca.mac;
  eth.ether_type = static_cast<std::uint16_t>(wire::EtherType::kIpv4);
  wire::write_eth(eth, frame);

  wire::Ipv4Header ip;
  ip.total_len = wire::kIpMinHeaderLen + wire::kUdpHeaderLen + 4;
  ip.protocol = static_cast<std::uint8_t>(wire::IpProto::kUdp);
  ip.src = net.ca.ip;
  ip.dst = net.cb.ip;
  wire::write_ipv4(ip, {frame.data() + wire::kEthHeaderLen,
                        wire::kIpMinHeaderLen});

  wire::UdpHeader udp{1, 7000, wire::kUdpHeaderLen + 4, 0xdead};  // bogus sum
  wire::write_udp(udp, {frame.data() + wire::kEthHeaderLen +
                            wire::kIpMinHeaderLen,
                        wire::kUdpHeaderLen});

  net.b->device().inject(frame);
  net.settle(2);
  EXPECT_EQ(net.b->sockets().pending_datagrams(rx_sock), 0u);
  EXPECT_EQ(net.b->udp().udp_stats().rx_bad, 1u);
}

TEST(Sockets, ReceiveBufferOverflowCounted) {
  Pair net;
  const SocketId rx_sock =
      net.b->sockets().create(SocketKind::kDatagram, 64);  // tiny buffer
  ASSERT_TRUE(net.b->udp().bind(7000, rx_sock));
  for (int i = 0; i < 8; ++i)
    net.a->udp().send(1, net.cb.ip, 7000, std::vector<std::uint8_t>(32, i));
  net.settle();
  EXPECT_LE(net.b->sockets().pending_datagrams(rx_sock), 2u);
  EXPECT_GT(net.b->sockets().socket_stats(rx_sock).overflows, 0u);
}

TEST(Sockets, DatagramHiwatCountsReadsAndCrash) {
  SocketLayer sockets;
  const SocketId id = sockets.create(SocketKind::kDatagram, 100);
  const auto deliver = [&](std::size_t n) {
    Datagram d;
    d.payload.assign(n, 0x11);
    sockets.deliver_datagram(id, std::move(d));
  };
  const auto overflows = [&] { return sockets.socket_stats(id).overflows; };
  deliver(40);
  deliver(40);
  ASSERT_TRUE(sockets.read_datagram(id).has_value());  // 40 queued
  deliver(30);
  deliver(30);  // exactly hiwat: accepted
  EXPECT_EQ(overflows(), 0u);
  deliver(1);  // one past hiwat: refused
  EXPECT_EQ(overflows(), 1u);
  EXPECT_EQ(sockets.pending_datagrams(id), 3u);
  ASSERT_TRUE(sockets.read_datagram(id).has_value());  // 60 queued
  deliver(40);
  EXPECT_EQ(overflows(), 1u);
  sockets.crash();
  deliver(100);
  EXPECT_EQ(overflows(), 1u);
  EXPECT_EQ(sockets.pending_datagrams(id), 1u);
}

TEST(Scheduling, LdlpAndConventionalDeliverSameData) {
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    Pair net(mode);
    const SocketId rx_sock = net.b->sockets().create(SocketKind::kDatagram);
    ASSERT_TRUE(net.b->udp().bind(8080, rx_sock));
    // Warm the ARP cache first (a cold cache parks at most a handful of
    // packets per unresolved destination, as in BSD).
    net.a->udp().send(8081, net.cb.ip, 8080, bytes_of("warm"));
    net.settle();
    ASSERT_TRUE(net.b->sockets().read_datagram(rx_sock).has_value());
    for (int i = 0; i < 20; ++i)
      net.a->udp().send(8081, net.cb.ip, 8080, bytes_of(std::to_string(i)));
    net.settle();
    EXPECT_EQ(net.b->sockets().pending_datagrams(rx_sock), 20u);
    // In-order delivery either way.
    for (int i = 0; i < 20; ++i) {
      const auto dgram = net.b->sockets().read_datagram(rx_sock);
      ASSERT_TRUE(dgram.has_value());
      EXPECT_EQ(dgram->payload, bytes_of(std::to_string(i)));
    }
  }
}

}  // namespace
}  // namespace ldlp::stack

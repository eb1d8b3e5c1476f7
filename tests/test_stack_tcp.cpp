// TCP behaviour tests: handshake, data transfer, header-prediction fast
// path, delayed ACKs, loss recovery, out-of-order buffering, orderly and
// abortive close, PCB demux (single-entry cache over the 4-tuple table),
// PCB id allocation, ephemeral ports, copy-free in-order delivery and the
// stream socket buffer it lands in.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "stack/host.hpp"
#include "wire/tcp.hpp"

namespace ldlp::stack {
namespace {

using wire::ip_from_parts;

const std::uint32_t kServerIp = ip_from_parts(10, 0, 0, 2);

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

struct TcpPair {
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> server;
  PcbId conn = kNoPcb;
  PcbId accepted = kNoPcb;

  explicit TcpPair(core::SchedMode mode = core::SchedMode::kConventional,
                   TcpConfig tcp = {}) {
    HostConfig cc;
    cc.name = "client";
    cc.mac = {2, 0, 0, 0, 0, 1};
    cc.ip = ip_from_parts(10, 0, 0, 1);
    cc.mode = mode;
    cc.tcp = tcp;
    HostConfig cs = cc;
    cs.name = "server";
    cs.mac = {2, 0, 0, 0, 0, 2};
    cs.ip = ip_from_parts(10, 0, 0, 2);
    client = std::make_unique<Host>(cc);
    server = std::make_unique<Host>(cs);
    NetDevice::connect(client->device(), server->device());
    server->tcp().set_accept_hook([this](PcbId id) { accepted = id; });
  }

  void settle(int rounds = 12) {
    for (int i = 0; i < rounds; ++i) {
      client->pump();
      server->pump();
    }
  }

  /// Advance both clocks and run timers + pumps.
  void tick(double dt, int rounds = 4) {
    client->advance(dt);
    server->advance(dt);
    settle(rounds);
  }

  bool establish(std::uint16_t port = 80) {
    (void)server->tcp().listen(port);
    conn = client->tcp().connect(ip_from_parts(10, 0, 0, 2), port);
    settle();
    return client->tcp().state(conn) == TcpState::kEstablished &&
           accepted != kNoPcb &&
           server->tcp().state(accepted) == TcpState::kEstablished;
  }

  /// Active open from exactly local port `port`: turn the client's
  /// ephemeral port counter round with connects the server never hears
  /// (each closed again from SYN_SENT), then open for real.
  PcbId connect_from(std::uint16_t port, std::uint16_t dst_port = 80) {
    const std::uint16_t before = port == 49152 ? 65535 : port - 1;
    server->device().set_loss(1.0);
    for (;;) {
      const PcbId id = client->tcp().connect(kServerIp, dst_port);
      const std::uint16_t got = client->tcp().pcb_view(id).local_port;
      client->tcp().close(id);
      if (got == before) break;
    }
    server->device().set_loss(0.0);
    return client->tcp().connect(kServerIp, dst_port);
  }

  /// A few bytes each way over (conn, accepted) reach those PCBs' sockets.
  bool exchange() {
    const auto ping = bytes_of("ping");
    const auto pong = bytes_of("pong!");
    if (!client->tcp().send(conn, ping) || !server->tcp().send(accepted, pong))
      return false;
    settle();
    std::vector<std::uint8_t> at_server(64);
    std::vector<std::uint8_t> at_client(64);
    at_server.resize(
        server->sockets().read(server->tcp().socket_of(accepted), at_server));
    at_client.resize(
        client->sockets().read(client->tcp().socket_of(conn), at_client));
    return at_server == ping && at_client == pong;
  }

  std::vector<std::uint8_t> drain_server_socket(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    const std::size_t got =
        server->sockets().read(server->tcp().socket_of(accepted), out);
    out.resize(got);
    return out;
  }
};


TEST(TcpHandshake, ThreeWayEstablishes) {
  TcpPair net;
  EXPECT_TRUE(net.establish());
  EXPECT_EQ(net.client->tcp().tcp_stats().conns_established, 1u);
  EXPECT_EQ(net.server->tcp().tcp_stats().conns_established, 1u);
}

TEST(TcpHandshake, SynToClosedPortGetsRst) {
  TcpPair net;
  const PcbId conn = net.client->tcp().connect(ip_from_parts(10, 0, 0, 2), 81);
  net.settle();
  EXPECT_EQ(net.client->tcp().state(conn), TcpState::kClosed);
  EXPECT_EQ(net.server->tcp().tcp_stats().rsts_sent, 1u);
}

TEST(TcpHandshake, MssNegotiatedDownward) {
  TcpConfig small;
  small.mss = 512;
  TcpPair net(core::SchedMode::kConventional, small);
  ASSERT_TRUE(net.establish());
  // Send more than one MSS; every segment on the wire must respect it.
  std::vector<std::uint8_t> data(2000, 0x5c);
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(4000), data);
  EXPECT_GE(net.client->tcp().pcb_stats(net.conn).segs_out, 4u);
}

TEST(TcpData, SimpleTransfer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const auto msg = bytes_of("the quick brown fox");
  ASSERT_TRUE(net.client->tcp().send(net.conn, msg));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(100), msg);
}

TEST(TcpData, BidirectionalTransfer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  ASSERT_TRUE(net.client->tcp().send(net.conn, bytes_of("ping")));
  net.settle();
  ASSERT_TRUE(net.server->tcp().send(net.accepted, bytes_of("pong")));
  net.settle();
  EXPECT_EQ(net.drain_server_socket(10), bytes_of("ping"));
  std::vector<std::uint8_t> out(10);
  const std::size_t got = net.client->sockets().read(
      net.client->tcp().socket_of(net.conn), out);
  out.resize(got);
  EXPECT_EQ(out, bytes_of("pong"));
}

TEST(TcpData, LargeTransferIsByteExact) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  std::vector<std::uint8_t> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  // Send in chunks, draining as we go so the receive window keeps moving.
  std::vector<std::uint8_t> received;
  std::size_t sent = 0;
  for (int round = 0; round < 100 && received.size() < data.size(); ++round) {
    if (sent < data.size()) {
      const std::size_t take = std::min<std::size_t>(4000, data.size() - sent);
      if (net.client->tcp().send(
              net.conn, {data.data() + sent, take}))
        sent += take;
    }
    net.tick(0.01, 3);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpData, FastPathDominatesBulkReceive) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        net.client->tcp().send(net.conn, std::vector<std::uint8_t>(512, i)));
    net.settle(3);
    (void)net.drain_server_socket(2000);
  }
  const auto& stats = net.server->tcp().pcb_stats(net.accepted);
  EXPECT_GE(stats.fast_path, 15u);
  EXPECT_GT(stats.fast_path, stats.slow_path);
}

TEST(TcpData, AckEverySecondSegment) {
  TcpConfig cfg;
  cfg.delack_every = 2;
  TcpPair net(core::SchedMode::kConventional, cfg);
  ASSERT_TRUE(net.establish());
  const auto& before = net.server->tcp().pcb_stats(net.accepted);
  const auto acks_before = before.acks_sent;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        net.client->tcp().send(net.conn, std::vector<std::uint8_t>(100, i)));
    net.settle(2);
  }
  const auto acks_after = net.server->tcp().pcb_stats(net.accepted).acks_sent;
  // 8 data segments -> ~4 ACKs (every second one).
  EXPECT_GE(acks_after - acks_before, 3u);
  EXPECT_LE(acks_after - acks_before, 5u);
}

TEST(TcpData, SingleEntryPcbCacheHits) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        net.client->tcp().send(net.conn, std::vector<std::uint8_t>(64, i)));
    net.settle(2);
  }
  const auto& stats = net.server->tcp().tcp_stats();
  EXPECT_GT(stats.pcb_cache_hits, stats.pcb_cache_misses);
}

TEST(TcpLoss, RetransmissionRecovers) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  // Drop everything the server hears for a while.
  net.server->device().set_loss(1.0, 7);
  ASSERT_TRUE(net.client->tcp().send(net.conn, bytes_of("lost-once")));
  net.settle();
  EXPECT_TRUE(net.drain_server_socket(100).empty());
  // Heal the wire; the retransmit timer resends.
  net.server->device().set_loss(0.0);
  for (int i = 0; i < 10; ++i) net.tick(0.3);
  EXPECT_EQ(net.drain_server_socket(100), bytes_of("lost-once"));
  EXPECT_GE(net.client->tcp().pcb_stats(net.conn).retransmits, 1u);
}

TEST(TcpLoss, LossyLinkEventuallyDeliversEverything) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server->device().set_loss(0.3, 11);
  net.client->device().set_loss(0.3, 13);
  std::vector<std::uint8_t> data(4000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 400 && received.size() < data.size(); ++round) {
    net.tick(0.25, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpLoss, ReorderedSegmentsUseOooBuffer) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server->device().set_reorder(0.5, 23);
  std::vector<std::uint8_t> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 5 + 1);
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 200 && received.size() < data.size(); ++round) {
    net.tick(0.05, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
  EXPECT_GT(net.server->tcp().pcb_stats(net.accepted).ooo_buffered, 0u);
}

TEST(TcpLoss, ReorderAndLossTogether) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server->device().set_reorder(0.3, 29);
  net.server->device().set_loss(0.15, 31);
  std::vector<std::uint8_t> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i ^ 0x55);
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  std::vector<std::uint8_t> received;
  for (int round = 0; round < 400 && received.size() < data.size(); ++round) {
    net.tick(0.2, 2);
    const auto chunk = net.drain_server_socket(8000);
    received.insert(received.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received, data);
}

TEST(TcpClose, OrderlyFinSequence) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client->tcp().close(net.conn);
  net.settle();
  EXPECT_EQ(net.server->tcp().state(net.accepted), TcpState::kCloseWait);
  net.server->tcp().close(net.accepted);
  net.settle();
  EXPECT_EQ(net.server->tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_EQ(net.client->tcp().state(net.conn), TcpState::kTimeWait);
  net.tick(2.0);  // 2MSL (shortened) expires
  EXPECT_EQ(net.client->tcp().state(net.conn), TcpState::kClosed);
}

TEST(TcpClose, CloseFlushesQueuedData) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  ASSERT_TRUE(net.client->tcp().send(net.conn, bytes_of("final words")));
  net.client->tcp().close(net.conn);
  net.settle();
  EXPECT_EQ(net.drain_server_socket(100), bytes_of("final words"));
  EXPECT_EQ(net.server->tcp().state(net.accepted), TcpState::kCloseWait);
}

TEST(TcpClose, AbortSendsRst) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client->tcp().abort(net.conn);
  net.settle();
  EXPECT_EQ(net.client->tcp().state(net.conn), TcpState::kClosed);
  EXPECT_EQ(net.server->tcp().state(net.accepted), TcpState::kClosed);
  EXPECT_GE(net.server->tcp().tcp_stats().conns_reset, 1u);
}

TEST(TcpClose, SendAfterCloseRefused) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.client->tcp().close(net.conn);
  EXPECT_FALSE(net.client->tcp().send(net.conn, bytes_of("late")));
}

TEST(TcpScheduling, LdlpDeliversIdenticalStream) {
  std::vector<std::uint8_t> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 3);
  for (const auto mode :
       {core::SchedMode::kConventional, core::SchedMode::kLdlp}) {
    TcpPair net(mode);
    ASSERT_TRUE(net.establish());
    ASSERT_TRUE(net.client->tcp().send(net.conn, data));
    std::vector<std::uint8_t> received;
    for (int round = 0; round < 60 && received.size() < data.size(); ++round) {
      net.tick(0.01, 3);
      const auto chunk = net.drain_server_socket(8000);
      received.insert(received.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(received, data) << "mode=" << static_cast<int>(mode);
  }
}

TEST(TcpScheduling, LdlpBatchesBackloggedSegments) {
  TcpPair net(core::SchedMode::kLdlp);
  ASSERT_TRUE(net.establish());
  net.server->eth().reset_stats();  // discard per-frame handshake batches
  // Queue several segments on the wire before the server pumps once.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        net.client->tcp().send(net.conn, std::vector<std::uint8_t>(200, i)));
    net.client->pump();
  }
  EXPECT_GE(net.server->device().rx_pending(), 6u);
  net.server->pump();
  // All six data segments traversed the stack in one blocked pass.
  EXPECT_EQ(net.drain_server_socket(4000).size(), 1200u);
  const auto& eth_stats = net.server->eth().stats();
  EXPECT_GE(eth_stats.mean_batch(), 5.0);
}

TEST(TcpPools, NoMbufLeakAcrossSession) {
  std::uint64_t outstanding = 0;
  {
    TcpPair net;
    ASSERT_TRUE(net.establish());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(net.client->tcp().send(net.conn,
                                         std::vector<std::uint8_t>(700, i)));
      net.settle(3);
      (void)net.drain_server_socket(8000);
    }
    net.client->tcp().close(net.conn);
    net.server->tcp().close(net.accepted);
    net.tick(2.0);
    outstanding = net.client->pool().stats().mbufs_outstanding() +
                  net.server->pool().stats().mbufs_outstanding();
  }
  EXPECT_EQ(outstanding, 0u);
}

// ---- Copy-free in-order delivery ----------------------------------------

TEST(TcpDelivery, InOrderSegmentDeliveredWithPoolExhausted) {
  // In-order data travels up in the received chain itself, so an empty
  // pool cannot turn an arrived segment into a loss.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::vector<std::uint8_t> data(32, 0x5a);  // frame fits one mbuf
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  net.client->pump();
  ASSERT_EQ(net.server->device().rx_pending(), 1u);
  // Leave the server exactly the mbuf its device pulls the frame into.
  buf::MbufPool& pool = net.server->pool();
  std::vector<buf::Mbuf*> held;
  while (pool.mbufs_free() > 1) held.push_back(pool.alloc());
  const auto rcv_nxt = net.server->tcp().pcb_view(net.accepted).rcv_nxt;
  net.server->pump();
  for (buf::Mbuf* m : held) pool.free_one(m);
  EXPECT_EQ(net.server->tcp().pcb_stats(net.accepted).fast_path, 1u);
  EXPECT_EQ(net.server->tcp().pcb_view(net.accepted).rcv_nxt,
            rcv_nxt + data.size());
  EXPECT_EQ(net.drain_server_socket(64), data);
}

TEST(TcpDelivery, FastPathAllocatesOnlyTheFrameAndItsAck) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const buf::PoolStats& pool = net.server->pool().stats();
  const TcpPcbStats& pcb = net.server->tcp().pcb_stats(net.accepted);
  const auto acks_start = pcb.acks_sent;
  for (int seg = 0; seg < 4; ++seg) {
    const std::vector<std::uint8_t> data(1000, static_cast<std::uint8_t>(seg));
    ASSERT_TRUE(net.client->tcp().send(net.conn, data));
    net.client->pump();
    const buf::PoolStats before = pool;
    const auto fast_before = pcb.fast_path;
    const auto acks_before = pcb.acks_sent;
    net.server->pump();
    ASSERT_EQ(pcb.fast_path, fast_before + 1) << "segment " << seg;
    // The device pulls the frame into one mbuf with a cluster attached;
    // every second segment adds a one-mbuf ACK. Nothing else.
    EXPECT_EQ(pool.mbuf_allocs - before.mbuf_allocs,
              1 + (pcb.acks_sent - acks_before))
        << "segment " << seg;
    EXPECT_EQ(pool.cluster_allocs - before.cluster_allocs, 1u)
        << "segment " << seg;
  }
  EXPECT_EQ(pcb.acks_sent - acks_start, 2u);
  EXPECT_EQ(net.drain_server_socket(8000).size(), 4000u);
}

TEST(TcpDelivery, ResentFinOverDuplicateDataWakesNobody) {
  // A FIN that arrives with data the receiver already has leaves nothing
  // to deliver: the socket must see no append and no wakeup.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  std::vector<std::uint8_t> frame;
  net.client->device().set_tx_sink([&](std::vector<std::uint8_t>&& bytes) {
    frame = bytes;
    net.server->device().inject(std::move(bytes));
    return true;
  });
  const auto data = bytes_of("abc");
  ASSERT_TRUE(net.client->tcp().send(net.conn, data));
  net.settle();
  ASSERT_EQ(net.drain_server_socket(16), data);
  // Resend that segment with FIN set, patching the TCP checksum for the
  // changed flags word (RFC 1624: HC' = ~(~HC + ~m + m')).
  constexpr std::size_t kTcp = 14 + 20;
  const auto word = [&](std::size_t at) {
    return static_cast<std::uint32_t>(frame[at] << 8 | frame[at + 1]);
  };
  const std::uint32_t old_flags = word(kTcp + 12);
  frame[kTcp + 13] |= wire::tcpflags::kFin;
  std::uint32_t sum = (~word(kTcp + 16) & 0xffff) + (~old_flags & 0xffff) +
                      word(kTcp + 12);
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  frame[kTcp + 16] = static_cast<std::uint8_t>(~sum >> 8);
  frame[kTcp + 17] = static_cast<std::uint8_t>(~sum);
  const SocketId sock = net.server->tcp().socket_of(net.accepted);
  const SocketStats before = net.server->sockets().socket_stats(sock);
  net.server->device().inject(frame);
  net.server->pump();
  EXPECT_EQ(net.server->tcp().tcp_stats().bad_checksum, 0u);
  EXPECT_EQ(net.server->tcp().state(net.accepted), TcpState::kCloseWait);
  const SocketStats& after = net.server->sockets().socket_stats(sock);
  EXPECT_EQ(after.wakeups, before.wakeups);
  EXPECT_EQ(after.appended_bytes, before.appended_bytes);
  EXPECT_EQ(net.server->sockets().readable_bytes(sock), 0u);
}

// ---- Stream socket buffer -----------------------------------------------

/// A socket layer alone in a conventional graph: inject() runs sbappend.
struct SocketRig {
  buf::MbufPool pool{256, 32};
  SocketLayer sockets;
  core::StackGraph graph;
  core::LayerId layer = graph.add_layer(sockets);

  void append(SocketId id, buf::Packet chain) {
    core::Message msg(std::move(chain));
    msg.flow_id = id;
    graph.inject(layer, std::move(msg));
  }

  /// A chain of one mbuf per piece, behind an empty head mbuf (what TCP
  /// hands up after trimming a header that filled the head).
  buf::Packet chain(const std::vector<std::vector<std::uint8_t>>& pieces) {
    buf::Packet out =
        buf::Packet::from_bytes(pool, std::vector<std::uint8_t>(20));
    out.adj(20);
    for (const auto& piece : pieces)
      out.cat(buf::Packet::from_bytes(pool, piece));
    return out;
  }
};

std::vector<std::uint8_t> counting(std::size_t n, std::size_t from) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>((from + i) * 7);
  return out;
}

TEST(StreamSocket, InterleavedAppendsAndPartialReadsMatchModel) {
  SocketRig rig;
  const SocketId id = rig.sockets.create(SocketKind::kStream, 1 << 20);
  std::vector<std::uint8_t> model;  // unread bytes, in order
  std::size_t sent = 0;
  std::size_t received = 0;
  Rng rng(5);
  for (int step = 0; step < 3000; ++step) {
    if (rng.chance(0.5)) {
      std::vector<std::vector<std::uint8_t>> pieces(rng.bounded(3) + 1);
      for (auto& piece : pieces) {
        piece = counting(rng.bounded(300) + 1, sent);  // >100 B: cluster
        sent += piece.size();
        model.insert(model.end(), piece.begin(), piece.end());
      }
      rig.append(id, rig.chain(pieces));
    } else {
      std::vector<std::uint8_t> out(rng.bounded(700) + 1);
      const auto want = static_cast<std::ptrdiff_t>(
          std::min(out.size(), model.size()));
      ASSERT_EQ(rig.sockets.read(id, out), static_cast<std::size_t>(want));
      ASSERT_TRUE(std::equal(model.begin(), model.begin() + want, out.begin()))
          << "step " << step;
      model.erase(model.begin(), model.begin() + want);
      received += static_cast<std::size_t>(want);
    }
    ASSERT_EQ(rig.sockets.readable_bytes(id), model.size()) << "step " << step;
    ASSERT_EQ(rig.sockets.room(id), (std::size_t{1} << 20) - model.size());
  }
  EXPECT_GT(received, 0u);
  EXPECT_EQ(rig.sockets.socket_stats(id).appended_bytes, sent);
  EXPECT_EQ(rig.sockets.socket_stats(id).read_bytes, received);
  EXPECT_EQ(rig.sockets.socket_stats(id).overflows, 0u);
  EXPECT_EQ(rig.pool.stats().mbufs_outstanding(), 0u);
}

TEST(StreamSocket, OvershootPastHiwatIsKeptAndCounted) {
  SocketRig rig;
  const SocketId id = rig.sockets.create(SocketKind::kStream, 100);
  rig.append(id, rig.chain({counting(80, 0)}));
  EXPECT_EQ(rig.sockets.socket_stats(id).overflows, 0u);
  EXPECT_EQ(rig.sockets.room(id), 20u);
  rig.append(id, rig.chain({counting(50, 80), counting(30, 130)}));
  EXPECT_EQ(rig.sockets.socket_stats(id).overflows, 1u);
  EXPECT_EQ(rig.sockets.readable_bytes(id), 160u);
  EXPECT_EQ(rig.sockets.room(id), 0u);
  std::vector<std::uint8_t> out(500);
  out.resize(rig.sockets.read(id, out));
  EXPECT_EQ(out, counting(160, 0));
  EXPECT_EQ(rig.sockets.room(id), 100u);
}

TEST(StreamSocket, CrashEmptiesBuffer) {
  SocketRig rig;
  const SocketId id = rig.sockets.create(SocketKind::kStream);
  rig.append(id, rig.chain({counting(300, 0)}));
  std::vector<std::uint8_t> out(100);
  ASSERT_EQ(rig.sockets.read(id, out), 100u);
  rig.sockets.crash();
  EXPECT_EQ(rig.sockets.readable_bytes(id), 0u);
  EXPECT_EQ(rig.sockets.read(id, out), 0u);
  rig.append(id, rig.chain({counting(10, 500)}));
  out.resize(rig.sockets.read(id, out));
  EXPECT_EQ(out, counting(10, 500));
}

/// Records every piece the socket layer reports appending.
class RecordingTap final : public SocketTap {
 public:
  void on_stream_append(SocketId /*id*/,
                        std::span<const std::uint8_t> bytes) override {
    ++pieces;
    seen.insert(seen.end(), bytes.begin(), bytes.end());
  }
  void on_datagram(SocketId /*id*/, const Datagram& /*dgram*/) override {}

  std::size_t pieces = 0;
  std::vector<std::uint8_t> seen;
};

TEST(StreamSocket, TapSeesEveryNonEmptyPieceOnce) {
  SocketRig rig;
  RecordingTap tap;
  rig.sockets.set_tap(&tap);
  const SocketId id = rig.sockets.create(SocketKind::kStream);
  std::vector<buf::Packet> chains;
  chains.push_back(
      rig.chain({counting(60, 0), counting(700, 60), counting(5, 760)}));
  chains.push_back(rig.chain({counting(40, 765)}));
  std::size_t non_empty = 0;
  for (buf::Packet& chain : chains) {
    for (const buf::Mbuf* m = chain.head(); m != nullptr; m = m->next())
      non_empty += m->len() != 0 ? 1 : 0;
    rig.append(id, std::move(chain));
  }
  EXPECT_GE(non_empty, 5u);  // 700 B spans a head mbuf and a cluster
  EXPECT_EQ(tap.pieces, non_empty);  // the empty heads are not reported
  std::vector<std::uint8_t> out(2000);
  out.resize(rig.sockets.read(id, out));
  EXPECT_EQ(tap.seen, out);
  EXPECT_EQ(out, counting(805, 0));
}

TEST(TcpClose, NoRetransmitTimerFiresAfterAbort) {
  // Regression: a PCB's retransmit timer must be disarmed when the
  // connection dies. Leave data unacked (armed rtx), abort, then advance
  // far past every rtx deadline — nothing may leave the closed PCB.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  net.server->device().set_loss(1.0, 42);  // black-hole: data stays unacked
  ASSERT_TRUE(net.client->tcp().send(net.conn, bytes_of("doomed")));
  net.settle();
  net.client->tcp().abort(net.conn);
  net.client->pump();
  ASSERT_EQ(net.client->tcp().state(net.conn), TcpState::kClosed);
  const auto tx_before = net.client->device().stats().tx_frames;
  const auto rtx_before = net.client->tcp().pcb_stats(net.conn).retransmits;
  for (int i = 0; i < 24; ++i) net.tick(0.5);  // >> rto_max_sec
  EXPECT_EQ(net.client->device().stats().tx_frames, tx_before);
  EXPECT_EQ(net.client->tcp().pcb_stats(net.conn).retransmits, rtx_before);
}

TEST(TcpClose, CloseFromSynSentCancelsTimers) {
  // Connect toward a host that never answers, close while in SYN_SENT;
  // the SYN rtx timer must not keep firing afterwards.
  TcpPair net;
  net.server->device().set_loss(1.0, 7);  // server never hears the SYN
  const PcbId conn = net.client->tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  net.settle();
  ASSERT_EQ(net.client->tcp().state(conn), TcpState::kSynSent);
  net.client->tcp().close(conn);
  EXPECT_EQ(net.client->tcp().state(conn), TcpState::kClosed);
  const auto tx_before = net.client->device().stats().tx_frames;
  const auto arp_before = net.client->eth().arp().stats().retries;
  for (int i = 0; i < 40; ++i) net.tick(0.5);
  // The SYN itself is parked awaiting ARP (the dark server never answers
  // requests either), so the retry timer legitimately re-requests until
  // it gives up — but nothing TCP may leave the closed PCB.
  const auto arp_retries = net.client->eth().arp().stats().retries - arp_before;
  EXPECT_EQ(net.client->device().stats().tx_frames, tx_before + arp_retries);
  EXPECT_EQ(net.client->eth().arp().stats().resolve_failures, 1u);
}

// ---- PCB demux table --------------------------------------------------

TEST(PcbTable, MatchesReferenceMapUnderChurn) {
  // 300 keys toggled in and out at random: clusters form, grow and are
  // cut by backward-shift deletes; every key must stay findable exactly
  // while it is present.
  std::vector<PcbKey> keys;
  for (std::uint32_t i = 0; i < 300; ++i)
    keys.push_back({ip_from_parts(10, 0, 0, 1 + i % 5), kServerIp,
                    static_cast<std::uint16_t>(1024 + i), 80});
  std::vector<PcbId> present(keys.size(), kNoPcb);
  PcbTable table;
  EXPECT_EQ(table.find(keys[0]).probes, 0u);  // empty: nothing to read
  Rng rng(0x7ab1e);
  std::size_t live = 0;
  for (PcbId op = 0; op < 30000; ++op) {
    const std::size_t k = rng.bounded(keys.size());
    if (present[k] == kNoPcb) {
      table.insert(keys[k], op);
      present[k] = op;
      ++live;
    } else {
      ASSERT_TRUE(table.erase(keys[k]));
      present[k] = kNoPcb;
      --live;
    }
    ASSERT_EQ(table.size(), live);
    ASSERT_LE(2 * table.size(), table.capacity());
    if (op % 97 != 0) continue;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const PcbTable::Hit hit = table.find(keys[i]);
      ASSERT_EQ(hit.id, present[i]) << "op " << op << " key " << i;
      ASSERT_GE(hit.probes, 1u);
    }
  }
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
  const PcbKey stranger{1, 2, 3, 4};
  EXPECT_EQ(table.find(stranger).id, kNoPcb);
  EXPECT_FALSE(table.erase(stranger));
}

TEST(TcpDemux, TableCountsProbesOnCacheMissesOnly) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const PcbId second = net.client->tcp().connect(kServerIp, 80);
  net.settle();
  ASSERT_EQ(net.client->tcp().state(second), TcpState::kEstablished);
  // Alternate the two connections: every segment misses the one-entry
  // cache and costs at least one table probe.
  const TcpLayerStats before = net.server->tcp().tcp_stats();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(net.client->tcp().send(i % 2 == 0 ? net.conn : second,
                                       bytes_of("x")));
    net.settle(1);
  }
  const TcpLayerStats& after = net.server->tcp().tcp_stats();
  const std::uint64_t misses = after.pcb_cache_misses - before.pcb_cache_misses;
  EXPECT_EQ(after.pcb_cache_hits, before.pcb_cache_hits);
  EXPECT_EQ(misses, 8u);
  EXPECT_GE(after.pcb_table_probes - before.pcb_table_probes, misses);
  EXPECT_EQ(net.server->tcp().pcb_table_size(), 2u);
}

TEST(TcpAlloc, IdsFollowTheLowestFreeRule) {
  // The scan alloc_pcb replaced handed out the lowest CLOSED id, else a
  // new one. Churn every allocation and release path on both hosts and
  // check each id handed out against that rule.
  TcpPair net;
  const auto lowest_free = [](const TcpLayer& tcp) {
    for (PcbId id = 0; id < tcp.pcb_count(); ++id)
      if (tcp.state(id) == TcpState::kClosed) return id;
    return static_cast<PcbId>(tcp.pcb_count());
  };
  (void)net.server->tcp().listen(80);
  std::vector<PcbId> open;  // client ids, established
  Rng rng(0xa110c);
  for (int step = 0; step < 600; ++step) {
    TcpLayer& client = net.client->tcp();
    TcpLayer& server = net.server->tcp();
    switch (rng.bounded(6)) {
      case 0:
      case 1: {  // full handshake: one id on each side
        const PcbId want_client = lowest_free(client);
        const PcbId want_server = lowest_free(server);
        net.accepted = kNoPcb;
        const PcbId id = client.connect(kServerIp, 80);
        ASSERT_EQ(id, want_client) << "step " << step;
        net.settle();
        ASSERT_EQ(net.accepted, want_server) << "step " << step;
        open.push_back(id);
        break;
      }
      case 2: {  // SYN_SENT close: the server never hears it
        net.server->device().set_loss(1.0);
        const PcbId want = lowest_free(client);
        const PcbId id = client.connect(kServerIp, 80);
        ASSERT_EQ(id, want) << "step " << step;
        client.close(id);
        net.server->device().set_loss(0.0);
        break;
      }
      case 3:  // abort: RST resets both ends
        if (!open.empty()) {
          const std::size_t k = rng.bounded(open.size());
          client.abort(open[k]);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
          net.settle();
        }
        break;
      case 4: {  // listen and close a listener
        const PcbId want = lowest_free(server);
        const PcbId id = server.listen(static_cast<std::uint16_t>(1000 + step));
        ASSERT_EQ(id, want) << "step " << step;
        if (rng.bounded(2) == 0) server.close(id);
        break;
      }
      default:  // orderly close through TIME_WAIT and LAST_ACK
        if (!open.empty()) {
          const std::size_t k = rng.bounded(open.size());
          const PcbId id = open[k];
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
          const TcpPcb& p = client.pcb_view(id);
          const PcbId peer =
              server.lookup(p.local_ip, p.local_port, p.remote_ip,
                            p.remote_port);
          ASSERT_NE(peer, kNoPcb);
          client.close(id);
          net.settle();
          server.close(peer);
          net.settle();
          net.tick(1.1);  // past time_wait_sec
          ASSERT_EQ(client.state(id), TcpState::kClosed);
          ASSERT_EQ(server.state(peer), TcpState::kClosed);
        }
        break;
    }
  }
  // A crash frees every id at once: allocation restarts from zero.
  net.server->restart();
  EXPECT_EQ(net.server->tcp().listen(80), 0u);
  EXPECT_EQ(net.server->tcp().listen(81), 1u);
}

// Each transition to CLOSED must drop the 4-tuple from the demux table:
// reopening the same tuple then reaches the new PCB and socket.

TEST(TcpReopen, AfterCloseFromListen) {
  TcpPair net;
  const PcbId old_listener = net.server->tcp().listen(80);
  net.server->tcp().close(old_listener);
  const PcbId refused = net.client->tcp().connect(kServerIp, 80);
  net.settle();
  EXPECT_EQ(net.client->tcp().state(refused), TcpState::kClosed);  // RST
  EXPECT_EQ(net.server->tcp().tcp_stats().no_pcb, 1u);
  ASSERT_TRUE(net.establish());
  EXPECT_TRUE(net.exchange());
}

TEST(TcpReopen, AfterCloseFromSynSent) {
  TcpPair net;
  ASSERT_TRUE(net.establish(81));  // resolves ARP
  (void)net.server->tcp().listen(80);
  net.server->device().set_loss(1.0);
  const PcbId first = net.client->tcp().connect(kServerIp, 80);
  const std::uint16_t port = net.client->tcp().pcb_view(first).local_port;
  net.settle();
  net.client->tcp().close(first);
  EXPECT_EQ(net.client->tcp().pcb_table_size(), 1u);  // the port-81 one
  net.server->device().set_loss(0.0);
  net.conn = net.connect_from(port);
  ASSERT_EQ(net.client->tcp().pcb_view(net.conn).local_port, port);
  net.settle();
  ASSERT_EQ(net.client->tcp().state(net.conn), TcpState::kEstablished);
  EXPECT_TRUE(net.exchange());
}

TEST(TcpReopen, AfterResetConnection) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t port = net.client->tcp().pcb_view(net.conn).local_port;
  const PcbId old_child = net.accepted;
  net.client->tcp().abort(net.conn);
  net.settle();
  ASSERT_EQ(net.server->tcp().state(old_child), TcpState::kClosed);
  EXPECT_EQ(net.server->tcp().pcb_table_size(), 0u);
  EXPECT_EQ(net.client->tcp().pcb_table_size(), 0u);
  net.conn = net.connect_from(port);
  net.settle();
  ASSERT_EQ(net.server->tcp().state(net.accepted), TcpState::kEstablished);
  EXPECT_EQ(net.server->tcp().pcb_view(net.accepted).remote_port, port);
  EXPECT_TRUE(net.exchange());
}

TEST(TcpReopen, AfterTimeWaitExpiryAndLastAck) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t port = net.client->tcp().pcb_view(net.conn).local_port;
  const PcbId old_conn = net.conn;
  const PcbId old_child = net.accepted;
  net.client->tcp().close(net.conn);  // client: FIN_WAIT -> TIME_WAIT
  net.settle();
  net.server->tcp().close(net.accepted);  // server: LAST_ACK -> CLOSED
  net.settle();
  ASSERT_EQ(net.client->tcp().state(old_conn), TcpState::kTimeWait);
  ASSERT_EQ(net.server->tcp().state(old_child), TcpState::kClosed);
  EXPECT_EQ(net.server->tcp().pcb_table_size(), 0u);
  EXPECT_EQ(net.client->tcp().pcb_table_size(), 1u);
  net.tick(1.1);  // past time_wait_sec
  ASSERT_EQ(net.client->tcp().state(old_conn), TcpState::kClosed);
  EXPECT_EQ(net.client->tcp().pcb_table_size(), 0u);
  net.conn = net.connect_from(port);
  net.settle();
  ASSERT_EQ(net.client->tcp().state(net.conn), TcpState::kEstablished);
  ASSERT_EQ(net.server->tcp().state(net.accepted), TcpState::kEstablished);
  EXPECT_TRUE(net.exchange());
}

TEST(TcpReopen, AfterCrash) {
  TcpPair net;
  ASSERT_TRUE(net.establish());
  const std::uint16_t port = net.client->tcp().pcb_view(net.conn).local_port;
  net.server->restart();
  EXPECT_EQ(net.server->tcp().pcb_table_size(), 0u);
  net.client->tcp().abort(net.conn);  // the RST finds no PCB at the server
  net.settle();
  (void)net.server->tcp().listen(80);
  net.conn = net.connect_from(port);
  net.settle();
  ASSERT_EQ(net.server->tcp().state(net.accepted), TcpState::kEstablished);
  EXPECT_TRUE(net.exchange());
  EXPECT_EQ(net.server->tcp().pcb_table_size(), 1u);
}

TEST(TcpEphemeral, WrapSkipsLiveTuples) {
  // More than 16,384 connects to one peer: the port counter wraps past
  // connections that are still open, and must step over their ports.
  TcpPair net;
  ASSERT_TRUE(net.establish());
  std::set<std::uint16_t> live_ports{
      net.client->tcp().pcb_view(net.conn).local_port};
  std::vector<PcbId> live{net.conn};
  net.server->device().set_loss(1.0);
  for (int i = 0; i < 16384 + 64; ++i) {
    const PcbId id = net.client->tcp().connect(kServerIp, 80);
    const std::uint16_t port = net.client->tcp().pcb_view(id).local_port;
    ASSERT_EQ(live_ports.count(port), 0u) << "connect " << i;
    if (i % 1000 == 0) {  // keep some open, in SYN_SENT
      live_ports.insert(port);
      live.push_back(id);
    } else {
      net.client->tcp().close(id);
    }
  }
  net.server->device().set_loss(0.0);
  std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t>> tuples;
  std::size_t matchable = 0;
  const TcpLayer& tcp = net.client->tcp();
  for (PcbId id = 0; id < tcp.pcb_count(); ++id) {
    const TcpPcb& p = tcp.pcb_view(id);
    if (p.state == TcpState::kClosed || p.state == TcpState::kListen) continue;
    ++matchable;
    EXPECT_TRUE(tuples.insert({p.remote_ip, p.remote_port, p.local_port}).second)
        << "pcb " << id << " shares a 4-tuple";
    EXPECT_EQ(tcp.lookup(p.remote_ip, p.remote_port, p.local_ip, p.local_port),
              id);
  }
  EXPECT_EQ(matchable, live.size());
  EXPECT_EQ(tcp.pcb_table_size(), live.size());
  EXPECT_TRUE(net.exchange());  // the first connection still works
}

}  // namespace
}  // namespace ldlp::stack

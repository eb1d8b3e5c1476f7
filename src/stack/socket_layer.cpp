#include "stack/socket_layer.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "stack/footprints.hpp"

namespace ldlp::stack {

SocketId SocketLayer::create(SocketKind kind, std::size_t hiwat_bytes) {
  Socket socket;
  socket.kind = kind;
  socket.hiwat = hiwat_bytes;
  sockets_.push_back(std::move(socket));
  return static_cast<SocketId>(sockets_.size() - 1);
}

SocketLayer::Socket& SocketLayer::sock(SocketId id) {
  LDLP_ASSERT_MSG(id < sockets_.size(), "bad socket id");
  return sockets_[id];
}

const SocketLayer::Socket& SocketLayer::sock(SocketId id) const {
  LDLP_ASSERT_MSG(id < sockets_.size(), "bad socket id");
  return sockets_[id];
}

void SocketLayer::set_wakeup(SocketId id, std::function<void(SocketId)> hook) {
  sock(id).wakeup = std::move(hook);
}

void SocketLayer::wake(Socket& socket, SocketId id) {
  trace_fn(Fn::kSoWakeup);
  trace_fn(Fn::kWakeup);
  ++socket.stats.wakeups;
  if (socket.wakeup) socket.wakeup(id);
}

void SocketLayer::process(core::Message msg) {
  trace_fn(Fn::kSbAppend);
  trace_fn(Fn::kSbCompress);
  trace_rgn(Rgn::kSockBufMut);
  trace_rgn(Rgn::kSockLowRo);
  const auto id = static_cast<SocketId>(msg.flow_id);
  if (id >= sockets_.size()) return;
  Socket& socket = sockets_[id];
  LDLP_DASSERT(socket.kind == SocketKind::kStream);

  const std::uint32_t len = msg.packet.length();
  if (unread(socket) + len > socket.hiwat) {
    // TCP's advertised window normally prevents this, but under deferred
    // (LDLP) scheduling the window is computed while earlier segments
    // still sit in the tcp→socket queue, so a burst can land past hiwat.
    // These bytes are already ACKed (rcv_nxt advanced in TcpLayer before
    // the hand-off); dropping them here would tear an unrecoverable hole
    // in the stream — the peer has cleared its rtx entry. Accept the
    // transient overshoot (bounded by the advertised window) and count it.
    ++socket.stats.overflows;
  }
  // sbappend: copy each mbuf of the chain into the socket buffer.
  trace_pkt(trace::RefKind::kRead, len);
  std::vector<std::uint8_t>& stream = socket.stream;
  if (socket.stream_off != 0 && stream.size() + len > stream.capacity()) {
    const auto consumed = static_cast<std::ptrdiff_t>(socket.stream_off);
    stream.erase(stream.begin(), stream.begin() + consumed);
    socket.stream_off = 0;
  }
  for (const buf::Mbuf* m = msg.packet.head(); m != nullptr; m = m->next()) {
    if (m->len() == 0) continue;
    stream.insert(stream.end(), m->data(), m->data() + m->len());
    if (tap_ != nullptr) tap_->on_stream_append(id, m->bytes());
  }
  socket.stats.appended_bytes += len;
  wake(socket, id);
}

void SocketLayer::deliver_datagram(SocketId id, Datagram dgram) {
  Socket& socket = sock(id);
  LDLP_DASSERT(socket.kind == SocketKind::kDatagram);
  if (socket.dgram_bytes + dgram.payload.size() > socket.hiwat) {
    ++socket.stats.overflows;
    return;
  }
  socket.dgram_bytes += dgram.payload.size();
  socket.stats.appended_bytes += dgram.payload.size();
  if (tap_ != nullptr) tap_->on_datagram(id, dgram);
  socket.dgrams.push_back(std::move(dgram));
  wake(socket, id);
}

std::size_t SocketLayer::read(SocketId id, std::span<std::uint8_t> dst) {
  trace_fn(Fn::kSoReceive);
  trace_fn(Fn::kSooRead);
  trace_fn(Fn::kUiomove);
  trace_fn(Fn::kCopyout);
  Socket& socket = sock(id);
  const std::size_t n = std::min(dst.size(), unread(socket));
  if (n != 0)
    std::memcpy(dst.data(), socket.stream.data() + socket.stream_off, n);
  socket.stream_off += n;
  if (socket.stream_off == socket.stream.size()) {
    socket.stream.clear();
    socket.stream_off = 0;
  }
  socket.stats.read_bytes += n;
  return n;
}

std::optional<Datagram> SocketLayer::read_datagram(SocketId id) {
  Socket& socket = sock(id);
  if (socket.dgrams.empty()) return std::nullopt;
  Datagram out = std::move(socket.dgrams.front());
  socket.dgrams.pop_front();
  socket.dgram_bytes -= out.payload.size();
  socket.stats.read_bytes += out.payload.size();
  return out;
}

std::size_t SocketLayer::readable_bytes(SocketId id) const {
  return unread(sock(id));
}

std::size_t SocketLayer::pending_datagrams(SocketId id) const {
  return sock(id).dgrams.size();
}

const SocketStats& SocketLayer::socket_stats(SocketId id) const {
  return sock(id).stats;
}

std::size_t SocketLayer::room(SocketId id) const {
  const Socket& socket = sock(id);
  return socket.hiwat - std::min(socket.hiwat, unread(socket));
}

}  // namespace ldlp::stack

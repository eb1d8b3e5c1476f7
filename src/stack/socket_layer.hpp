// Socket layer: receive buffering and application wakeups.
//
// The "socket low" half (sbappend/sowakeup in Table 1) runs as a Layer so
// the scheduler treats it like every other layer; the "socket high" half
// (soreceive/read) is the API the application calls. Stream sockets byte-
// buffer (TCP) in one flat buffer: sbappend copies each mbuf of the
// delivered chain in, soreceive copies out with one memcpy. Datagram
// sockets preserve message boundaries and sender addresses (UDP).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/stack_graph.hpp"

namespace ldlp::stack {

using SocketId = std::uint32_t;
inline constexpr SocketId kNoSocket = ~SocketId{0};

enum class SocketKind : std::uint8_t { kStream, kDatagram };

struct Datagram {
  std::vector<std::uint8_t> payload;
  std::uint32_t from_ip = 0;
  std::uint16_t from_port = 0;
};

struct SocketStats {
  std::uint64_t appended_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t overflows = 0;  ///< Deliveries past hiwat (dgram: dropped;
                                ///< stream: accepted, see process()).
};

/// Wire-tap on socket-layer delivery, the last point before the
/// application. Conformance oracles (ldlp::check) implement this to
/// assert what the stack delivered against what the peer sent.
class SocketTap {
 public:
  virtual ~SocketTap() = default;
  /// Stream bytes appended to `id`'s receive buffer (sbappend), once per
  /// non-empty mbuf of the delivered chain.
  virtual void on_stream_append(SocketId id,
                                std::span<const std::uint8_t> bytes) = 0;
  /// Datagram queued on `id` (about to wake the application).
  virtual void on_datagram(SocketId id, const Datagram& dgram) = 0;
};

class SocketLayer final : public core::Layer {
 public:
  SocketLayer() : core::Layer("socket") {}

  [[nodiscard]] SocketId create(SocketKind kind,
                                std::size_t hiwat_bytes = 16 * 1024);

  /// Called whenever data arrives on the socket (sowakeup). The paper's
  /// blocked process is modelled by the caller polling or by this hook.
  void set_wakeup(SocketId id, std::function<void(SocketId)> hook);

  /// soreceive for stream sockets: copy out up to dst.size() bytes.
  [[nodiscard]] std::size_t read(SocketId id, std::span<std::uint8_t> dst);

  /// recvfrom for datagram sockets.
  [[nodiscard]] std::optional<Datagram> read_datagram(SocketId id);

  [[nodiscard]] std::size_t readable_bytes(SocketId id) const;
  [[nodiscard]] std::size_t pending_datagrams(SocketId id) const;
  [[nodiscard]] const SocketStats& socket_stats(SocketId id) const;
  [[nodiscard]] std::size_t room(SocketId id) const;  ///< Receive window.

  /// Datagram-side delivery (UDP calls this directly; stream data arrives
  /// as Messages through process()).
  void deliver_datagram(SocketId id, Datagram dgram);

  /// Attach a delivery wire-tap observing every append on every socket
  /// (nullptr detaches). Used by chaos builds; nullptr costs one branch.
  void set_tap(SocketTap* tap) noexcept { tap_ = tap; }

  /// Host crash: unread buffers and application wakeup hooks are gone,
  /// but the socket slots stay addressable — in-flight stream messages
  /// already in the scheduler's queues still land somewhere (on a dead
  /// socket, harmlessly) rather than faulting. Stats survive; they
  /// describe the machine, not the incarnation.
  void crash() {
    for (Socket& s : sockets_) {
      s.stream.clear();
      s.stream_off = 0;
      s.dgrams.clear();
      s.dgram_bytes = 0;
      s.wakeup = nullptr;
    }
  }

 protected:
  /// Stream delivery: msg.flow_id is the SocketId, packet holds payload.
  void process(core::Message msg) override;

 private:
  struct Socket {
    SocketKind kind = SocketKind::kStream;
    std::size_t hiwat = 0;
    /// Stream bytes; [stream_off, size) is unread. A read that drains the
    /// buffer resets it; otherwise the consumed prefix is erased only when
    /// an append would reallocate.
    std::vector<std::uint8_t> stream;
    std::size_t stream_off = 0;
    std::deque<Datagram> dgrams;
    std::size_t dgram_bytes = 0;  ///< Payload bytes queued in dgrams.
    std::function<void(SocketId)> wakeup;
    SocketStats stats;
  };

  [[nodiscard]] Socket& sock(SocketId id);
  [[nodiscard]] const Socket& sock(SocketId id) const;
  [[nodiscard]] static std::size_t unread(const Socket& socket) noexcept {
    return socket.stream.size() - socket.stream_off;
  }
  void wake(Socket& socket, SocketId id);

  std::vector<Socket> sockets_;
  SocketTap* tap_ = nullptr;
};

}  // namespace ldlp::stack

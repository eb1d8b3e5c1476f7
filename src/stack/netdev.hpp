// Simulated network device.
//
// Models a Lance-style Ethernet adaptor: received frames wait in device
// memory (the RX ring) until the host pulls them into mbufs — which is
// where LDLP's batching naturally begins, since "when the protocol stack
// is able to accept a new message, it takes all available messages"
// (section 3.1). Two devices connect back-to-back to form a wire; a frame
// transmitted on one side is copied into the peer's RX ring (frames cross
// pools by value, like real DMA).
//
// Multi-queue receive (ldlp::par): the device can be configured with N RX
// queues, each its own ring, with arriving frames steered by a
// deterministic Toeplitz-style hash over the IPv4 flow 4-tuple
// (src, dst, proto, ports) — RSS in miniature. A flow always lands on the
// same queue, so per-queue (per-shard) LDLP batches keep their d-cache
// locality while the flow hash spreads independent flows across
// contexts. Non-IP frames (ARP) and fragments steer to queue 0.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "buf/packet.hpp"
#include "common/rng.hpp"
#include "wire/ethernet.hpp"

namespace ldlp::fault {
class FaultInjector;
}

namespace ldlp::stack {

/// IPv4 flow identity for receive-side steering.
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Deterministic Toeplitz hash (the RSS construction: a fixed random key
/// string, one 32-bit key window shifted per input bit, XOR-folded on set
/// bits). The key is derived from `key_seed` via splitmix64, so every
/// device/run with the same seed steers identically — the stability the
/// shard tests pin down.
///
/// Toeplitz is linear over GF(2), so the per-bit XORs of one input nibble
/// fold into one precomputed window: the constructor builds 26 x 16
/// nibble windows (1.6 KB) and a hash is 26 table lookups. Build one only
/// where a hash is taken — a one-queue device or a one-lane pipeline
/// never needs it.
class FlowHash {
 public:
  static constexpr std::uint64_t kDefaultKeySeed = 0x1d1b'0001'600d'5eedULL;

  explicit FlowHash(bool symmetric = false,
                    std::uint64_t key_seed = kDefaultKeySeed);

  /// 32-bit Toeplitz hash of the 13-byte flow tuple. In symmetric mode the
  /// (ip, port) endpoint pairs are canonically ordered first, so both
  /// directions of a connection hash identically (co-steering).
  [[nodiscard]] std::uint32_t operator()(const FlowKey& key) const noexcept;

  [[nodiscard]] bool symmetric() const noexcept { return symmetric_; }

  /// Extract the flow key from a raw Ethernet frame. nullopt for non-IPv4
  /// frames, IP fragments (ports unreadable past the first fragment) and
  /// truncated headers; ICMP/IGMP yield ports 0.
  [[nodiscard]] static std::optional<FlowKey> classify(
      std::span<const std::uint8_t> frame) noexcept;

 private:
  /// RSS input: src addr, dst addr, src port, dst port, protocol.
  static constexpr std::size_t kInputBytes = 13;
  /// nibbles_[i][v]: XOR of the key windows at input bits 4i..4i+3 that
  /// are set in nibble value v.
  std::array<std::array<std::uint32_t, 16>, 2 * kInputBytes> nibbles_{};
  bool symmetric_ = false;
};

struct NetDeviceStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rx_drops = 0;   ///< RX ring overflow.
  std::uint64_t tx_drops = 0;   ///< No peer / frame too large.
};

class NetDevice {
 public:
  NetDevice(std::string name, wire::MacAddr mac, buf::MbufPool& pool,
            std::size_t rx_ring_slots = 64);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const wire::MacAddr& mac() const noexcept { return mac_; }
  [[nodiscard]] const NetDeviceStats& stats() const noexcept { return stats_; }
  /// Zero the frame/byte/drop counters (ring contents untouched), so a
  /// device reused across measurement runs starts each run at zero.
  void reset_stats() noexcept {
    stats_ = {};
    for (auto& n : rx_queue_frames_) n = 0;
  }
  [[nodiscard]] buf::MbufPool& pool() noexcept { return pool_; }

  /// Join two devices with a full-duplex "wire".
  static void connect(NetDevice& a, NetDevice& b) noexcept;

  /// Serialized-frame consumer replacing the back-to-back wire: when set,
  /// transmit() hands the frame bytes here instead of injecting them into
  /// a peer device. This is how a device attaches to an ldlp::net fabric
  /// (the sink enqueues the frame onto the access link); set nullptr to
  /// detach. The sink returns false when it refused the frame (counted as
  /// a tx_drop).
  using TxSink = std::function<bool(std::vector<std::uint8_t>&&)>;
  void set_tx_sink(TxSink sink) { tx_sink_ = std::move(sink); }
  [[nodiscard]] bool has_tx_sink() const noexcept {
    return static_cast<bool>(tx_sink_);
  }

  /// Configure `queues` RX queues (>= 1), each with its own
  /// `rx_ring_slots`-deep ring, steered by the Toeplitz flow hash.
  /// `symmetric` co-steers both directions of a connection onto one
  /// queue. Frames already waiting are re-steered (deterministically), so
  /// the call is safe at any time; queues=1 restores the classic
  /// single-ring device.
  void set_rx_queues(std::size_t queues, bool symmetric = false);

  [[nodiscard]] std::size_t rx_queue_count() const noexcept {
    return rings_.size();
  }

  /// RX queue a frame with these bytes would steer to right now.
  [[nodiscard]] std::size_t steer(
      std::span<const std::uint8_t> frame_bytes) const noexcept;

  /// Transmit a complete Ethernet frame (header already in place). The
  /// frame is serialised onto the wire; the packet is always consumed.
  /// Returns false if it could not be delivered.
  bool transmit(buf::Packet frame) noexcept;

  /// Frames waiting across all RX rings.
  [[nodiscard]] std::size_t rx_pending() const noexcept {
    std::size_t total = 0;
    for (const auto& ring : rings_) total += ring.size();
    return total;
  }
  /// Frames waiting in one RX ring.
  [[nodiscard]] std::size_t rx_pending(std::size_t queue) const noexcept {
    return queue < rings_.size() ? rings_[queue].size() : 0;
  }

  /// Cumulative frames steered into each queue (survives receive();
  /// cleared by reset_stats) — the shard-balance evidence.
  [[nodiscard]] const std::vector<std::uint64_t>& rx_queue_frames()
      const noexcept {
    return rx_queue_frames_;
  }

  /// Pull the next received frame into our pool (the driver copy: "the
  /// message is copied from device memory into the mbufs"), one buffer
  /// per frame via buf::Packet::devget. Scans queues in index order; empty
  /// packet when every ring is empty or the pool is dry, and the frame
  /// then stays in device memory for a later pull.
  [[nodiscard]] buf::Packet receive() noexcept;

  /// Pull from one RX queue only — the per-shard driver path.
  [[nodiscard]] buf::Packet receive_queue(std::size_t queue) noexcept;

  /// Deliver raw frame bytes into this device's RX ring (used by the peer
  /// and by tests to inject crafted frames).
  void inject(std::vector<std::uint8_t> frame_bytes) noexcept;

  /// Drop a fraction of frames on reception — a lossy wire for exercising
  /// retransmission. Deterministic in the seed.
  void set_loss(double rate, std::uint64_t seed = 99) noexcept {
    loss_rate_ = rate;
    loss_rng_.reseed(seed);
  }

  /// Swap a fraction of arriving frames with the frame already at the
  /// tail of the RX ring — adjacent reordering, the common real-world
  /// case, which exercises receivers' out-of-order paths.
  void set_reorder(double rate, std::uint64_t seed = 77) noexcept {
    reorder_rate_ = rate;
    reorder_rng_.reseed(seed);
  }

  /// Attach a fault injector: every arriving frame is subjected to the
  /// injector's active episodes (loss burst, corruption, duplication,
  /// reorder window, delay jitter, device stall). nullptr detaches.
  /// Supersedes nothing: set_loss/set_reorder remain and compose.
  void set_fault(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Move any delay-released frames from the injector into the RX ring.
  /// Called by Host::pump; harmless without an injector.
  void poll() noexcept;

  /// Discard every frame waiting in the RX rings — device memory does not
  /// survive a host crash (FaultKind::kHostRestart). Returns how many
  /// frames were lost; they are counted as rx_drops.
  std::size_t clear_rx_ring() noexcept;

 private:
  std::string name_;
  wire::MacAddr mac_;
  buf::MbufPool& pool_;
  std::size_t rx_ring_slots_;
  /// One ring per RX queue, each rx_ring_slots_ deep (per-queue rings,
  /// as on real multi-queue adaptors).
  std::vector<std::deque<std::vector<std::uint8_t>>> rings_;
  std::vector<std::uint64_t> rx_queue_frames_;
  /// Built by set_rx_queues(n > 1) only; one ring needs no steering.
  std::optional<FlowHash> hash_;
  NetDevice* peer_ = nullptr;
  TxSink tx_sink_;
  double loss_rate_ = 0.0;
  Rng loss_rng_{99};
  double reorder_rate_ = 0.0;
  Rng reorder_rng_{77};
  fault::FaultInjector* fault_ = nullptr;
  NetDeviceStats stats_;

  void ring_push(std::vector<std::uint8_t> frame_bytes,
                 std::uint32_t reorder_depth) noexcept;
};

}  // namespace ldlp::stack

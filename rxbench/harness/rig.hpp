// Rig: one schedule's receive path under test, driven from outside.
//
// A rig owns two hosts joined back to back. Host A only takes part in
// set-up (ARP, TCP handshakes); after that the rig itself is the peer: it
// builds every data frame, pushes it into host B's device ring, and reads
// B's transmitted ACKs and window updates off the wire through a device
// tx sink. B runs one of the three schedules:
//
//   conv   — Host::pump under SchedMode::kConventional;
//   ldlp   — Host::pump under SchedMode::kLdlp;
//   staged — pipe::StagedRx in kHybrid mode, no WorkerPool.
//
// A *step* is the only timed unit: advance B's clock, pump, and let the
// application drain every socket the stack woke (copying the data out and
// sending the window update 4.4BSD's soreceive would send). The rig's
// service clock advances by the measured duration of each step, and jumps
// ahead only when the ring is empty; both hosts' clocks follow it, so
// delayed-ACK and persist timers fire on it.
//
// Every delivered message is verified outside the timed region: UDP
// payloads carry a tag and must arrive on their socket exactly once and
// in send order; TCP streams must equal the bytes offered, in order.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/workload.hpp"
#include "pipe/pipeline.hpp"
#include "stack/host.hpp"

namespace rxbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time this thread has run. It stops while the thread is
/// descheduled, including while the hypervisor steals the vCPU.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

/// Service time of one timed call: its wall time, or the thread's CPU
/// time over it when that is less. On a shared machine the thread is
/// sometimes descheduled for milliseconds in the middle of a call; that
/// time is not spent in the stack, and charging it would let one stall
/// delay hundreds of later messages on the service clock.
struct CallTimer {
  std::int64_t cpu0 = thread_cpu_ns();
  std::int64_t t0 = now_ns();
  /// Returns {wall ns, service ns}.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> stop() const noexcept {
    const std::int64_t wall = now_ns() - t0;
    const std::int64_t cpu = thread_cpu_ns() - cpu0;
    return {wall, std::min(wall, cpu)};
  }
};

/// stack::Host's graph layers, in LayerId order.
inline constexpr std::size_t kGraphLayers = 5;
inline constexpr std::array<const char*, kGraphLayers> kGraphLayerNames{
    "eth", "ip", "tcp", "udp", "socket"};
/// NetDevice's default RX ring depth.
inline constexpr std::size_t kRingSlots = 64;

/// Stack counters read from outside, for per-phase deltas.
struct Counters {
  std::array<ldlp::core::LayerStats, kGraphLayers> layer{};
  ldlp::core::GraphStats graph{};
  ldlp::buf::PoolStats pool{};
  std::uint64_t rx_drops = 0;
  std::array<ldlp::pipe::StageCounters, ldlp::pipe::kStageCount> pipe{};
  std::uint64_t pcb_hits = 0;
  std::uint64_t pcb_misses = 0;
  std::uint64_t segs_in = 0;
  std::uint64_t fast_path = 0;
  std::uint64_t acks_sent = 0;
};

/// What one phase did on one rig.
struct PhaseStats {
  std::uint64_t offered = 0;    ///< Frames pushed at the ring, resends too.
  std::uint64_t delivered = 0;  ///< Messages the application read.
  std::uint64_t pumps = 0;
  std::uint64_t ring_depth = 0;  ///< Sum of frames found in the ring per pump.
  std::int64_t busy_ns = 0;  ///< Service time of the steps (stack calls).
  double clock_start = 0.0;      ///< Service clock at the phase start.
  double clock_end = 0.0;
  std::vector<float> lat_us;  ///< Open phase: service-clock latency.
  Counters begin;
  Counters end;
};

/// Traced run: one span per timed call, parented by its pump's span.
enum class SpanName : std::uint8_t {
  kPump, kDevice, kEth, kIp, kTcp, kUdp, kSocket, kApp, kStack
};
inline constexpr std::size_t kSpanNames = 9;
[[nodiscard]] const char* span_name(SpanName name) noexcept;
inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = SpanName::kPump;
};

struct TraceLog {
  std::vector<Span> spans;
  /// LDLP passes that found queued work at more than one layer, so no
  /// single layer could be charged for them.
  std::uint64_t unattributed_passes = 0;
};

/// Boundary-independent 64-bit digest of a byte stream (FNV-style over
/// words taken at stream-aligned offsets, so split reads digest like one).
class Digest {
 public:
  void add(std::span<const std::uint8_t> bytes) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t carry_ = 0;
  unsigned fill_ = 0;
  std::uint64_t bytes_ = 0;
};

class Rig {
 public:
  /// Builds both hosts, resolves ARP and completes every TCP handshake:
  /// the work the benchmark's setup_s measures.
  Rig(const WorkloadSpec& spec, Sched sched, std::uint64_t seed);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Closed loop: fill the ring as far as the receive window allows,
  /// then one timed step. Never drops.
  void closed_cycle(PhaseStats& ps);

  /// Open loop over `arrivals` (seconds after the phase start, sorted):
  /// open_run admits and serves arrivals up to index `end`; open_finish
  /// serves the rest and drains everything in flight.
  void open_begin(const std::vector<double>& arrivals, PhaseStats& ps);
  void open_run(std::size_t end, PhaseStats& ps);
  void open_finish(PhaseStats& ps);

  /// Traced closed-loop cycle (conv and ldlp only): under ldlp the batch
  /// is pulled with pull_frame/inject_rx and the graph advanced with
  /// run_stage_pass, each pass timed and charged to the one layer that
  /// held queued work; under conv each frame's pull and inject_rx are
  /// timed apart. The application drain is one more span.
  void traced_cycle(PhaseStats& ps, TraceLog& log);

  [[nodiscard]] Counters counters() const;

  /// Stop generating messages after `n` (tests: equal work per schedule).
  void limit_messages(std::uint64_t n) noexcept { msg_limit_ = n; }

  /// Everything sent has been read: ring, resends and per-flow
  /// expectations are empty. Records an error otherwise.
  void check_quiescent();

  /// Record a content or ledger mismatch (the first one is kept).
  void fail(std::string what);
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Digest of the first frames pushed (the frame-sequence hash).
  [[nodiscard]] std::uint64_t frame_hash() const noexcept {
    return frame_hash_.value();
  }
  /// Per-socket digest of the delivered content, in delivery order.
  [[nodiscard]] std::vector<std::uint64_t> content_digests() const;

  /// Host B, the receiver (tests use it to inject frames of their own).
  [[nodiscard]] ldlp::stack::Host& receiver() noexcept { return *b_; }

  /// TCP only: whether `flow`'s connection is established on host B.
  [[nodiscard]] bool established(std::uint32_t flow) const;

 private:
  struct Flow {
    ldlp::stack::SocketId sock = ldlp::stack::kNoSocket;
    /// UDP: (tag, due) of each message sent, in order.
    /// TCP: (stream end offset, due) of each message sent, in order.
    std::deque<std::pair<std::uint64_t, double>> expect;
    Digest digest;
    bool ready = false;
    // TCP only.
    ldlp::stack::PcbId pcb = ldlp::stack::kNoPcb;
    std::uint16_t a_port = 0;
    std::uint32_t seq0 = 0;    ///< Sequence number of stream offset 0.
    std::uint32_t ack = 0;     ///< B's snd_nxt, acknowledged by the peer.
    std::uint64_t snd_off = 0;  ///< Next stream offset to send.
    std::uint64_t edge = 0;     ///< Right window edge B last advertised.
    std::uint64_t read_off = 0;
  };
  struct Pending {
    std::uint32_t flow;
    double due;
  };
  struct Resend {
    std::uint32_t flow;
    std::uint64_t tag_or_off;
  };
  struct Read {
    std::uint32_t flow;
    std::uint32_t off;
    std::uint32_t len;
    std::int64_t at_ns;
  };

  void setup_udp();
  void setup_tcp();
  void pump_b();

  bool generate(double due);
  void top_up();
  [[nodiscard]] bool push_frame(std::vector<std::uint8_t> frame,
                                PhaseStats& ps);
  [[nodiscard]] std::vector<std::uint8_t> build(std::uint32_t flow,
                                                std::uint64_t tag_or_off);
  void push_pending(bool closed, PhaseStats& ps);

  void step(PhaseStats& ps, bool stamp);
  void drain(bool stamp);
  void window_update(Flow& fl);
  void consume_reads(PhaseStats& ps, double clock_at_t0, std::int64_t t0,
                     double service_per_wall, bool stamp);
  void on_tx(std::span<const std::uint8_t> frame);
  [[nodiscard]] std::uint64_t unwrap(const Flow& fl,
                                     std::uint32_t seq) const noexcept;

  const WorkloadSpec& spec_;
  Sched sched_;
  std::uint64_t seed_;
  std::unique_ptr<ldlp::stack::Host> a_;
  std::unique_ptr<ldlp::stack::Host> b_;
  std::unique_ptr<ldlp::pipe::StagedRx> staged_;
  FlowDraw draw_;
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> port_flow_;  ///< A's port -> flow (TCP).
  std::vector<std::uint32_t> ready_;      ///< Flows the stack woke.
  std::deque<Pending> pending_;           ///< Due, not yet sent.
  std::deque<Resend> resend_;             ///< Dropped at the ring.
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> expect_buf_;
  std::vector<std::uint8_t> scratch_;     ///< The application's buffer.
  std::vector<Read> reads_;

  double clock_ = 0.0;
  const std::vector<double>* arrivals_ = nullptr;
  std::size_t next_arrival_ = 0;
  double open_t0_ = 0.0;

  std::uint64_t next_tag_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t msg_limit_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t frames_hashed_ = 0;
  Digest frame_hash_;
  std::string error_;
};

}  // namespace rxbench

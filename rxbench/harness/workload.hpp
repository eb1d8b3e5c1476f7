// Workloads of the native receive-path benchmark and the frames it builds.
//
// A workload fixes the protocol, message size, flow count and popularity,
// and the open-phase offered rate. The seed fixes everything drawn: the
// flow of each message and the open-phase arrival times. Every message is
// one frame, built here from the wire codecs, so the receiving host sees
// exactly what a peer on the wire would send.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "wire/ethernet.hpp"

namespace rxbench {

enum class Proto : std::uint8_t { kUdp, kTcp };

/// The three receive schedules every workload runs.
enum class Sched : std::uint8_t { kConv, kLdlp, kStaged };
inline constexpr std::array<Sched, 3> kScheds{Sched::kConv, Sched::kLdlp,
                                              Sched::kStaged};
[[nodiscard]] const char* sched_name(Sched sched) noexcept;

struct WorkloadSpec {
  std::string_view name;
  Proto proto = Proto::kUdp;
  std::uint32_t msg_bytes = 64;  ///< Payload bytes; one message per frame.
  std::uint32_t flows = 1;       ///< UDP: bound ports. TCP: connections.
  double zipf_s = 0.0;           ///< Flow popularity skew; 0 = uniform.
  /// Open phase: fixed absolute offered rate (msg/s), light load: about
  /// 5-6% of the slowest schedule's closed-loop rate, so latency is the
  /// cost of a message at the small batches light load forms rather than
  /// queueing, which magnifies the machine's noise into the tail.
  double open_rate = 0.0;
  /// Phase lengths, in messages per schedule per second of --seconds. A
  /// run does a fixed amount of work, so what it allocates does not depend
  /// on the machine's speed; each phase takes about 45% of --seconds on
  /// the machine these were set on.
  double closed_msgs_per_run_sec = 0.0;
  double open_msgs_per_run_sec = 0.0;
};

[[nodiscard]] std::span<const WorkloadSpec> workloads() noexcept;
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name) noexcept;

// Addresses: host A (10.0.0.1) is the peer, host B (10.0.0.2) receives.
inline constexpr ldlp::wire::MacAddr kMacA{2, 0, 0, 0, 0, 1};
inline constexpr ldlp::wire::MacAddr kMacB{2, 0, 0, 0, 0, 2};
inline constexpr std::uint32_t kIpA = 0x0a000001;
inline constexpr std::uint32_t kIpB = 0x0a000002;
inline constexpr std::uint16_t kUdpSrcPort = 7000;
inline constexpr std::uint16_t kUdpBasePort = 9000;
inline constexpr std::uint16_t kTcpPort = 5001;
inline constexpr std::uint16_t kPeerWindow = 65535;

/// The seeded sequence of flows messages are sent on. Zipf popularity rank
/// r maps to flow (r * 617 + flows / 2) % flows: a fixed spread, so the
/// PCB-list depth of the hot flows is the same for every seed and only
/// the draw order varies with it.
class FlowDraw {
 public:
  FlowDraw(const WorkloadSpec& spec, std::uint64_t seed);
  [[nodiscard]] std::uint32_t next();

 private:
  ldlp::Rng rng_;
  std::uint32_t flows_;
  std::vector<double> cdf_;  ///< Empty for uniform popularity.
};

/// Message payload bytes: stream offset `offset` of flow `flow`. For UDP
/// the offset is tag * msg_bytes, and the first 8 bytes carry the tag.
void fill_pattern(std::span<std::uint8_t> out, std::uint64_t seed,
                  std::uint32_t flow, std::uint64_t offset) noexcept;

/// Eth + IPv4 + UDP frame from A:kUdpSrcPort to B:dst_port, checksummed.
[[nodiscard]] std::vector<std::uint8_t> udp_frame(
    std::uint16_t dst_port, std::span<const std::uint8_t> payload);

/// Eth + IPv4 + TCP ACK|PSH data segment from A:src_port to B:kTcpPort.
[[nodiscard]] std::vector<std::uint8_t> tcp_frame(
    std::uint16_t src_port, std::uint32_t seq, std::uint32_t ack,
    std::span<const std::uint8_t> payload);

/// What the receiver told the peer in a transmitted TCP segment.
struct TxAck {
  std::uint16_t dst_port = 0;
  std::uint32_t ack = 0;
  std::uint16_t window = 0;
};
[[nodiscard]] std::optional<TxAck> parse_tx_ack(
    std::span<const std::uint8_t> frame) noexcept;

/// Open-phase arrival times (seconds from 0), self-similar at the
/// workload's rate: traffic::generate_self_similar_trace with ON/OFF
/// periods short against the phase, so a run spans many of them.
[[nodiscard]] std::vector<double> open_arrivals(const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                double run_seconds);

}  // namespace rxbench

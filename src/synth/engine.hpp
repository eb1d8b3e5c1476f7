// synth::Engine — the one simulated machine behind every model result:
// the paper's section 4 machine (sim::CpuConfig: 100 MHz, 8 KB
// direct-mapped split primary caches, 20-cycle miss) running a path of
// protocol stages over an arrival trace.
//
// A server is the run of consecutive stages on one core. It drains its
// input queue in batches of up to batch_limit messages, runs each of its
// groups over the whole batch (a group's stages back to back per
// message: one stage per group is LDLP, one group of all stages the
// conventional order), and hands the batch on when it completes. Lanes
// are flow-steered copies of the path on private cores and servers only
// feed forward, so the engine evaluates lane by lane and server by server
// in path order. That is exact: a server's departures depend only on its
// input, and full queues drop, never block.
//
// The caller supplies the arrival trace with each arrival's lane, the
// memory layout (an address table), and every derived value: batch
// limits from core::estimate_blocking or core::plan_shards, groups from
// core::plan_groups. A run is a pure function of its inputs.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/cpu_model.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::synth {

inline constexpr std::uint32_t kWholeMessage =
    std::numeric_limits<std::uint32_t>::max();

struct StageSpec {
  std::uint32_t code_bytes = 0;    ///< Fetched whole per message.
  std::uint32_t data_bytes = 0;    ///< Private state read per message.
  std::uint32_t fixed_cycles = 0;  ///< Compute per message.
  /// Compute per message byte touched (the stage's data loop).
  double cycles_per_byte = 0.0;
  /// Message bytes the stage touches: min(message size, message_bytes).
  std::uint32_t message_bytes = kWholeMessage;
  /// Core within the lane. Stage 0 is on core 0 and each later stage is
  /// on the same core as its predecessor or the next one.
  std::uint32_t core = 0;
};

enum class BufferReuse : std::uint8_t {
  /// A fixed ring: the k-th arrival of a lane uses the lane's buffer
  /// k mod (buffer count).
  kRing,
  /// A LIFO pool of the lane's buffers, each held from admission to
  /// completion; an arrival that finds the pool empty is dropped. Only
  /// for lanes that are a single server.
  kPool,
};

struct EngineConfig {
  std::vector<StageSpec> stages;
  /// Group sizes in path order; they sum to stages.size() and no group
  /// spans two cores.
  std::vector<std::uint32_t> groups;
  std::uint32_t lanes = 1;
  std::uint32_t batch_limit = 1;  ///< Messages a server takes per batch.
  /// Coalescing window: a server with queued messages waits until it can
  /// fill a batch or its oldest message has waited this long (the NIC
  /// rx-usecs knob). 0 = take whatever has arrived.
  double coalesce_sec = 0.0;
  /// Hand-off cost per message per group (the paper's section 3.2
  /// estimate is ~40 instructions).
  std::uint32_t queue_cost_cycles = 0;
  std::uint32_t activation_cycles = 0;  ///< Per batch per server.
  std::size_t queue_cap = std::numeric_limits<std::size_t>::max();
  BufferReuse buffers = BufferReuse::kRing;
  sim::CpuConfig cpu{};
};

/// Where everything lives. Cores of different lanes have private caches,
/// so lanes may share code addresses.
struct Layout {
  std::vector<std::uint64_t> code;                  ///< Per stage.
  std::vector<std::vector<std::uint64_t>> data;     ///< [lane][stage].
  std::vector<std::vector<std::uint64_t>> buffers;  ///< [lane][buffer].
};

struct StageStats {
  std::uint64_t messages = 0;
  std::uint64_t activations = 0;  ///< Batches the stage ran over.
  std::uint64_t i_misses = 0;     ///< Attributed to the stage, all cores.
  std::uint64_t d_misses = 0;
  std::uint64_t busy_cycles = 0;
};

struct CoreStats {
  std::uint64_t messages = 0;
  std::uint64_t i_misses = 0;  ///< This core's private i-cache misses.
};

struct EngineResult {
  std::vector<StageStats> stages;
  std::vector<CoreStats> cores;  ///< Index lane * cores_per_lane + core.
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;  ///< Refused at a server queue.
  /// Arrival to departure from the last stage; percentiles are sorted
  /// indices (p99 = the value at floor(0.99 n)).
  double mean_latency_sec = 0.0;
  double p50_latency_sec = 0.0;
  double p99_latency_sec = 0.0;
  double max_latency_sec = 0.0;
  double i_miss_per_msg = 0.0;  ///< All cores, per completed message.
  double d_miss_per_msg = 0.0;
  double mean_batch = 0.0;  ///< Stage messages per stage activation.
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg);

  /// Run `trace` (time-sorted). `lanes` gives each arrival's lane, or is
  /// empty when the config has one lane.
  [[nodiscard]] EngineResult run(
      const Layout& layout, std::span<const traffic::PacketArrival> trace,
      std::span<const std::uint32_t> lanes = {}) const;

 private:
  EngineConfig cfg_;
  std::uint32_t cores_per_lane_ = 1;
};

// ---- The paper's section 4 stack ---------------------------------------
// Five layers of 6 KB code and 256 B data; one layer costs 1376 cycles
// plus a 0.5 cycle/byte loop over the message (1652 cycles for 552 B).
// Messages sit in 500 receive buffers of 2048 B, reused LIFO.

inline constexpr std::uint32_t kPaperLayers = 5;
inline constexpr std::size_t kPaperBuffers = 500;

/// Each message is carried through all layers before the next starts:
/// one group of all stages, batch 1, no queue cost. `duplex` is the
/// request/response extension the paper leaves unevaluated: after the
/// receive layers an application stage (2 KB code, 300 cycles, reads 128
/// message bytes) answers, and the reply descends a distinct transmit
/// code path of the same per-layer size (buffers of 256 B).
[[nodiscard]] EngineConfig conventional(bool duplex = false);
/// Integrated layer processing: conventional, but the data loops are
/// fused, so only the first layer touches the message.
[[nodiscard]] EngineConfig ilp();
/// LDLP: the server takes up to `batch_limit` queued messages and runs
/// them one layer at a time; 40 cycles of queue hand-off per message per
/// layer.
[[nodiscard]] EngineConfig ldlp(std::uint32_t batch_limit,
                                bool duplex = false);

/// Random placement for a config built by the three constructors above
/// (the paper re-places code, data and buffers on every run), with
/// cfg.queue_cap buffers. Code and data live in disjoint 16 MB spaces
/// because the caches are split.
[[nodiscard]] Layout random_layout(const EngineConfig& cfg,
                                   std::uint64_t seed);

// ---- Flow-sharded receive ----------------------------------------------
// A Toeplitz flow hash spreads flows over `lanes` receive queues; each lane
// is a private core that runs the paper's five layers LDLP-style at 400
// cycles per layer, with unbounded queues and no queue or activation cost.

[[nodiscard]] EngineConfig sharded(std::uint32_t lanes,
                                   std::uint32_t batch_limit,
                                   double coalesce_sec);
/// Shared layer text; per-lane layer data and a per-lane ring of
/// batch_limit buffers, in fixed address planes.
[[nodiscard]] Layout sharded_layout(const EngineConfig& cfg);

struct LaneTrace {
  std::vector<traffic::PacketArrival> arrivals;
  std::vector<std::uint32_t> lanes;
};

/// `messages` Poisson arrivals at `rate_hz` of 552 B messages from `flows`
/// client endpoints to one server, each steered to lane
/// hash(flow) mod `lanes`.
[[nodiscard]] LaneTrace shard_trace(std::uint32_t lanes, std::uint32_t flows,
                                    std::uint64_t messages, double rate_hz,
                                    std::uint64_t seed);

/// Busiest core's message count over the fair share of the offered load
/// (1.0 = perfectly even); for configs with one core per lane.
[[nodiscard]] double max_lane_share(const EngineResult& result);

// ---- Staged receive path -----------------------------------------------
// The four stages of pipe::StagedRx — parse, steer, proto, socket — with
// Figure 1's receive code folded so each stage fits the 8 KB i-cache alone
// but the four (16.5 KB) do not. 250 cycles wake a server per batch, 40
// cycles hand a message across each stage boundary, queues hold 512.

/// Stages spread evenly over `cores`: 1 is LDLP on one core, 4 puts one
/// stage on each core (pipelined with batch_limit 1, hybrid above).
[[nodiscard]] EngineConfig staged(std::uint32_t cores,
                                  std::uint32_t batch_limit);
/// Stage code in 64 KB planes, so every stage folds onto the same i-cache
/// sets; stage data packed; a 64-buffer ring per lane.
[[nodiscard]] Layout staged_layout(const EngineConfig& cfg);

}  // namespace ldlp::synth

#include "synth/engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/blocking.hpp"
#include "sim/address_space.hpp"
#include "stack/netdev.hpp"

namespace ldlp::synth {

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  LDLP_ASSERT(!cfg_.stages.empty() && cfg_.lanes >= 1 &&
              cfg_.batch_limit >= 1 && cfg_.cpu.clock_hz > 0.0);
  std::uint32_t core = 0;
  for (const StageSpec& stage : cfg_.stages) {
    LDLP_ASSERT_MSG(stage.core == core || stage.core == core + 1,
                    "stage 0 is on core 0 and cores follow the path");
    core = stage.core;
  }
  cores_per_lane_ = core + 1;
  std::size_t first = 0;
  for (const std::uint32_t group : cfg_.groups) {
    LDLP_ASSERT_MSG(group != 0 && first + group <= cfg_.stages.size() &&
                        cfg_.stages[first].core ==
                            cfg_.stages[first + group - 1].core,
                    "groups partition the stages within cores");
    first += group;
  }
  LDLP_ASSERT(first == cfg_.stages.size());
  LDLP_ASSERT_MSG(cfg_.buffers != BufferReuse::kPool || cores_per_lane_ == 1,
                  "pooled buffers need single-server lanes");
}

EngineResult Engine::run(const Layout& layout,
                         std::span<const traffic::PacketArrival> trace,
                         std::span<const std::uint32_t> lanes) const {
  const std::size_t stage_count = cfg_.stages.size();
  LDLP_ASSERT(lanes.empty() ? cfg_.lanes == 1 : lanes.size() == trace.size());
  LDLP_ASSERT(layout.code.size() == stage_count &&
              layout.data.size() == cfg_.lanes &&
              layout.buffers.size() == cfg_.lanes);
  LDLP_ASSERT_MSG(std::is_sorted(trace.begin(), trace.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.time < b.time;
                                 }),
                  "trace must be time-sorted");

  EngineResult result;
  result.stages.resize(stage_count);
  result.cores.resize(std::size_t{cfg_.lanes} * cores_per_lane_);
  result.offered = trace.size();
  sim::MemorySystem mem(cfg_.cpu.memory);
  mem.set_context_count(result.cores.size());

  std::vector<std::vector<std::size_t>> lane_arrivals(cfg_.lanes);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint32_t lane = lanes.empty() ? 0 : lanes[i];
    LDLP_ASSERT(lane < cfg_.lanes);
    lane_arrivals[lane].push_back(i);
  }

  // A message in flight: when it reaches the next server, and its
  // position among its lane's arrivals.
  struct Hop {
    double time;
    std::size_t pos;
  };
  std::vector<double> latencies;
  latencies.reserve(trace.size());
  const bool pool = cfg_.buffers == BufferReuse::kPool;

  for (std::uint32_t lane = 0; lane < cfg_.lanes; ++lane) {
    const std::vector<std::size_t>& arrivals = lane_arrivals[lane];
    const std::vector<std::uint64_t>& data = layout.data[lane];
    const std::vector<std::uint64_t>& buffers = layout.buffers[lane];
    LDLP_ASSERT(data.size() == stage_count && !buffers.empty());
    // Pool buffers are taken at admission; ring buffers follow position.
    std::vector<std::size_t> pooled(arrivals.size());
    std::vector<std::size_t> free_buffers;
    for (std::size_t b = pool ? buffers.size() : 0; b-- > 0;)
      free_buffers.push_back(b);

    const auto serve = [&](std::size_t s, std::size_t pos) {
      const StageSpec& stage = cfg_.stages[s];
      const std::uint32_t touched =
          std::min(trace[arrivals[pos]].size_bytes, stage.message_bytes);
      const std::uint64_t buffer =
          buffers[pool ? pooled[pos] : pos % buffers.size()];
      mem.set_scope(static_cast<std::uint32_t>(s));
      // Code, then stage data, then the message: the order of accesses
      // decides the conflicts in a direct-mapped cache.
      std::uint64_t cycles =
          mem.access(sim::Access::kIFetch, layout.code[s], stage.code_bytes);
      cycles += mem.access(sim::Access::kRead, data[s], stage.data_bytes);
      cycles += mem.access(sim::Access::kRead, buffer, touched);
      return cycles + stage.fixed_cycles +
             static_cast<std::uint64_t>(
                 std::llround(stage.cycles_per_byte * touched));
    };

    std::vector<Hop> in;
    for (std::size_t pos = 0; pos < arrivals.size(); ++pos)
      in.push_back({trace[arrivals[pos]].time, pos});
    std::size_t first_stage = 0;
    std::size_t group = 0;
    for (std::uint32_t core = 0; core < cores_per_lane_; ++core) {
      CoreStats& core_stats = result.cores[lane * cores_per_lane_ + core];
      mem.set_context(lane * cores_per_lane_ + core);
      // This core's server: its groups, in path order.
      std::vector<std::uint32_t> server_groups;
      std::size_t end_stage = first_stage;
      while (end_stage < stage_count && cfg_.stages[end_stage].core == core) {
        server_groups.push_back(cfg_.groups[group]);
        end_stage += cfg_.groups[group++];
      }

      std::vector<Hop> out;
      out.reserve(in.size());
      std::deque<std::size_t> queue;  // indices into `in`
      std::size_t next = 0;
      double clock = 0.0;
      const auto admit = [&](double upto) {
        for (; next < in.size() && in[next].time <= upto; ++next) {
          if (queue.size() >= cfg_.queue_cap ||
              (pool && free_buffers.empty())) {
            ++result.dropped;
            continue;
          }
          if (pool) {
            pooled[in[next].pos] = free_buffers.back();
            free_buffers.pop_back();
          }
          queue.push_back(next);
        }
      };

      std::vector<std::size_t> batch;
      while (next < in.size() || !queue.empty()) {
        if (queue.empty()) {
          clock = std::max(clock, in[next].time);
          admit(clock);
          continue;
        }
        if (cfg_.coalesce_sec > 0.0) {
          // Open the batch when it can fill or the oldest message has
          // waited out the window, whichever is first.
          double open = in[queue.front()].time + cfg_.coalesce_sec;
          const std::size_t fill = cfg_.batch_limit - 1;
          if (fill < queue.size()) {
            open = std::min(open, in[queue[fill]].time);
          } else if (next + (fill - queue.size()) < in.size()) {
            open = std::min(open, in[next + (fill - queue.size())].time);
          }
          if (clock < open) {
            clock = open;
            admit(clock);
          }
        }
        batch.clear();
        while (!queue.empty() && batch.size() < cfg_.batch_limit) {
          batch.push_back(queue.front());
          queue.pop_front();
        }
        core_stats.messages += batch.size();

        std::uint64_t cycles = cfg_.activation_cycles;
        result.stages[first_stage].busy_cycles += cfg_.activation_cycles;
        std::size_t s0 = first_stage;
        for (const std::uint32_t size : server_groups) {
          for (std::size_t s = s0; s < s0 + size; ++s)
            ++result.stages[s].activations;
          for (const std::size_t m : batch) {
            for (std::size_t s = s0; s < s0 + size; ++s) {
              const std::uint64_t c = serve(s, in[m].pos);
              result.stages[s].busy_cycles += c;
              ++result.stages[s].messages;
              cycles += c;
            }
            result.stages[s0 + size - 1].busy_cycles +=
                cfg_.queue_cost_cycles;
            cycles += cfg_.queue_cost_cycles;
          }
          s0 += size;
        }

        const double end =
            clock + static_cast<double>(cycles) / cfg_.cpu.clock_hz;
        admit(end);  // arrivals during service see the backlog
        clock = end;
        for (const std::size_t m : batch) {
          out.push_back({end, in[m].pos});
          if (pool) free_buffers.push_back(pooled[in[m].pos]);
        }
      }
      in = std::move(out);
      first_stage = end_stage;
    }
    for (const Hop& done : in)
      latencies.push_back(done.time - trace[arrivals[done.pos]].time);
  }

  std::uint64_t i_total = 0;
  std::uint64_t d_total = 0;
  std::uint64_t stage_messages = 0;
  std::uint64_t activations = 0;
  const auto& scopes = mem.scope_misses();
  for (std::size_t s = 0; s < stage_count; ++s) {
    StageStats& stage = result.stages[s];
    if (s < scopes.size()) {
      stage.i_misses = scopes[s].i_misses;
      stage.d_misses = scopes[s].d_misses;
    }
    i_total += stage.i_misses;
    d_total += stage.d_misses;
    stage_messages += stage.messages;
    activations += stage.activations;
  }
  for (std::size_t ctx = 0; ctx < result.cores.size(); ++ctx)
    result.cores[ctx].i_misses = mem.icache_of(ctx).stats().misses;

  result.completed = latencies.size();
  if (latencies.empty()) return result;
  const auto n = static_cast<double>(latencies.size());
  result.i_miss_per_msg = static_cast<double>(i_total) / n;
  result.d_miss_per_msg = static_cast<double>(d_total) / n;
  result.mean_batch = static_cast<double>(stage_messages) /
                      static_cast<double>(activations);
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  result.mean_latency_sec = sum / n;
  std::sort(latencies.begin(), latencies.end());
  result.p50_latency_sec = latencies[latencies.size() / 2];
  result.p99_latency_sec = latencies[std::min(
      latencies.size() - 1, static_cast<std::size_t>(n * 0.99))];
  result.max_latency_sec = latencies.back();
  return result;
}

// ---- The paper's section 4 stack ---------------------------------------

namespace {

constexpr std::uint32_t kLayerCodeBytes = 6 * 1024;
constexpr std::uint32_t kLayerDataBytes = 256;
constexpr std::uint32_t kRxBufferBytes = 2048;
constexpr std::uint32_t kDuplexBufferBytes = 256;

EngineConfig paper_stack(bool duplex) {
  const std::uint32_t buffer_bytes =
      duplex ? kDuplexBufferBytes : kRxBufferBytes;
  const StageSpec layer{kLayerCodeBytes, kLayerDataBytes, 1376, 0.5,
                        buffer_bytes, 0};
  EngineConfig cfg;
  cfg.stages.assign(kPaperLayers, layer);
  if (duplex) {
    cfg.stages.push_back(StageSpec{2048, 0, 300, 0.0, 128, 0});
    cfg.stages.insert(cfg.stages.end(), kPaperLayers, layer);
  }
  cfg.queue_cap = kPaperBuffers;
  cfg.buffers = BufferReuse::kPool;
  return cfg;
}

}  // namespace

EngineConfig conventional(bool duplex) {
  EngineConfig cfg = paper_stack(duplex);
  cfg.groups = {static_cast<std::uint32_t>(cfg.stages.size())};
  return cfg;
}

EngineConfig ilp() {
  EngineConfig cfg = conventional();
  for (std::size_t s = 1; s < cfg.stages.size(); ++s)
    cfg.stages[s].message_bytes = 0;
  return cfg;
}

EngineConfig ldlp(std::uint32_t batch_limit, bool duplex) {
  EngineConfig cfg = paper_stack(duplex);
  cfg.groups.assign(cfg.stages.size(), 1);
  cfg.batch_limit = batch_limit;
  cfg.queue_cost_cycles = 40;
  return cfg;
}

Layout random_layout(const EngineConfig& cfg, std::uint64_t seed) {
  LDLP_ASSERT(cfg.stages.size() == kPaperLayers ||
              cfg.stages.size() == 2 * kPaperLayers + 1);
  const bool duplex = cfg.stages.size() != kPaperLayers;
  const std::uint32_t buffer_bytes =
      duplex ? kDuplexBufferBytes : kRxBufferBytes;
  Rng rng(seed);
  sim::AddressSpace code_space(1ull << 24, 32);
  sim::AddressSpace data_space(1ull << 24, 32);
  Layout layout;
  std::vector<std::uint64_t> data;
  std::vector<std::uint64_t> tx_code;
  for (std::uint32_t i = 0; i < kPaperLayers; ++i) {
    const std::string layer = "L" + std::to_string(i);
    layout.code.push_back(
        code_space.allocate(layer + ".text", kLayerCodeBytes, rng).base);
    data.push_back(
        data_space.allocate(layer + ".data", kLayerDataBytes, rng).base);
    if (duplex) {
      tx_code.push_back(
          code_space.allocate(layer + ".tx_text", kLayerCodeBytes, rng).base);
    }
  }
  if (duplex) {
    // The application stage, then the transmit layers top down; each
    // transmit layer shares its receive layer's data.
    layout.code.push_back(code_space.allocate("app.text", 2048, rng).base);
    layout.code.insert(layout.code.end(), tx_code.rbegin(), tx_code.rend());
    const std::vector<std::uint64_t> rx_data = data;
    data.push_back(0);
    data.insert(data.end(), rx_data.rbegin(), rx_data.rend());
  }
  layout.data.push_back(std::move(data));
  std::vector<std::uint64_t> buffers;
  for (std::size_t i = 0; i < cfg.queue_cap; ++i) {
    buffers.push_back(
        data_space.allocate("buf" + std::to_string(i), buffer_bytes, rng)
            .base);
  }
  layout.buffers.push_back(std::move(buffers));
  return layout;
}

// ---- Fixed address planes ----------------------------------------------

namespace {

// Disjoint planes, far enough apart that no footprint crosses.
constexpr std::uint64_t kCodeBase = 0x0100'0000;
constexpr std::uint64_t kDataBase = 0x0800'0000;
constexpr std::uint64_t kMsgBase = 0x4000'0000;

constexpr std::uint64_t align_up(std::uint64_t n, std::uint64_t a) {
  return (n + a - 1) / a * a;
}

/// Stage s's code at kCodeBase + s * code_stride; each lane's stage data
/// packed after the previous lane's; lane l's `slots` buffers at
/// kMsgBase + offset + (l * slots + k) * slot_stride.
Layout plane_layout(const EngineConfig& cfg, std::uint64_t code_stride,
                    std::uint64_t slots, std::uint64_t slot_stride,
                    std::uint64_t offset) {
  Layout layout;
  for (std::size_t s = 0; s < cfg.stages.size(); ++s)
    layout.code.push_back(kCodeBase + s * code_stride);
  std::uint64_t data = kDataBase;
  for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane) {
    std::vector<std::uint64_t>& row = layout.data.emplace_back();
    for (const StageSpec& stage : cfg.stages) {
      row.push_back(data);
      data += stage.data_bytes;
    }
    std::vector<std::uint64_t>& ring = layout.buffers.emplace_back();
    for (std::uint64_t k = 0; k < slots; ++k)
      ring.push_back(kMsgBase + offset + (lane * slots + k) * slot_stride);
  }
  return layout;
}

}  // namespace

// ---- Flow-sharded receive ----------------------------------------------

EngineConfig sharded(std::uint32_t lanes, std::uint32_t batch_limit,
                     double coalesce_sec) {
  EngineConfig cfg;
  cfg.stages.assign(kPaperLayers,
                    StageSpec{kLayerCodeBytes, kLayerDataBytes, 400, 0.0,
                              kWholeMessage, 0});
  cfg.groups.assign(kPaperLayers, 1);
  cfg.lanes = lanes;
  cfg.batch_limit = batch_limit;
  cfg.coalesce_sec = coalesce_sec;
  return cfg;
}

Layout sharded_layout(const EngineConfig& cfg) {
  return plane_layout(cfg, align_up(kLayerCodeBytes, 64), cfg.batch_limit,
                      align_up(core::StackFootprint{}.message_bytes, 64), 0);
}

LaneTrace shard_trace(std::uint32_t lanes, std::uint32_t flows,
                      std::uint64_t messages, double rate_hz,
                      std::uint64_t seed) {
  LDLP_ASSERT(lanes >= 1 && flows >= 1 && rate_hz > 0.0);
  // Distinct client endpoints talking to one server: the small-message
  // server workload of section 4.
  const stack::FlowHash hash;
  std::vector<std::uint32_t> flow_lane(flows);
  for (std::uint32_t f = 0; f < flows; ++f) {
    // Client 10.0.x.y, port 10000 + f, to the server's UDP port 53.
    const stack::FlowKey key{0x0a000000u + f + 1, 0x0a00ffffu,
                             static_cast<std::uint16_t>(10000 + f), 53, 17};
    flow_lane[f] = hash(key) % lanes;
  }
  LaneTrace out;
  Rng rng(seed);
  const double mean_gap_sec = 1.0 / rate_hz;
  double now = 0.0;
  for (std::uint64_t m = 0; m < messages; ++m) {
    now += rng.exponential(mean_gap_sec);
    const auto flow = static_cast<std::uint32_t>(rng.bounded(flows));
    out.arrivals.push_back({now, core::StackFootprint{}.message_bytes});
    out.lanes.push_back(flow_lane[flow]);
  }
  return out;
}

double max_lane_share(const EngineResult& result) {
  std::uint64_t busiest = 0;
  for (const CoreStats& core : result.cores)
    busiest = std::max(busiest, core.messages);
  const double fair = static_cast<double>(result.offered) /
                      static_cast<double>(result.cores.size());
  return fair > 0.0 ? static_cast<double>(busiest) / fair : 1.0;
}

// ---- Staged receive path -----------------------------------------------

EngineConfig staged(std::uint32_t cores, std::uint32_t batch_limit) {
  // Figure 1's rx-path code folded into four stages: driver+eth glue into
  // parse, the demux/hash into steer, ip+tcp input into proto, sbappend/
  // sowakeup into socket.
  EngineConfig cfg;
  cfg.stages = {
      {3 * 1024, 160, 300, 0.5, kWholeMessage, 0},  // parse
      {1536, 256, 120, 0.5, kWholeMessage, 0},      // steer
      {7 * 1024, 640, 900, 0.5, kWholeMessage, 0},  // proto
      {5 * 1024, 256, 420, 0.5, kWholeMessage, 0},  // socket
  };
  LDLP_ASSERT(cores >= 1 && cores <= cfg.stages.size());
  for (std::size_t s = 0; s < cfg.stages.size(); ++s)
    cfg.stages[s].core = static_cast<std::uint32_t>(s * cores /
                                                    cfg.stages.size());
  cfg.groups.assign(cfg.stages.size(), 1);
  cfg.batch_limit = batch_limit;
  cfg.queue_cost_cycles = 40;
  cfg.activation_cycles = 250;
  cfg.queue_cap = 512;
  return cfg;
}

Layout staged_layout(const EngineConfig& cfg) {
  // A non-power-of-two buffer stride spreads consecutive in-flight
  // messages across the d-cache index space.
  return plane_layout(cfg, 64 * 1024, 64, 2176, 2048);
}

}  // namespace ldlp::synth

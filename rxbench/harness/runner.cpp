#include "harness/runner.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "harness/rig.hpp"
#include "obs/json.hpp"

namespace rxbench {
namespace {

namespace pipe = ldlp::pipe;

// The closed and open phases do a fixed amount of work per second of
// --seconds (WorkloadSpec). The warm-up does a tenth of the closed
// phase's; the traced run comes on top, for a quarter of --seconds.
constexpr std::uint64_t kWarmDivisor = 10;
constexpr double kTraceShare = 0.25;
constexpr int kSetupReps = 15;
/// Closed-phase slice: stack time one schedule runs before the next one
/// takes over. The open phase is served in chunks, the schedules taking
/// turns the same way.
constexpr std::int64_t kSliceNs = 2'000'000;
constexpr std::size_t kOpenChunks = 128;
/// The machine's vCPUs are shared with other tenants. Its steady state is
/// the contended one; now and then it runs up to 1.5x faster for a while
/// (another tenant goes idle), and how much of a run such stretches cover
/// differs from run to run. End-to-end times are therefore taken per
/// slice or per chunk and summarised by the value three quarters of them
/// meet, which such stretches do not move: rx_msg_per_s is the 25th
/// percentile of the slice rates, and lat_p50_us the 75th percentile over
/// the chunks of each chunk's median (see chunk_latency for lat_p99_us).
constexpr double kSliceRateQuantile = 0.25;
constexpr double kChunkP50Quantile = 0.75;
constexpr std::size_t kMaxSpans = std::size_t{1} << 19;

constexpr std::size_t kConv = 0;
constexpr std::size_t kLdlp = 1;
constexpr std::size_t kStaged = 2;

template <class T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), at, v.end());
  const double a = *at;
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(at + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Open-phase latency from the per-chunk percentiles (chunk c ends at
/// ends[c]). p50 is kChunkP50Quantile over the chunks' medians. A chunk's
/// p99 rests on its few slowest messages, and both the machine's speed in
/// that chunk and sporadic events move it; dividing it by the chunk's own
/// median cancels the speed, and the median of those ratios over the
/// chunks passes over the events. p99 is that ratio times p50.
Latency chunk_latency(const std::vector<float>& lat,
                      const std::vector<std::size_t>& ends) {
  std::vector<double> p50;
  std::vector<double> tail;  // p99 / p50 per chunk
  std::vector<float> chunk;
  std::size_t lo = 0;
  for (const std::size_t hi : ends) {
    chunk.assign(lat.begin() + static_cast<std::ptrdiff_t>(lo),
                 lat.begin() + static_cast<std::ptrdiff_t>(hi));
    lo = hi;
    if (chunk.empty()) continue;
    const double median = quantile(chunk, 0.50);
    p50.push_back(median);
    if (median > 0.0) tail.push_back(quantile(chunk, 0.99) / median);
  }
  Latency out;
  out.p50_us = quantile(p50, kChunkP50Quantile);
  out.p99_us = out.p50_us * quantile(tail, 0.5);
  return out;
}

/// The CPUs this process may run on. Slice rounds and chunks move
/// round-robin over them: contention from other tenants tends to sit on
/// one vCPU for seconds at a time, and a run that visits every vCPU is not
/// slowed throughout by landing on that one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  void move_to(std::size_t turn) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);  // best effort
  }

 private:
  std::vector<int> cpus_;
};

/// One closed-phase slice: closed cycles until kSliceNs of service time.
/// A slice that delivers nothing means the stack stopped delivering.
void closed_slice(Rig& rig, PhaseStats& slice) {
  while (rig.ok() && slice.busy_ns < kSliceNs) rig.closed_cycle(slice);
  if (rig.ok() && slice.delivered == 0)
    rig.fail("closed phase: a slice delivered nothing");
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double wall_now() { return static_cast<double>(now_ns()) * 1e-9; }

using Rigs = std::array<std::unique_ptr<Rig>, 3>;

Rigs make_rigs(const WorkloadSpec& spec, std::uint64_t seed) {
  Rigs rigs;
  for (std::size_t i = 0; i < kScheds.size(); ++i)
    rigs[i] = std::make_unique<Rig>(spec, kScheds[i], seed);
  return rigs;
}

std::uint64_t layer_drops(const Counters& c) {
  std::uint64_t d = 0;
  for (const auto& l : c.layer) d += l.drops;
  // The socket stage is the graph's socket layer, already counted.
  for (std::size_t s = 0; s + 1 < pipe::kStageCount; ++s) d += c.pipe[s].drops;
  return d;
}

std::uint64_t shed(const Counters& c) {
  return c.graph.shed_entry + c.graph.shed_depth;
}

/// Frames a phase lost: ring overflow, layer-queue drops and shedding.
std::uint64_t lost(const PhaseStats& ps) {
  return (ps.end.rx_drops - ps.begin.rx_drops) +
         (layer_drops(ps.end) - layer_drops(ps.begin)) +
         (shed(ps.end) - shed(ps.begin));
}

/// The phase ledger: offered = delivered + ring drops + layer drops +
/// shed, with nothing left in flight. A TCP segment the ring dropped is
/// sent again, so it counts as offered once per attempt.
void check_ledger(Rig& rig, const PhaseStats& ps, const char* phase) {
  rig.check_quiescent();
  if (ps.offered == ps.delivered + lost(ps)) return;
  rig.fail(std::string(phase) + " ledger: offered " +
           std::to_string(ps.offered) + " != delivered " +
           std::to_string(ps.delivered) + " + lost " +
           std::to_string(lost(ps)));
}

bool all_ok(const Rigs& rigs, RunResult& out) {
  for (const auto& rig : rigs) {
    if (!rig->ok()) {
      out.error = rig->error();
      return false;
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct TraceTotals {
  std::array<double, kSpanNames> busy_ns{};
  std::array<double, kSpanNames> wait_ns{};
  std::array<std::uint64_t, kSpanNames> waits{};
};

/// Per-layer time from the spans: each call span's duration is its
/// layer's self time (call spans do not nest); a layer's wait is the time
/// from the end of its pump's device span (batch admission) to the start
/// of the layer's first pass in that pump.
TraceTotals sum_spans(const std::vector<Span>& spans) {
  TraceTotals t;
  std::int64_t admitted = 0;
  std::array<std::uint32_t, kSpanNames> seen_in{};
  std::uint32_t pump = kNoParent;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto n = static_cast<std::size_t>(s.name);
    if (s.name == SpanName::kPump) {
      pump = i;
      continue;
    }
    t.busy_ns[n] += static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == SpanName::kDevice) {
      admitted = s.end_ns;
      continue;
    }
    if (s.parent == pump && seen_in[n] != pump + 1) {
      seen_in[n] = pump + 1;
      t.wait_ns[n] += static_cast<double>(s.start_ns - admitted);
      ++t.waits[n];
    }
  }
  return t;
}

void write_spans(const std::string& path, const std::array<TraceLog, 2>& logs) {
  std::ofstream out(path);
  if (!out) return;
  out << "schedule\tid\tparent\tname\tstart_ns\tend_ns\n";
  const std::array<const char*, 2> names{"conv", "ldlp"};
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const auto& spans = logs[r].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << names[r] << '\t' << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << '\t' << span_name(s.name) << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
}

}  // namespace

RunResult run_benchmark(const RunConfig& cfg) {
  RunResult out;
  const WorkloadSpec& spec = *cfg.spec;
  const double run_start = wall_now();
  const CpuRotation cpus;

  // ---- Set-up: hosts, ARP, handshakes; median of several. -------------
  std::vector<double> setup_s;
  Rigs rigs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rigs = Rigs{};
    const std::int64_t t0 = now_ns();
    rigs = make_rigs(spec, cfg.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (!all_ok(rigs, out)) return out;
  const std::vector<double> arrivals =
      open_arrivals(spec, cfg.seed, cfg.seconds);

  // ---- Closed phase: ring refilled before every pump. ------------------
  std::array<PhaseStats, 3> closed;
  std::array<std::vector<double>, 3> slice_rate;
  const auto closed_msgs =
      static_cast<std::uint64_t>(spec.closed_msgs_per_run_sec * cfg.seconds);
  for (auto& rig : rigs) {
    for (std::uint64_t warmed = 0;
         rig->ok() && warmed < closed_msgs / kWarmDivisor;) {
      PhaseStats slice;
      closed_slice(*rig, slice);
      warmed += slice.delivered;
    }
  }
  if (!all_ok(rigs, out)) return out;
  for (std::size_t i = 0; i < 3; ++i) closed[i].begin = rigs[i]->counters();
  for (std::size_t round = 0;; ++round) {
    cpus.move_to(round);
    bool done = true;
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t i = (round + k) % 3;  // rotate who goes first
      if (closed[i].delivered >= closed_msgs) continue;
      done = false;
      PhaseStats slice;
      closed_slice(*rigs[i], slice);
      closed[i].offered += slice.offered;
      closed[i].delivered += slice.delivered;
      closed[i].busy_ns += slice.busy_ns;
      closed[i].pumps += slice.pumps;
      closed[i].ring_depth += slice.ring_depth;
      slice_rate[i].push_back(static_cast<double>(slice.delivered) * 1e9 /
                              static_cast<double>(slice.busy_ns));
    }
    if (!all_ok(rigs, out)) return out;
    if (done) break;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    closed[i].end = rigs[i]->counters();
    check_ledger(*rigs[i], closed[i], "closed");
    if (closed[i].offered != closed[i].delivered)
      rigs[i]->fail("closed phase lost messages");
  }
  if (!all_ok(rigs, out)) return out;

  // ---- Open phase: self-similar arrivals on the service clock. ---------
  std::array<PhaseStats, 3> open;
  std::array<std::int64_t, 3> open_wall{};
  std::array<std::vector<std::size_t>, 3> chunk_end;
  for (std::size_t i = 0; i < 3; ++i) {
    open[i].begin = rigs[i]->counters();
    rigs[i]->open_begin(arrivals, open[i]);
  }
  for (std::size_t c = 1; c <= kOpenChunks; ++c) {
    const std::size_t end = arrivals.size() * c / kOpenChunks;
    cpus.move_to(c);
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t i = (c + k) % 3;
      const std::int64_t t0 = now_ns();
      if (c == kOpenChunks) {
        rigs[i]->open_finish(open[i]);
      } else {
        rigs[i]->open_run(end, open[i]);
      }
      open_wall[i] += now_ns() - t0;
      chunk_end[i].push_back(open[i].lat_us.size());
    }
    if (!all_ok(rigs, out)) return out;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    open[i].end = rigs[i]->counters();
    check_ledger(*rigs[i], open[i], "open");
  }
  if (!all_ok(rigs, out)) return out;

  // ---- Traced run (conv and ldlp), closed loop. ------------------------
  // Untraced ldlp slices run in the same rounds, so the tracing overhead
  // compares slices taken side by side.
  std::array<TraceLog, 2> logs;
  std::array<PhaseStats, 2> traced;
  std::array<std::vector<double>, 2> traced_rate;
  std::vector<double> untraced_ldlp_rate;
  if (cfg.trace) {
    for (auto& log : logs) log.spans.reserve(kMaxSpans + 4096);
    const double trace_end = wall_now() + kTraceShare * cfg.seconds;
    const auto full = [&] {
      return logs[0].spans.size() >= kMaxSpans ||
             logs[1].spans.size() >= kMaxSpans;
    };
    for (std::size_t round = 0; !full() && wall_now() < trace_end; ++round) {
      cpus.move_to(round);
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t r = (round + k) % 3;
        PhaseStats slice;
        if (r == 2) {
          closed_slice(*rigs[kLdlp], slice);
          untraced_ldlp_rate.push_back(static_cast<double>(slice.delivered) *
                                       1e9 /
                                       static_cast<double>(slice.busy_ns));
          continue;
        }
        while (rigs[r]->ok() && slice.busy_ns < kSliceNs && !full())
          rigs[r]->traced_cycle(slice, logs[r]);
        traced[r].delivered += slice.delivered;
        if (slice.busy_ns > 0)
          traced_rate[r].push_back(static_cast<double>(slice.delivered) * 1e9 /
                                   static_cast<double>(slice.busy_ns));
      }
      if (!all_ok(rigs, out)) return out;
    }
    for (std::size_t r = 0; r < 2; ++r) rigs[r]->check_quiescent();
    if (!all_ok(rigs, out)) return out;
    if (!cfg.spans_path.empty()) write_spans(cfg.spans_path, logs);
  }

  // ---- Result. ---------------------------------------------------------
  // Every message offered was read, or a phase check would have failed
  // the run: a frame the ring dropped is sent again and delivered late
  // (loss_frac still counts the drop). So no message fails.
  out.correct = true;
  for (std::size_t i = 0; i < 3; ++i)
    out.attempted += closed[i].delivered + open[i].delivered;
  const auto emit = [&out](std::string name, double value, const char* unit) {
    out.metrics.push_back(
        Metric{std::move(name), std::isfinite(value) ? value : 0.0, unit});
  };
  std::array<double, 3> rx_rate{};
  for (std::size_t i = 0; i < 3; ++i)
    rx_rate[i] = quantile(slice_rate[i], kSliceRateQuantile);

  if (!cfg.trace) {
    emit("setup_s", quantile(setup_s, 0.5), "s");
    emit("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string s = sched_name(kScheds[i]);
      emit("rx_msg_per_s." + s, rx_rate[i], "msg/s");
      const Latency lat = chunk_latency(open[i].lat_us, chunk_end[i]);
      emit("lat_p50_us." + s, lat.p50_us, "us");
      emit("lat_p99_us." + s, lat.p99_us, "us");
    }
    std::fprintf(stderr, "rxbench: %s seed %llu ran %.1f s\n",
                 std::string(spec.name).c_str(),
                 static_cast<unsigned long long>(cfg.seed),
                 wall_now() - run_start);
    return out;
  }

  // Per-layer time from the traced run.
  std::array<TraceTotals, 2> tt{sum_spans(logs[0].spans),
                                sum_spans(logs[1].spans)};
  const auto per_msg = [&](std::size_t r, SpanName n) {
    return ratio(tt[r].busy_ns[static_cast<std::size_t>(n)],
                 static_cast<double>(traced[r].delivered));
  };
  const auto wait = [&](std::size_t r, SpanName n) {
    const auto k = static_cast<std::size_t>(n);
    return ratio(tt[r].wait_ns[k], static_cast<double>(tt[r].waits[k]));
  };
  constexpr std::array<SpanName, 7> kLdlpSpans{
      SpanName::kDevice, SpanName::kEth,    SpanName::kIp, SpanName::kTcp,
      SpanName::kUdp,    SpanName::kSocket, SpanName::kApp};
  for (const SpanName n : kLdlpSpans)
    emit(std::string(span_name(n)) + ".ns_per_msg.ldlp", per_msg(kLdlp, n),
         "ns");
  for (const SpanName n : kLdlpSpans)
    if (n != SpanName::kDevice)
      emit(std::string(span_name(n)) + ".wait_ns.ldlp", wait(kLdlp, n), "ns");
  for (const SpanName n : {SpanName::kDevice, SpanName::kStack, SpanName::kApp})
    emit(std::string(span_name(n)) + ".ns_per_msg.conv", per_msg(kConv, n),
         "ns");
  emit("trace.overhead_share.ldlp",
       1.0 - ratio(quantile(traced_rate[kLdlp], 0.5),
                   quantile(untraced_ldlp_rate, 0.5)),
       "share");
  emit("trace.unattributed_passes",
       static_cast<double>(logs[kLdlp].unattributed_passes), "count");

  // Counts from the untraced open phase.
  for (const std::size_t i : {kLdlp, kStaged}) {
    const std::string s = sched_name(kScheds[i]);
    for (std::size_t l = 0; l < kGraphLayers; ++l) {
      const auto& a = open[i].begin.layer[l];
      const auto& b = open[i].end.layer[l];
      emit(std::string(kGraphLayerNames[l]) + ".mean_batch." + s,
           ratio(static_cast<double>(b.processed - a.processed),
                 static_cast<double>(b.activations - a.activations)),
           "msg");
      emit(std::string(kGraphLayerNames[l]) + ".drops." + s,
           static_cast<double>(b.drops - a.drops), "count");
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string s = sched_name(kScheds[i]);
    const PhaseStats& ps = open[i];
    emit("device.rx_drops." + s,
         static_cast<double>(ps.end.rx_drops - ps.begin.rx_drops), "count");
    emit("device.frames_per_pump." + s,
         ratio(static_cast<double>(ps.ring_depth),
               static_cast<double>(ps.pumps)),
         "frames");
    emit("sched.shed." + s, static_cast<double>(shed(ps.end) - shed(ps.begin)),
         "count");
    emit("sched.busy_share." + s,
         ratio(static_cast<double>(ps.busy_ns) * 1e-9,
               ps.clock_end - ps.clock_start),
         "share");
    emit("gen.wall_over_service." + s,
         ratio(static_cast<double>(open_wall[i]),
               static_cast<double>(ps.busy_ns)),
         "ratio");
    emit("loss_frac." + s,
         ratio(static_cast<double>(lost(ps)), static_cast<double>(ps.offered)),
         "share");
  }
  // TCP and buffer counts over both untraced phases of every schedule.
  Counters d;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    for (const PhaseStats* ps : {&closed[i], &open[i]}) {
      d.pcb_hits += ps->end.pcb_hits - ps->begin.pcb_hits;
      d.pcb_misses += ps->end.pcb_misses - ps->begin.pcb_misses;
      d.segs_in += ps->end.segs_in - ps->begin.segs_in;
      d.fast_path += ps->end.fast_path - ps->begin.fast_path;
      d.acks_sent += ps->end.acks_sent - ps->begin.acks_sent;
      d.pool.mbuf_allocs +=
          ps->end.pool.mbuf_allocs - ps->begin.pool.mbuf_allocs;
      d.pool.cluster_allocs +=
          ps->end.pool.cluster_allocs - ps->begin.pool.cluster_allocs;
      d.pool.alloc_failures +=
          ps->end.pool.alloc_failures - ps->begin.pool.alloc_failures;
      delivered += ps->delivered;
    }
  }
  const auto msgs = static_cast<double>(delivered);
  emit("tcp.pcb_cache_hit_ratio",
       ratio(static_cast<double>(d.pcb_hits),
             static_cast<double>(d.pcb_hits + d.pcb_misses)),
       "share");
  emit("tcp.fast_path_share",
       ratio(static_cast<double>(d.fast_path), static_cast<double>(d.segs_in)),
       "share");
  emit("tcp.acks_per_msg", ratio(static_cast<double>(d.acks_sent), msgs),
       "count");
  emit("buf.mbuf_allocs_per_msg",
       ratio(static_cast<double>(d.pool.mbuf_allocs), msgs), "count");
  emit("buf.cluster_allocs_per_msg",
       ratio(static_cast<double>(d.pool.cluster_allocs), msgs), "count");
  emit("buf.alloc_failures", static_cast<double>(d.pool.alloc_failures),
       "count");
  // The staged schedule's stage queues, open phase.
  const PhaseStats& st = open[kStaged];
  for (std::size_t s = 0; s < pipe::kStageCount; ++s) {
    const std::string p =
        std::string("pipe.") + pipe::stage_name(static_cast<pipe::Stage>(s));
    emit(p + ".activations",
         static_cast<double>(st.end.pipe[s].activations -
                             st.begin.pipe[s].activations),
         "count");
    emit(p + ".drops",
         static_cast<double>(st.end.pipe[s].drops - st.begin.pipe[s].drops),
         "count");
    emit(p + ".high_water", static_cast<double>(st.end.pipe[s].high_water),
         "frames");
  }
  std::fprintf(stderr, "rxbench: %s seed %llu traced run took %.1f s\n",
               std::string(spec.name).c_str(),
               static_cast<unsigned long long>(cfg.seed),
               wall_now() - run_start);
  return out;
}

std::string to_json(const RunResult& r) {
  using ldlp::obs::Json;
  Json metrics = Json::object();
  for (const Metric& m : r.metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Json root = Json::object();
  root.set("correct", Json(r.correct));
  root.set("attempted", Json(r.attempted));
  root.set("failed", Json(r.failed));
  root.set("metrics", std::move(metrics));
  return root.dump();
}

}  // namespace rxbench

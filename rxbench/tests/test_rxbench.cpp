// Harness tests for the native receive-path benchmark.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/rig.hpp"
#include "harness/runner.hpp"
#include "obs/json.hpp"

namespace rxbench {
namespace {

const WorkloadSpec& workload(std::string_view name) {
  const WorkloadSpec* spec = find_workload(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

/// Closed-loop cycles until `n` messages were generated and all of them
/// read (bounded, so a stalled flow fails instead of hanging).
void run_closed(Rig& rig, std::uint64_t n, PhaseStats& ps) {
  rig.limit_messages(n);
  for (int i = 0; i < 100000 && rig.ok() && ps.delivered < n; ++i)
    rig.closed_cycle(ps);
}

TEST(Rxbench, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(std::string(spec.name));
    EXPECT_EQ(open_arrivals(spec, 7, 0.2), open_arrivals(spec, 7, 0.2));
    EXPECT_NE(open_arrivals(spec, 7, 0.2), open_arrivals(spec, 8, 0.2));

    std::map<std::uint64_t, std::uint64_t> hash_of_seed;
    for (const std::uint64_t seed : {7, 7, 8}) {
      Rig rig(spec, Sched::kLdlp, seed);
      PhaseStats ps;
      run_closed(rig, 300, ps);
      ASSERT_TRUE(rig.ok()) << rig.error();
      if (hash_of_seed.count(seed) != 0) {
        EXPECT_EQ(hash_of_seed[seed], rig.frame_hash());
      }
      hash_of_seed[seed] = rig.frame_hash();
    }
    EXPECT_NE(hash_of_seed[7], hash_of_seed[8]);
  }
}

TEST(Rxbench, SchedulesDeliverIdenticalContent) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(std::string(spec.name));
    std::vector<std::vector<std::uint64_t>> digests;
    for (const Sched sched : kScheds) {
      Rig rig(spec, sched, 3);
      PhaseStats ps;
      run_closed(rig, 2000, ps);
      rig.check_quiescent();
      ASSERT_TRUE(rig.ok()) << rig.error();
      EXPECT_EQ(ps.delivered, 2000u);
      EXPECT_EQ(ps.offered, 2000u);  // the closed phase never drops
      digests.push_back(rig.content_digests());
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
  }
}

// A 16 KB receive buffer holds 11 full-size segments. The flow goes on
// past them only because the reader's window updates (and B's ACKs) reopen
// the window the benchmark's sender respects.
TEST(Rxbench, BulkConventionalFlowCompletes) {
  Rig rig(workload("tcp1460-bulk"), Sched::kConv, 1);
  ASSERT_TRUE(rig.established(0));
  const Counters before = rig.counters();
  PhaseStats ps;
  run_closed(rig, 500, ps);
  rig.check_quiescent();
  ASSERT_TRUE(rig.ok()) << rig.error();
  EXPECT_EQ(ps.delivered, 500u);
  EXPECT_GT(rig.counters().acks_sent, before.acks_sent);
}

TEST(Rxbench, OpenPhaseLedgerAndLatency) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(std::string(spec.name));
    const std::vector<double> arrivals = open_arrivals(spec, 5, 0.05);
    ASSERT_FALSE(arrivals.empty());
    Rig rig(spec, Sched::kStaged, 5);
    PhaseStats ps;
    ps.begin = rig.counters();
    rig.open_begin(arrivals, ps);
    rig.open_finish(ps);
    ps.end = rig.counters();
    rig.check_quiescent();
    ASSERT_TRUE(rig.ok()) << rig.error();
    const std::uint64_t drops = ps.end.rx_drops - ps.begin.rx_drops;
    EXPECT_EQ(ps.offered, ps.delivered + drops);
    EXPECT_EQ(ps.delivered, arrivals.size());
    EXPECT_EQ(ps.lat_us.size(), ps.delivered);
    EXPECT_GT(ps.clock_end, ps.clock_start);
    for (const float l : ps.lat_us) ASSERT_GE(l, 0.0f);
  }
}

// A burst larger than the ring overflows it; every dropped frame is sent
// again, so each message is still read once, in order, and none fails.
TEST(Rxbench, RingDropsAreResent) {
  for (const WorkloadSpec& spec : workloads()) {
    SCOPED_TRACE(std::string(spec.name));
    const std::vector<double> arrivals(3 * kRingSlots, 0.0);
    Rig rig(spec, Sched::kLdlp, 9);
    PhaseStats ps;
    ps.begin = rig.counters();
    rig.open_begin(arrivals, ps);
    rig.open_finish(ps);
    ps.end = rig.counters();
    rig.check_quiescent();
    ASSERT_TRUE(rig.ok()) << rig.error();
    const std::uint64_t drops = ps.end.rx_drops - ps.begin.rx_drops;
    if (spec.proto == Proto::kUdp) {
      EXPECT_GT(drops, 0u);
    }
    EXPECT_EQ(ps.delivered, arrivals.size());
    EXPECT_EQ(ps.offered, ps.delivered + drops);
  }
}

// A datagram the benchmark did not send (here: a second copy of the
// first one) must fail the run.
TEST(Rxbench, VerifierCatchesADuplicateDatagram) {
  const WorkloadSpec& spec = workload("udp64");
  Rig rig(spec, Sched::kLdlp, 4);
  PhaseStats ps;
  run_closed(rig, 10, ps);
  ASSERT_TRUE(rig.ok()) << rig.error();
  FlowDraw draw(spec, 4);
  const std::uint32_t flow = draw.next();  // the flow of tag 0
  std::vector<std::uint8_t> payload(spec.msg_bytes);
  fill_pattern(std::span(payload).subspan(8), 4, flow, 8);  // tag 0
  rig.receiver().device().inject(
      udp_frame(static_cast<std::uint16_t>(kUdpBasePort + flow), payload));
  rig.closed_cycle(ps);
  EXPECT_FALSE(rig.ok());
}

std::map<std::string, std::string> declared(const char* section) {
  std::ifstream in(RXBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = ldlp::obs::Json::parse(text.str());
  EXPECT_TRUE(doc.has_value()) << RXBENCH_BENCHMARK_JSON;
  std::map<std::string, std::string> out;
  if (!doc) return out;
  const ldlp::obs::Json* list = doc->find(section);
  EXPECT_NE(list, nullptr) << section;
  if (list == nullptr) return out;
  for (const auto& m : list->items())
    out[*m.string_at("name")] = *m.string_at("unit");
  return out;
}

TEST(Rxbench, EveryMetricEmittedWithItsUnit) {
  const auto end_to_end = declared("end_to_end");
  const auto per_layer = declared("per_layer");
  ASSERT_FALSE(end_to_end.empty());
  ASSERT_FALSE(per_layer.empty());
  for (const WorkloadSpec& spec : workloads()) {
    for (const bool trace : {false, true}) {
      SCOPED_TRACE(std::string(spec.name) + (trace ? " traced" : ""));
      RunConfig cfg;
      cfg.spec = &spec;
      cfg.seed = 2;
      cfg.seconds = 0.3;
      cfg.trace = trace;
      const RunResult r = run_benchmark(cfg);
      ASSERT_TRUE(r.correct) << r.error;
      EXPECT_GE(r.attempted, 1u);
      std::map<std::string, std::string> got;
      for (const Metric& m : r.metrics) {
        EXPECT_TRUE(got.emplace(m.name, m.unit).second) << "twice: " << m.name;
        if (m.name == "trace.unattributed_passes") {
          EXPECT_EQ(m.value, 0.0);
        }
      }
      EXPECT_EQ(got, trace ? per_layer : end_to_end);
      const auto json = ldlp::obs::Json::parse(to_json(r));
      ASSERT_TRUE(json.has_value());
      EXPECT_NE(json->find("metrics"), nullptr);
    }
  }
}

}  // namespace
}  // namespace rxbench

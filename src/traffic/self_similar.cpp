#include "traffic/self_similar.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ldlp::traffic {

std::vector<PacketArrival> generate_self_similar_trace(
    const SelfSimilarConfig& config, SizeModel& sizes, std::uint64_t seed) {
  LDLP_ASSERT(config.mean_rate_per_sec > 0.0 && config.num_sources > 0);
  LDLP_ASSERT(config.alpha_on > 1.0 && config.alpha_off > 1.0);
  LDLP_ASSERT(config.on_fraction > 0.0 && config.on_fraction < 1.0);
  LDLP_ASSERT(config.duration_sec > 0.0 && config.mean_on_sec > 0.0);

  // Per-source peak emission rate such that the aggregate mean comes out
  // at mean_rate: aggregate = num_sources * peak_rate * on_fraction.
  const double peak_rate = config.mean_rate_per_sec /
                           (config.num_sources * config.on_fraction);
  const double mean_off_sec =
      config.mean_on_sec * (1.0 - config.on_fraction) / config.on_fraction;
  // Pareto mean is alpha*xm/(alpha-1)  =>  xm = mean*(alpha-1)/alpha.
  const double xm_on =
      config.mean_on_sec * (config.alpha_on - 1.0) / config.alpha_on;
  const double xm_off =
      mean_off_sec * (config.alpha_off - 1.0) / config.alpha_off;

  Rng master(seed);
  std::vector<PacketArrival> out;
  out.reserve(static_cast<std::size_t>(config.mean_rate_per_sec *
                                       config.duration_sec * 1.2) +
              16);

  for (std::uint32_t s = 0; s < config.num_sources; ++s) {
    Rng rng = master.split();
    // Random initial phase: start OFF for a random fraction of an OFF
    // period so sources are desynchronised.
    double t = rng.uniform() * xm_off;
    bool on = false;
    while (t < config.duration_sec) {
      if (on) {
        const double period = rng.pareto(config.alpha_on, xm_on);
        const double end = std::min(t + period, config.duration_sec);
        // Deterministic spacing within the ON period at the peak rate. The
        // first emission sits a random phase into the period so the
        // expected count is exactly period*peak_rate (starting at t would
        // add one emission per ON period and bias the mean rate upward).
        const double phase = rng.uniform() / peak_rate;
        for (double emit = t + phase; emit < end; emit += 1.0 / peak_rate) {
          out.push_back(PacketArrival{emit, 0});
        }
        t += period;
      } else {
        t += rng.pareto(config.alpha_off, xm_off);
      }
      on = !on;
    }
  }

  std::sort(out.begin(), out.end(),
            [](const PacketArrival& a, const PacketArrival& b) {
              return a.time < b.time;
            });
  for (auto& arrival : out) arrival.size_bytes = sizes.sample(master);
  return out;
}

}  // namespace ldlp::traffic

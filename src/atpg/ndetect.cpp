#include "atpg/ndetect.hpp"

#include <algorithm>

#include "atpg/patterns.hpp"

namespace obd::atpg {

NDetectResult build_ndetect_set(const Circuit& c,
                                const std::vector<ObdFaultSite>& faults,
                                const NDetectOptions& opt) {
  NDetectResult result;
  result.detect_counts.assign(faults.size(), 0);

  // Candidate pool: per-fault ATPG tests first (guarantee 1-detect where
  // possible), then random patterns for diversity.
  std::vector<TwoVectorTest> pool;
  const AtpgRun base = run_obd_atpg(c, faults, opt.podem);
  pool.insert(pool.end(), base.tests.begin(), base.tests.end());
  const auto rnd = random_pairs(static_cast<int>(c.inputs().size()),
                                opt.random_pool, opt.seed);
  pool.insert(pool.end(), rnd.begin(), rnd.end());

  // Deduplicate.
  std::sort(pool.begin(), pool.end(),
            [](const TwoVectorTest& a, const TwoVectorTest& b) {
              return a.v1 != b.v1 ? a.v1 < b.v1 : a.v2 < b.v2;
            });
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // Fault-simulate the whole pool in 64-test blocks (sharded over
  // opt.sim.threads workers), then replay the greedy growth over matrix
  // rows: keep any test that raises a below-target fault's count. (Counts
  // must reach n, so no fault dropping here.)
  FaultSimScheduler sched(c, opt.sim);
  const DetectionMatrix m = sched.matrix_obd(pool, faults);
  result.sim = sched.stats();
  result.implications = base.total_implications;
  result.backtracks = base.total_backtracks;
  for (std::size_t t = 0; t < pool.size(); ++t) {
    bool useful = false;
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (m.detects(t, i) && result.detect_counts[i] < opt.n) useful = true;
    if (!useful) continue;
    result.tests.push_back(pool[t]);
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (m.detects(t, i)) ++result.detect_counts[i];
  }

  for (int cnt : result.detect_counts) {
    if (cnt > 0) ++result.detectable;
    if (cnt >= opt.n) ++result.satisfied;
  }
  return result;
}

double timing_aware_coverage(const Circuit& c,
                             const std::vector<TwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults,
                             double extra_delay, double capture_time,
                             const logic::DelayLibrary& lib) {
  if (faults.empty()) return 1.0;
  std::size_t caught = 0;
  for (const auto& f : faults) {
    for (const auto& t : tests) {
      if (simulate_obd_timing(c, t, f, extra_delay, /*stuck=*/false,
                              capture_time, lib)) {
        ++caught;
        break;
      }
    }
  }
  return static_cast<double>(caught) / static_cast<double>(faults.size());
}

double nominal_critical_time(const Circuit& c,
                             const std::vector<TwoVectorTest>& tests,
                             const logic::DelayLibrary& lib) {
  logic::TimingSimulator sim(c, lib);
  double worst = 0.0;
  for (const auto& t : tests) {
    const logic::TimingRun run = sim.run_two_vector(t.v1, t.v2, 1.0);
    if (!run.events.empty())
      worst = std::max(worst, run.events.back().time);
  }
  return worst;
}

}  // namespace obd::atpg

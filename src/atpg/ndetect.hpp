// n-detect OBD test sets.
//
// The paper's related work (Pomeranz & Reddy) motivates n-detection for
// transition faults: a *marginal* delay defect only fails timing when the
// sensitized path is long enough, so detecting each fault n times through
// (likely) different paths raises the chance that one detection observes a
// near-critical path. For OBD this matters inside the window of
// opportunity: early-stage defects add little delay, and a 1-detect set
// whose test propagates along a short path will miss them.
//
// build_ndetect_set() grows a test pool (ATPG tests + random two-vector
// patterns) greedily until every gross-delay-testable fault is detected at
// least n times (or the pool is exhausted).
#pragma once

#include "atpg/faultsim.hpp"
#include "atpg/twoframe.hpp"

namespace obd::atpg {

struct NDetectResult {
  std::vector<TwoVectorTest> tests;
  /// Detection count per fault under the final set.
  std::vector<int> detect_counts;
  /// Faults that reached the target count.
  int satisfied = 0;
  /// Faults detectable at all (count > 0 achievable).
  int detectable = 0;
  /// Effort of the pass: the pool simulation's counters (cone_peak_bytes
  /// is the circuit's one cone table) and the PODEM search's totals.
  SimStats sim;
  long long implications = 0;
  long long backtracks = 0;
};

struct NDetectOptions {
  int n = 3;
  /// Random pool size added on top of the ATPG tests.
  int random_pool = 256;
  std::uint64_t seed = 0xd15ea5e;
  PodemOptions podem;
  /// Packing / worker-thread options for the pool fault simulation.
  SimOptions sim;
};

NDetectResult build_ndetect_set(const Circuit& c,
                                const std::vector<ObdFaultSite>& faults,
                                const NDetectOptions& opt = {});

/// Timing-aware coverage of a test set: fraction of `faults` for which at
/// least one test makes a captured PO differ when the excited gate gets
/// `extra_delay` and the clock samples at `capture_time`. This is where
/// n-detect pays off: short-path detections absorb small extra delays.
double timing_aware_coverage(const Circuit& c,
                             const std::vector<TwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults,
                             double extra_delay, double capture_time,
                             const logic::DelayLibrary& lib = {});

/// Nominal (fault-free) critical settling time of the circuit over a test
/// set: the latest event time across all tests. Useful to place the capture
/// clock just above the functional requirement.
double nominal_critical_time(const Circuit& c,
                             const std::vector<TwoVectorTest>& tests,
                             const logic::DelayLibrary& lib = {});

}  // namespace obd::atpg

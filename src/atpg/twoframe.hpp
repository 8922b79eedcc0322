// Two-vector test generation for dynamic faults: one PODEM loop over a
// fault's goal list (atpg/goals.hpp), run frame 2 first, then frame 1, goal
// by goal, searching each distinct capture frame once, plus the
// whole-fault-list runs the paper benches use. Those run_*_atpg drivers are
// plain per-fault loops; a random prepass runs only in the campaign
// executor (flow/campaign.hpp).
#pragma once

#include "atpg/goals.hpp"
#include "atpg/podem.hpp"

namespace obd::atpg {

struct TwoFrameResult {
  PodemStatus status = PodemStatus::kUntestable;
  /// Set when status == kAborted. A time abort anywhere dominates (it
  /// marks the fault as worth re-attempting on resume); backtrack-limit
  /// aborts are deterministic and final for the given options.
  AbortReason reason = AbortReason::kNone;
  TwoVectorTest test;
  long backtracks = 0;
  long implications = 0;
};

/// Tries `goals` in order: PODEM on the fault frame, then (for two-frame
/// goals) PODEM justification of the launch frame; the first goal with both
/// frames found is the test. Untestable when every goal is refuted, aborted
/// when some search aborted and none found a test. A single-frame goal's
/// test applies its one vector as v1 == v2. Each distinct fault (capture)
/// frame is searched once: a goal whose pins and forced net/value equal an
/// earlier goal's reuses that search. With no per-search time budget
/// (opt.time_budget_s == 0, the default) status, test and abort reason are
/// the goal-by-goal loop's and only the effort counts are smaller. With a
/// budget, a frame whose search ran out of time is not searched again for
/// the later goals that share it, where the goal-by-goal loop gave each of
/// them a fresh budget.
TwoFrameResult generate_test(const Circuit& c,
                             const std::vector<TwoFrameGoal>& goals,
                             const PodemOptions& opt = {});

/// Generates a two-vector test for one OBD fault site.
inline TwoFrameResult generate_obd_test(const Circuit& c,
                                        const ObdFaultSite& site,
                                        const PodemOptions& opt = {}) {
  return generate_test(c, goals_of(c, site), opt);
}

/// Generates a two-vector test for one classical transition fault.
inline TwoFrameResult generate_transition_test(const Circuit& c,
                                               const TransitionFault& fault,
                                               const PodemOptions& opt = {}) {
  return generate_test(c, goals_of(c, fault), opt);
}

/// Whole-fault-list ATPG statistics.
struct AtpgRun {
  std::vector<TwoVectorTest> tests;
  int found = 0;
  int untestable = 0;
  int aborted = 0;
  long total_backtracks = 0;
  long total_implications = 0;
  /// Indices (into the fault list) of faults proven untestable.
  std::vector<std::size_t> untestable_faults;
};

/// Runs OBD ATPG over every fault in `faults`.
AtpgRun run_obd_atpg(const Circuit& c, const std::vector<ObdFaultSite>& faults,
                     const PodemOptions& opt = {});

/// Runs transition ATPG over every fault in `faults`.
AtpgRun run_transition_atpg(const Circuit& c,
                            const std::vector<TransitionFault>& faults,
                            const PodemOptions& opt = {});

/// Runs stuck-at ATPG over every fault; tests are single vectors (stored in
/// v2 with v1 == v2).
AtpgRun run_stuck_at_atpg(const Circuit& c,
                          const std::vector<StuckFault>& faults,
                          const PodemOptions& opt = {});

}  // namespace obd::atpg

// Shared goal-solving machinery of the SAT ATPG backend: the reference
// fresh solve for one goal (fault frame plus optional justify frame) and
// the one loop over a fault's goal list (atpg/goals.hpp) that both the
// fresh path (sat_atpg.cpp) and the incremental session (incremental.cpp)
// run.
//
// Internal to src/atpg/sat/ — the public surface stays sat_atpg.hpp and
// incremental.hpp. It exists so the incremental session can delegate to
// the exact fresh path (byte-identical cubes) without duplicating it.
#pragma once

#include <vector>

#include "atpg/goals.hpp"
#include "atpg/sat/sat_atpg.hpp"
#include "logic/circuit.hpp"

namespace obd::atpg::sat::detail {

enum class PairStatus { kCube, kRefuted, kUnknown };

/// Encodes and solves one goal in a throwaway solver. On SAT, the model is
/// lifted to a maximal-don't-care cube and re-validated by 3-valued
/// simulation (see sat_atpg.cpp for the rules).
PairStatus solve_pair(const logic::Circuit& c, const TwoFrameGoal& goal,
                      const SatAtpgOptions& opt, SatAtpgResult* r);

/// Solves `goals` in order with `solve(goal, &result)` and stops at the
/// first cube. Untestable when every goal is refuted (for OBD faults the
/// goals are every exciting transition, so this is a proof); unknown when
/// some goal ran out of budget and none gave a cube. Effort accumulates
/// over every goal tried.
template <typename SolvePair>
SatAtpgResult solve_goals(const std::vector<TwoFrameGoal>& goals,
                          SolvePair&& solve) {
  SatAtpgResult r;
  bool any_unknown = false;
  for (const TwoFrameGoal& goal : goals) {
    switch (solve(goal, &r)) {
      case PairStatus::kCube:
        r.verdict = SatVerdict::kCube;
        return r;
      case PairStatus::kRefuted:
        break;
      case PairStatus::kUnknown:
        any_unknown = true;
        break;
    }
  }
  r.verdict = any_unknown ? SatVerdict::kUnknown : SatVerdict::kUntestable;
  return r;
}

}  // namespace obd::atpg::sat::detail

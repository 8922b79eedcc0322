// SAT-based ATPG: the provable-coverage backend beside PODEM.
//
// sat_generate_test walks a fault's goal list (atpg/goals.hpp) exactly as
// PODEM's generate_test does (twoframe.hpp), but answers with
// certainty: each goal's good/faulty circuit pair is CNF-encoded (cnf.hpp)
// and handed to the embedded CDCL core (solver.hpp), returning either
//   - a *validated* maximal-don't-care test cube (every don't-care bit is
//     re-verified by 3-valued simulation, Circuit::eval3, before it is
//     declared X, so every fill of the cube tests the fault), or
//   - a proven-untestable verdict (for OBD faults: every goal's two-frame
//     CNF is UNSAT — the completeness basis: goals_of enumerates every
//     exciting transition of the full (2^n)^2 space), or
//   - kUnknown when the conflict budget ran out before a verdict.
//
// Everything is deterministic, so campaign escalation preserves the
// matrix-hash contract across threads and shards.
#pragma once

#include "atpg/faults.hpp"
#include "atpg/goals.hpp"
#include "atpg/patterns.hpp"
#include "logic/circuit.hpp"

namespace obd::atpg::sat {

enum class SatVerdict {
  kCube,        ///< validated test cube in SatAtpgResult::cube
  kUntestable,  ///< proven: no input pair tests this fault
  kUnknown,     ///< conflict budget exhausted before a verdict
};

struct SatAtpgOptions {
  /// CDCL conflict budget per solver call (one call per goal);
  /// <= 0 = unlimited.
  long long conflict_budget = 100000;
};

struct SatAtpgResult {
  SatVerdict verdict = SatVerdict::kUnknown;
  /// Maximal-don't-care two-frame cube (kCube only). Stuck-at cubes have
  /// v1 == v2, matching the campaign's single-vector convention.
  XTwoVectorTest cube;
  /// CDCL effort spent on this fault (all solver calls summed) — the
  /// campaign aggregates these and buckets conflicts-per-fault into the
  /// report's escalation histogram.
  long long conflicts = 0;
  long long decisions = 0;
  long long restarts = 0;
};

/// Solves `goals` (goals_of one fault) in order, one throwaway solver per
/// goal, and stops at the first cube. This fresh path lifts every cube the
/// incremental session (incremental.hpp) emits and is its test oracle.
SatAtpgResult sat_generate_test(const logic::Circuit& c,
                                const std::vector<TwoFrameGoal>& goals,
                                const SatAtpgOptions& opt = {});

}  // namespace obd::atpg::sat

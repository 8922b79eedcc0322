// Incremental SAT session for the campaign's escalation tail.
//
// sat_generate_test (sat_atpg.hpp) builds a throwaway solver per goal, so
// a 47-fault abort tail re-encodes the good circuit and re-derives the same
// learned clauses dozens of times. A SatSession keeps ONE persistent solver
// for a whole campaign, and it is the campaign's only escalation path:
//
//   - the good circuit's two scan frames are CNF-encoded once;
//   - each faulty cone + miter is encoded once per (forced net, value)
//     under a fresh activation literal, so faults sharing a fanout cone —
//     every OBD transistor of one gate, for a start — reuse the encoding;
//   - each cone also carries Larrabee's sensitized-path clauses
//     (CnfEncoder::assert_sensitized_path), which state that a difference
//     must travel a path of differing nets to a PO, so an untestable pair
//     is refuted in a handful of conflicts instead of path by path;
//   - per-goal obligations (gate-input pins, the fault-activation pin)
//     travel as solver *assumptions*, never as clauses, so nothing is
//     retracted between calls and learned clauses, variable activity, and
//     saved phases accumulate across the tail.
//
// Verdict compatibility is by construction, not by luck: an UNSAT answer
// under assumptions refutes exactly the fresh pair formula (the
// sensitized-path clauses are equisatisfiable with the miter, and the
// other cones' guarded clauses are satisfiable independently by setting
// their activation variables false), and any SAT or budget-out answer is
// delegated to the fresh single-goal path, so emitted cubes are
// byte-identical to sat_generate_test's. Escalation verdicts therefore do not
// depend on session history, which keeps checkpoint/resume and shard
// reconciliation contracts untouched. Activation variables are parked
// false between pairs: assuming one saves its phase as true, so the
// session resets that phase after each solve, and free decisions never
// switch a foreign cone into the search.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "atpg/sat/cnf.hpp"
#include "atpg/sat/frames.hpp"
#include "atpg/sat/sat_atpg.hpp"
#include "atpg/sat/solver.hpp"

namespace obd::atpg::sat {

/// Where the session actually saved work, for the campaign report and the
/// obs registry. Conflicts/decisions/restarts count the persistent
/// solver's effort only (fresh-fallback effort lands in SatAtpgResult like
/// before).
struct SatSessionStats {
  long long pairs_total = 0;        ///< goals driven through the session
  long long cone_encodes = 0;       ///< faulty cones encoded (first sighting)
  long long cone_hits = 0;          ///< pairs that reused a resident cone
  long long unobservable_hits = 0;  ///< refuted from the structural cache alone
  long long incremental_refutes = 0;  ///< UNSAT answered by the persistent solver
  long long fresh_fallbacks = 0;    ///< pairs delegated to a fresh solver
  long long vars_shared = 0;        ///< good-frame vars a fresh solver would re-create
  long long clauses_kept = 0;       ///< learned clauses resident at the last pair
  long long conflicts = 0;
  long long decisions = 0;
  long long restarts = 0;
};

class SatSession {
 public:
  explicit SatSession(const logic::Circuit& c, SatAtpgOptions opt = {});

  /// Drop-in replacement for sat_generate_test(c, goals): the same goal
  /// loop, verdicts and byte-identical cubes, amortized solving.
  SatAtpgResult generate(const std::vector<TwoFrameGoal>& goals);
  /// generate(goals_of(c, fault)) for each fault model.
  SatAtpgResult generate_obd_test(const ObdFaultSite& site) {
    return generate(goals_of(c_, site));
  }
  SatAtpgResult generate_transition_test(const TransitionFault& fault) {
    return generate(goals_of(c_, fault));
  }
  SatAtpgResult generate_stuck_test(const StuckFault& fault) {
    return generate(goals_of(c_, fault));
  }

  const SatSessionStats& stats() const { return stats_; }

 private:
  struct ConeEntry {
    Var act = -1;           // activation variable guarding the cone clauses
    bool observable = false;  // miter reached a PO (false = always refuted)
    NetVars faulty;
  };

  detail::PairStatus solve_pair(const TwoFrameGoal& goal, SatAtpgResult* r);
  ConeEntry& cone_for(logic::NetId net, bool value);
  void ensure_frame1();

  const logic::Circuit& c_;
  SatAtpgOptions opt_;
  Solver s_;
  CnfEncoder enc_;
  NetVars good2_;  // fault/capture frame, encoded at construction
  NetVars good1_;  // justification frame, encoded on first two-frame pair
  bool have_frame1_ = false;
  std::map<std::pair<logic::NetId, bool>, ConeEntry> cones_;
  SatSessionStats stats_;
};

}  // namespace obd::atpg::sat

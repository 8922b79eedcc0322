// Embedded CDCL SAT core for the ATPG escalation backend.
//
// Self-contained in the spirit of the repo's own SPICE solver — no external
// dependencies, no DIMACS, no global state. The feature set is the small
// modern kernel that makes circuit CNFs easy: two watched literals,
// first-UIP conflict learning with backjumping, VSIDS branching on an
// indexed max-heap, phase saving, and Luby restarts. There is no learned-
// clause deletion: every call runs under a conflict budget (the campaign's
// --sat-conflict-budget), which bounds the clause database long before
// deletion would matter at ATPG cone sizes.
//
// Everything is deterministic: ties break on variable index, there is no
// randomization, and the same clause sequence always yields the same
// model/proof — the property the campaign's matrix-hash contract needs.
#pragma once

#include <cstdint>
#include <vector>

namespace obd::atpg::sat {

/// Variable index, 0-based.
using Var = int;

/// Literal: 2*var + sign (sign 1 = negated). Invalid/absent = -1.
using Lit = int;

inline Lit mk_lit(Var v, bool negated = false) {
  return 2 * v + (negated ? 1 : 0);
}
inline Var var_of(Lit l) { return l >> 1; }
inline bool sign_of(Lit l) { return (l & 1) != 0; }
inline Lit negate(Lit l) { return l ^ 1; }

enum class SolveStatus {
  kSat,      ///< model available via Solver::value()
  kUnsat,    ///< refutation complete: no assignment satisfies the clauses
  kUnknown,  ///< conflict budget exhausted before a verdict
};

struct SolverStats {
  long long decisions = 0;
  long long propagations = 0;
  long long conflicts = 0;
  long long learned = 0;
  long long restarts = 0;
};

class Solver {
 public:
  Solver() = default;

  Var new_var();
  int num_vars() const { return static_cast<int>(assign_.size()); }

  /// Adds a clause over existing variables. Level-0 simplification only:
  /// tautologies are dropped, duplicate and already-false literals removed,
  /// units enqueued. Returns false once the formula is trivially UNSAT
  /// (empty clause or conflicting units); further calls are no-ops then.
  bool add_clause(const std::vector<Lit>& lits);

  /// Runs CDCL until a verdict or until `conflict_budget` conflicts
  /// (<= 0 = unlimited). Callable repeatedly; clauses may be added between
  /// calls (incremental, level-0 state persists).
  SolveStatus solve(long long conflict_budget = 0);

  /// Assumption-based solve: the literals are established as the first
  /// decision levels, in order, before any free branching. kUnsat then
  /// means "unsatisfiable *under the assumptions*" — the clause database
  /// stays consistent and the solver reusable, unlike a genuine level-0
  /// refutation (which still poisons the solver permanently). Learned
  /// clauses, variable activity, and saved phases persist across calls,
  /// which is what makes cone-grouped ATPG escalation cheap.
  SolveStatus solve(const std::vector<Lit>& assumptions,
                    long long conflict_budget = 0);

  /// False once a clause contradiction was derived without assumptions;
  /// every later solve() returns kUnsat.
  bool okay() const { return ok_; }

  /// Sets the saved phase of `v`: its next free decision branches to
  /// `value`. Every enqueue overwrites the saved phase, assumptions too.
  void set_phase(Var v, bool value) {
    polarity_[static_cast<std::size_t>(v)] = value;
  }

  /// Model value of `v` after solve() returned kSat.
  bool value(Var v) const { return assign_[static_cast<std::size_t>(v)] == 1; }

  const SolverStats& stats() const { return stats_; }

 private:
  struct Clause {
    std::vector<Lit> lits;
  };
  struct Watcher {
    std::uint32_t clause;
    Lit blocker;
  };

  bool enqueue(Lit l, int reason);
  /// Propagates the trail; returns the conflicting clause index or -1.
  int propagate();
  /// First-UIP analysis of `confl`; fills the learned clause (asserting
  /// literal first) and the backjump level.
  void analyze(int confl, std::vector<Lit>* learned, int* out_level);
  void backtrack_to(int level);
  void attach(std::uint32_t ci);
  Lit pick_branch();
  void bump(Var v);
  void decay() { var_inc_ /= 0.95; }

  // Indexed binary max-heap over activity (ties: smaller var first).
  void heap_insert(Var v);
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  Var heap_pop();

  int level_of(Var v) const { return level_[static_cast<std::size_t>(v)]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  std::vector<Clause> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // per literal
  std::vector<std::int8_t> assign_;            // per var: -1 / 0 / 1
  std::vector<int> level_;                     // per var
  std::vector<int> reason_;                    // per var: clause index or -1
  std::vector<bool> polarity_;                 // per var: saved phase
  std::vector<double> activity_;               // per var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;
  bool ok_ = true;

  std::vector<int> heap_;      // heap of vars
  std::vector<int> heap_pos_;  // per var: index in heap_ or -1
  double var_inc_ = 1.0;

  std::vector<std::uint8_t> seen_;  // analyze scratch
  SolverStats stats_;
};

}  // namespace obd::atpg::sat

#include "atpg/sat/incremental.hpp"

namespace obd::atpg::sat {

using detail::PairStatus;
using logic::NetId;

SatSession::SatSession(const logic::Circuit& c, SatAtpgOptions opt)
    : c_(c), opt_(opt), enc_(c_, s_) {
  good2_ = enc_.encode_good();
}

void SatSession::ensure_frame1() {
  if (have_frame1_) return;
  good1_ = enc_.encode_good();
  have_frame1_ = true;
}

SatSession::ConeEntry& SatSession::cone_for(NetId net, bool value) {
  const auto [it, inserted] = cones_.try_emplace({net, value});
  ConeEntry& e = it->second;
  if (!inserted) {
    ++stats_.cone_hits;
    return e;
  }
  ++stats_.cone_encodes;
  e.act = s_.new_var();
  // Guard every cone clause with ~act: inert until `act` is assumed, so
  // all cones coexist in one clause database without contradicting each
  // other (two cones may pin the same forced net to opposite values).
  enc_.set_guard(mk_lit(e.act, true));
  e.faulty = enc_.encode_faulty(good2_, net, value);
  e.observable = enc_.assert_po_difference(good2_, e.faulty);
  if (e.observable) enc_.assert_sensitized_path(good2_, e.faulty, net);
  enc_.clear_guard();
  return e;
}

PairStatus SatSession::solve_pair(const TwoFrameGoal& goal, SatAtpgResult* r) {
  const FrameGoal& fault_frame = goal.fault_frame;
  const std::optional<FrameGoal>& justify = goal.justify_frame;
  ++stats_.pairs_total;
  if (stats_.pairs_total > 1)
    stats_.vars_shared +=
        static_cast<long long>(c_.num_nets()) * (justify ? 2 : 1);
  ConeEntry& cone =
      cone_for(fault_frame.fault->net, fault_frame.fault->value);
  if (!cone.observable) {
    // The cone reaches no PO: structurally untestable, cached verdict.
    ++stats_.unobservable_hits;
    return PairStatus::kRefuted;
  }

  // Everything pair-specific is an assumption (a pin of net n to value v
  // is the single literal making var(n) == v), so nothing needs retracting
  // afterwards and the learned clauses stay valid for the next pair.
  std::vector<Lit> assumptions;
  assumptions.push_back(mk_lit(cone.act));
  assumptions.push_back(mk_lit(good2_.of(fault_frame.fault->net),
                               fault_frame.fault->value));
  for (const NetConstraint& k : fault_frame.constraints)
    assumptions.push_back(mk_lit(good2_.of(k.net), !k.value));
  if (justify) {
    ensure_frame1();
    for (const NetConstraint& k : justify->constraints)
      assumptions.push_back(mk_lit(good1_.of(k.net), !k.value));
  }

  const long long c0 = s_.stats().conflicts;
  const long long d0 = s_.stats().decisions;
  const long long t0 = s_.stats().restarts;
  const SolveStatus st = s_.solve(assumptions, opt_.conflict_budget);
  // Assuming `act` saved its phase as true. Park it false again, or a later
  // pair's free decision could switch this cone's miter into its search.
  s_.set_phase(cone.act, false);
  r->conflicts += s_.stats().conflicts - c0;
  r->decisions += s_.stats().decisions - d0;
  r->restarts += s_.stats().restarts - t0;
  stats_.conflicts = s_.stats().conflicts;
  stats_.decisions = s_.stats().decisions;
  stats_.restarts = s_.stats().restarts;
  stats_.clauses_kept = s_.stats().learned;

  if (st == SolveStatus::kUnsat && s_.okay()) {
    // UNSAT under assumptions refutes exactly the fresh pair formula: the
    // other cones' guarded clauses are independently satisfiable with
    // their activation variables false, so they cannot be the reason.
    ++stats_.incremental_refutes;
    return PairStatus::kRefuted;
  }
  // SAT or budget-out: delegate to the fresh single-goal path so cubes
  // (don't-care lifting included) are byte-identical to sat_generate_test's.
  // (s_.okay() false would mean the shared database itself became UNSAT —
  // impossible for guarded cones over a satisfiable good circuit, but the
  // fresh path keeps even that hypothetical sound.)
  ++stats_.fresh_fallbacks;
  return detail::solve_pair(c_, goal, opt_, r);
}

SatAtpgResult SatSession::generate(const std::vector<TwoFrameGoal>& goals) {
  return detail::solve_goals(
      goals, [this](const TwoFrameGoal& goal, SatAtpgResult* r) {
        return solve_pair(goal, r);
      });
}

}  // namespace obd::atpg::sat

#include "atpg/sat/sat_atpg.hpp"

#include <optional>

#include "atpg/sat/cnf.hpp"
#include "atpg/sat/frames.hpp"
#include "logic/gate.hpp"

namespace obd::atpg::sat {
namespace {

using detail::PairStatus;
using logic::Circuit;
using logic::NetId;
using logic::Tri;

/// Does the partially-specified PI assignment *definitely* meet the goal
/// under 3-valued evaluation? Kleene conservatism makes a true answer a
/// guarantee over every completion of the X bits — the property that lets
/// don't-care bits be lifted out of a SAT model safely. The faulty frame is
/// Circuit::eval3 with the fault net forced, the faulty-circuit semantics
/// PODEM's event-driven Engine (podem.cpp) and the CNF encoder share, so
/// cube validation judges the SAT model by the same rules PODEM plays by.
bool frame_definitely_met(const Circuit& c, const std::vector<Tri>& pi,
                          const FrameGoal& goal) {
  const std::vector<Tri> good = c.eval3(pi);
  for (const NetConstraint& k : goal.constraints)
    if (good[static_cast<std::size_t>(k.net)] != logic::tri_of(k.value))
      return false;
  if (!goal.fault) return true;
  const Tri gf = good[static_cast<std::size_t>(goal.fault->net)];
  if (gf == Tri::kX || gf == logic::tri_of(goal.fault->value)) return false;
  const std::vector<Tri> faulty =
      c.eval3(pi, goal.fault->net, logic::tri_of(goal.fault->value));
  for (const NetId po : c.outputs()) {
    const Tri g = good[static_cast<std::size_t>(po)];
    const Tri f = faulty[static_cast<std::size_t>(po)];
    if (g != Tri::kX && f != Tri::kX && g != f) return true;
  }
  return false;
}

/// Greedy don't-care maximization: X out PIs in ascending index order,
/// keeping each X only if the frame goal stays definitely met.
void lift_cares(const Circuit& c, const FrameGoal& goal,
                std::vector<Tri>* pi) {
  for (std::size_t i = 0; i < pi->size(); ++i) {
    const Tri saved = (*pi)[i];
    if (saved == Tri::kX) continue;
    (*pi)[i] = Tri::kX;
    if (!frame_definitely_met(c, *pi, goal)) (*pi)[i] = saved;
  }
}

TestVector to_test_vector(const std::vector<Tri>& pi) {
  TestVector v;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    if (pi[i] == Tri::kX) continue;
    v.care_mask.set_bit(i);
    if (pi[i] == Tri::k1) v.bits.set_bit(i);
  }
  return v;
}

}  // namespace

namespace detail {

/// The justify frame is absent for single-frame (stuck-at) goals. On SAT,
/// the model is lifted to a maximal-don't-care cube and re-validated by
/// 3-valued simulation; a model that fails validation (an encoder bug, by
/// construction impossible) degrades to kUnknown rather than emitting an
/// unsound cube.
PairStatus solve_pair(const Circuit& c, const TwoFrameGoal& goal,
                      const SatAtpgOptions& opt, SatAtpgResult* r) {
  const FrameGoal& fault_frame = goal.fault_frame;
  const std::optional<FrameGoal>& justify_frame = goal.justify_frame;
  Solver s;
  CnfEncoder enc(c, s);
  const NetVars g2 = enc.encode_good();
  const NetVars fa =
      enc.encode_faulty(g2, fault_frame.fault->net, fault_frame.fault->value);
  if (!enc.assert_po_difference(g2, fa)) return PairStatus::kRefuted;
  enc.pin(g2, fault_frame.fault->net, !fault_frame.fault->value);
  for (const NetConstraint& k : fault_frame.constraints)
    enc.pin(g2, k.net, k.value);
  NetVars g1;
  if (justify_frame) {
    g1 = enc.encode_good();
    for (const NetConstraint& k : justify_frame->constraints)
      enc.pin(g1, k.net, k.value);
  }

  const SolveStatus st = s.solve(opt.conflict_budget);
  r->conflicts += s.stats().conflicts;
  r->decisions += s.stats().decisions;
  r->restarts += s.stats().restarts;
  if (st == SolveStatus::kUnsat) return PairStatus::kRefuted;
  if (st == SolveStatus::kUnknown) return PairStatus::kUnknown;

  std::vector<Tri> pi2(c.inputs().size());
  for (std::size_t i = 0; i < c.inputs().size(); ++i)
    pi2[i] = logic::tri_of(s.value(g2.of(c.inputs()[i])));
  if (!frame_definitely_met(c, pi2, fault_frame)) return PairStatus::kUnknown;
  lift_cares(c, fault_frame, &pi2);

  std::vector<Tri> pi1;
  if (justify_frame) {
    pi1.resize(c.inputs().size());
    for (std::size_t i = 0; i < c.inputs().size(); ++i)
      pi1[i] = logic::tri_of(s.value(g1.of(c.inputs()[i])));
    if (!frame_definitely_met(c, pi1, *justify_frame))
      return PairStatus::kUnknown;
    lift_cares(c, *justify_frame, &pi1);
  } else {
    pi1 = pi2;  // single-frame: the campaign's v1 == v2 convention
  }

  r->cube.v1 = to_test_vector(pi1);
  r->cube.v2 = to_test_vector(pi2);
  return PairStatus::kCube;
}

}  // namespace detail

SatAtpgResult sat_generate_test(const Circuit& c,
                                const std::vector<TwoFrameGoal>& goals,
                                const SatAtpgOptions& opt) {
  return detail::solve_goals(
      goals, [&](const TwoFrameGoal& goal, SatAtpgResult* r) {
        return detail::solve_pair(c, goal, opt, r);
      });
}

}  // namespace obd::atpg::sat

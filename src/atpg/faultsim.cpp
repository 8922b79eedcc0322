#include "atpg/faultsim.hpp"

#include <bit>

#include "core/excitation.hpp"

namespace obd::atpg {
namespace {

std::vector<bool> row0_bools(const DetectionMatrix& m) {
  std::vector<bool> out(m.n_faults, false);
  for (std::size_t f = 0; f < m.n_faults; ++f) out[f] = m.detects(0, f);
  return out;
}

}  // namespace

// --- One-test wrappers over the scheduler -----------------------------------
// One test is a pattern block with one live lane: one good evaluation per
// frame, then one cone pass per excited fault.

std::vector<bool> simulate_stuck_at(const Circuit& c, const InputVec& pattern,
                                    const std::vector<StuckFault>& faults) {
  FaultSimScheduler sched(c);
  return row0_bools(sched.matrix_stuck({pattern}, faults));
}

std::vector<bool> simulate_obd(const Circuit& c, const TwoVectorTest& test,
                               const std::vector<ObdFaultSite>& faults) {
  FaultSimScheduler sched(c);
  return row0_bools(sched.matrix_obd({test}, faults));
}

std::vector<bool> simulate_transition(
    const Circuit& c, const TwoVectorTest& test,
    const std::vector<TransitionFault>& faults) {
  FaultSimScheduler sched(c);
  return row0_bools(sched.matrix_transition({test}, faults));
}

std::vector<bool> simulate_obd_x(const Circuit& c, const XTwoVectorTest& test,
                                 const std::vector<ObdFaultSite>& faults) {
  using logic::Tri;
  const auto pi_values = [&](const TestVector& v) {
    std::vector<Tri> pi(c.inputs().size(), Tri::kX);
    for (std::size_t i = 0; i < pi.size(); ++i)
      if (v.care_mask.bit(i)) pi[i] = logic::tri_of(v.bits.bit(i));
    return pi;
  };
  const std::vector<Tri> good1 = c.eval3(pi_values(test.v1));
  const std::vector<Tri> pi2 = pi_values(test.v2);
  const std::vector<Tri> good2 = c.eval3(pi2);
  std::vector<bool> detected(faults.size(), false);

  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ObdFaultSite& f = faults[i];
    const auto& g = c.gate(f.gate_index);
    const auto topo = logic::gate_topology(g.type);
    if (!topo.has_value()) continue;
    // Excitation must be definite: every gate-local input known, both frames.
    std::uint32_t lv1 = 0, lv2 = 0;
    bool known = true;
    for (std::size_t k = 0; k < g.inputs.size() && known; ++k) {
      const auto in = static_cast<std::size_t>(g.inputs[k]);
      known = good1[in] != Tri::kX && good2[in] != Tri::kX;
      lv1 |= static_cast<std::uint32_t>(good1[in] == Tri::k1) << k;
      lv2 |= static_cast<std::uint32_t>(good2[in] == Tri::k1) << k;
    }
    if (!known || !core::excites_obd(*topo, f.transistor,
                                     cells::TwoVector{lv1, lv2}))
      continue;
    // Gross-delay: the excited gate's output stays at its frame-1 value.
    const std::vector<Tri> bad2 =
        c.eval3(pi2, g.output, logic::tri_of(topo->output(lv1)));
    for (NetId po : c.outputs()) {
      const Tri gv = good2[static_cast<std::size_t>(po)];
      const Tri bv = bad2[static_cast<std::size_t>(po)];
      if (gv != Tri::kX && bv != Tri::kX && gv != bv) {
        detected[i] = true;
        break;
      }
    }
  }
  return detected;
}

bool forced_outputs_differ(const Circuit& c, const InputVec& pattern,
                           NetId net, bool value) {
  // Lightweight single-lane path (no engine, no cone table): callers such as
  // scan-test verification invoke this once per fault on a fresh circuit.
  std::vector<std::uint64_t> pi(c.inputs().size());
  for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = pattern.bit(i) ? 1u : 0u;
  const auto good = c.eval_words(pi);
  const auto bad = c.eval_words(pi, net, value ? 1ull : 0ull);
  for (NetId po : c.outputs()) {
    const auto n = static_cast<std::size_t>(po);
    if ((good[n] ^ bad[n]) & 1u) return true;
  }
  return false;
}

bool simulate_obd_timing(const Circuit& c, const TwoVectorTest& test,
                         const ObdFaultSite& fault, double extra_delay,
                         bool stuck, double capture_time,
                         const logic::DelayLibrary& lib) {
  logic::TimingSimulator good_sim(c, lib);
  const logic::TimingRun good = good_sim.run_two_vector(test.v1, test.v2,
                                                        capture_time);
  logic::TimingSimulator bad_sim(c, lib);
  bad_sim.set_fault(fault, logic::ObdDelayEffect{extra_delay, stuck});
  const logic::TimingRun bad = bad_sim.run_two_vector(test.v1, test.v2,
                                                      capture_time);
  for (NetId po : c.outputs())
    if (good.captured_of(po) != bad.captured_of(po)) return true;
  return false;
}

// --- Detection matrices ------------------------------------------------------

DetectionMatrix build_obd_matrix(const Circuit& c,
                                 const std::vector<TwoVectorTest>& tests,
                                 const std::vector<ObdFaultSite>& faults,
                                 const SimOptions& sim) {
  return FaultSimScheduler(c, sim).matrix_obd(tests, faults);
}

PrepassMarks mark_first_detections(const FaultSimEngine::Campaign& campaign,
                                   std::size_t n_tests) {
  PrepassMarks m;
  m.useful.assign(n_tests, 0);
  m.skip.assign(campaign.first_test.size(), 0);
  for (std::size_t f = 0; f < campaign.first_test.size(); ++f) {
    const int t = campaign.first_test[f];
    if (t < 0) continue;
    m.useful[static_cast<std::size_t>(t)] = 1;
    m.skip[f] = 1;
    ++m.found;
  }
  return m;
}

// --- Coverage (fault-dropping campaigns) -------------------------------------

double obd_coverage(const Circuit& c, const std::vector<TwoVectorTest>& tests,
                    const std::vector<ObdFaultSite>& faults,
                    const SimOptions& sim) {
  if (faults.empty()) return 1.0;
  const auto campaign = FaultSimScheduler(c, sim).campaign_obd(tests, faults);
  return static_cast<double>(campaign.detected) /
         static_cast<double>(faults.size());
}

// --- Legacy reference implementations ----------------------------------------

namespace legacy {
namespace {

/// Frame-2 PO word with one net frozen: the original per-pattern path. The
/// pattern is broadcast to every lane and lane 0 read back — exactly the
/// 1/64 utilization the block engine eliminates.
InputVec outputs_with_forced(const Circuit& c, const InputVec& pattern,
                             NetId forced, bool forced_value) {
  std::vector<std::uint64_t> pi(c.inputs().size());
  for (std::size_t i = 0; i < pi.size(); ++i)
    pi[i] = pattern.bit(i) ? ~0ull : 0ull;
  const auto words = c.eval_words(pi, forced, forced_value ? ~0ull : 0ull);
  InputVec out;
  for (std::size_t i = 0; i < c.outputs().size(); ++i)
    if (words[static_cast<std::size_t>(c.outputs()[i])] & 1ull) out.set_bit(i);
  return out;
}

}  // namespace

std::vector<bool> simulate_stuck_at(const Circuit& c, const InputVec& pattern,
                                    const std::vector<StuckFault>& faults) {
  const InputVec good = c.eval_outputs(pattern);
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const InputVec bad =
        outputs_with_forced(c, pattern, faults[i].net, faults[i].value);
    detected[i] = bad != good;
  }
  return detected;
}

std::vector<bool> simulate_obd(const Circuit& c, const TwoVectorTest& test,
                               const std::vector<ObdFaultSite>& faults) {
  const std::vector<bool> v1_values = c.eval(test.v1);
  const std::vector<bool> v2_values = c.eval(test.v2);
  const InputVec good2 = c.pack_outputs(v2_values);
  std::vector<bool> detected(faults.size(), false);

  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ObdFaultSite& f = faults[i];
    const auto& g = c.gate(f.gate_index);
    const auto topo = logic::gate_topology(g.type);
    if (!topo.has_value()) continue;
    const std::uint32_t lv1 = c.gate_input_bits(f.gate_index, v1_values);
    const std::uint32_t lv2 = c.gate_input_bits(f.gate_index, v2_values);
    if (!core::excites_obd(*topo, f.transistor,
                           cells::TwoVector{lv1, lv2}))
      continue;
    // Gross-delay: the excited gate's output stays at its frame-1 value.
    const bool old_out = topo->output(lv1);
    const InputVec bad2 = outputs_with_forced(c, test.v2, g.output, old_out);
    detected[i] = bad2 != good2;
  }
  return detected;
}

std::vector<bool> simulate_transition(
    const Circuit& c, const TwoVectorTest& test,
    const std::vector<TransitionFault>& faults) {
  const std::vector<bool> v1_values = c.eval(test.v1);
  const std::vector<bool> v2_values = c.eval(test.v2);
  const InputVec good2 = c.pack_outputs(v2_values);
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TransitionFault& f = faults[i];
    const bool o1 = v1_values[static_cast<std::size_t>(f.net)];
    const bool o2 = v2_values[static_cast<std::size_t>(f.net)];
    const bool excited = f.slow_to_rise ? (!o1 && o2) : (o1 && !o2);
    if (!excited) continue;
    const InputVec bad2 = outputs_with_forced(c, test.v2, f.net, o1);
    detected[i] = bad2 != good2;
  }
  return detected;
}

}  // namespace legacy

}  // namespace obd::atpg

#include "atpg/scan.hpp"

#include "atpg/faultsim.hpp"
#include "core/excitation.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::SequentialCircuit;

ScanObdResult generate_enhanced(const SequentialCircuit& seq,
                                const Circuit& sv, const ObdFaultSite& site,
                                const PodemOptions& opt) {
  ScanObdResult result;
  // scan_view preserves gate order, so the fault index carries over.
  const TwoFrameResult r = generate_obd_test(sv, site, opt);
  result.status = r.status;
  result.reason = r.reason;
  result.backtracks = r.backtracks;
  result.implications = r.implications;
  if (r.status != PodemStatus::kFound) return result;
  const std::size_t n_pi = seq.core().inputs().size();
  const std::size_t n_ff = seq.flops().size();
  result.test.pi1 = r.test.v1.slice(0, n_pi);
  result.test.state1 = r.test.v1.slice(n_pi, n_ff);
  result.test.pi2 = r.test.v2.slice(0, n_pi);
  result.test.state2 = r.test.v2.slice(n_pi, n_ff);
  result.test.state2_loaded = true;
  return result;
}

ScanObdResult generate_loc(const SequentialCircuit& seq, const Circuit& u,
                           const std::vector<logic::NetId>& next_state,
                           const ObdFaultSite& site, bool held_pi,
                           const PodemOptions& opt) {
  ScanObdResult result;
  const int g1 = seq.frame1_gate_index(site.gate_index);
  const int g2 = seq.frame2_gate_index(site.gate_index);
  // Each goal of the capture-frame twin folds into one unrolled frame: the
  // launch pins move onto the frame-1 twin's inputs, ahead of the capture
  // pins, so the LOC state coupling is solved exactly in one search.
  std::vector<TwoFrameGoal> goals =
      goals_of(u, ObdFaultSite{g2, site.transistor});
  for (TwoFrameGoal& goal : goals) {
    std::vector<NetConstraint> pins =
        std::move(goal.justify_frame->constraints);
    for (std::size_t k = 0; k < pins.size(); ++k)
      pins[k].net = u.gate(g1).inputs[k];
    pins.insert(pins.end(), goal.fault_frame.constraints.begin(),
                goal.fault_frame.constraints.end());
    goal.fault_frame.constraints = std::move(pins);
    goal.justify_frame.reset();
  }
  const TwoFrameResult r = generate_test(u, goals, opt);
  result.status = r.status;
  result.reason = r.reason;
  result.backtracks = r.backtracks;
  result.implications = r.implications;
  if (r.status != PodemStatus::kFound) return result;

  const InputVec& bits = r.test.v2;
  const std::size_t n_pi = seq.core().inputs().size();
  const std::size_t n_ff = seq.flops().size();
  result.test.pi1 = bits.slice(0, n_pi);
  result.test.state1 = bits.slice(n_pi, n_ff);
  result.test.pi2 = held_pi ? result.test.pi1 : bits.slice(n_pi + n_ff, n_pi);
  // Frame-2 present state = the machine's own launch response, read off
  // the unrolled circuit's frame-1 next-state nets.
  const std::vector<bool> uvals = u.eval(bits);
  for (std::size_t j = 0; j < n_ff; ++j)
    if (next_state[j] != logic::kNoNet)
      result.test.state2.set_bit(j,
                                 uvals[static_cast<std::size_t>(next_state[j])]);
  result.test.state2_loaded = false;
  return result;
}

}  // namespace

const char* to_string(ScanMode m) {
  switch (m) {
    case ScanMode::kEnhanced: return "enhanced-scan";
    case ScanMode::kLaunchOnCapture: return "launch-on-capture";
    case ScanMode::kLaunchOnCaptureHeldPi: return "LOC-held-PI";
  }
  return "?";
}

ScanObdGenerator::ScanObdGenerator(const SequentialCircuit& seq,
                                   ScanMode mode)
    : seq_(seq),
      mode_(mode),
      view_(mode == ScanMode::kEnhanced
                ? seq.scan_view()
                : seq.unroll_two_frames(
                      /*share_pis=*/mode == ScanMode::kLaunchOnCaptureHeldPi)) {
  if (mode == ScanMode::kEnhanced) return;
  for (const logic::Flop& ff : seq.flops()) {
    const std::string& d_name = seq.core().net_name(ff.d);
    logic::NetId d1 = view_.find_net(d_name + "@1");
    // A flop fed directly by a PI carries the shared "@12" suffix when the
    // frames share inputs. Both lookups missing is unreachable for a
    // circuit unroll just built, but an undriven-net 0 beats an
    // out-of-bounds read.
    if (d1 == logic::kNoNet) d1 = view_.find_net(d_name + "@12");
    next_state_.push_back(d1);
  }
}

ScanObdResult ScanObdGenerator::generate(const ObdFaultSite& site,
                                         const PodemOptions& opt) const {
  switch (mode_) {
    case ScanMode::kEnhanced:
      return generate_enhanced(seq_, view_, site, opt);
    case ScanMode::kLaunchOnCapture:
      return generate_loc(seq_, view_, next_state_, site, /*held_pi=*/false,
                          opt);
    case ScanMode::kLaunchOnCaptureHeldPi:
      return generate_loc(seq_, view_, next_state_, site, /*held_pi=*/true,
                          opt);
  }
  return {};
}

ScanObdResult generate_scan_obd_test(const SequentialCircuit& seq,
                                     const ObdFaultSite& site, ScanMode mode,
                                     const PodemOptions& opt) {
  return ScanObdGenerator(seq, mode).generate(site, opt);
}

bool verify_scan_obd_test(const SequentialCircuit& seq,
                          const ObdFaultSite& site, const ScanObdTest& test) {
  const Circuit sv = seq.scan_view();
  const std::size_t n_pi = seq.core().inputs().size();

  // Frame-1 (launch) settled values.
  const InputVec in1 = test.pi1 | (test.state1 << n_pi);
  const std::vector<bool> vals1 = sv.eval(in1);

  // Frame-2 present state: loaded (enhanced) or the machine's own response.
  const InputVec state2 =
      test.state2_loaded ? test.state2
                         : seq.step(test.pi1, test.state1).next_state;
  const InputVec in2 = test.pi2 | (state2 << n_pi);
  const std::vector<bool> vals2 = sv.eval(in2);

  // Gate-local excitation across the launch->capture boundary.
  const auto& gate = sv.gate(site.gate_index);
  const auto topo = logic::gate_topology(gate.type);
  if (!topo.has_value()) return false;
  const std::uint32_t lv1 = sv.gate_input_bits(site.gate_index, vals1);
  const std::uint32_t lv2 = sv.gate_input_bits(site.gate_index, vals2);
  if (!core::excites_obd(*topo, site.transistor, cells::TwoVector{lv1, lv2}))
    return false;

  // Gross-delay: the gate output holds its frame-1 value during capture.
  // Observation: POs plus the captured next-state (both are scan_view POs).
  const bool old_out = topo->output(lv1);
  return forced_outputs_differ(sv, in2, gate.output, old_out);
}

std::vector<ScanObdTest> random_broadside_tests(const SequentialCircuit& seq,
                                                const Circuit& sv,
                                                ScanMode mode, int count,
                                                std::uint64_t seed) {
  const std::size_t n_pi = seq.core().inputs().size();
  const std::size_t n_ff = seq.flops().size();
  // step() rebuilds the scan view on every call; derive good-machine
  // next-states through the prebuilt view instead (its POs are the core
  // POs followed by the next-state nets).
  const std::size_t n_po = seq.core().outputs().size();
  util::Prng prng(seed);
  std::vector<ScanObdTest> tests;
  tests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ScanObdTest t;
    t.pi1 = InputVec::random(n_pi, prng);
    t.state1 = InputVec::random(n_ff, prng);
    t.pi2 = mode == ScanMode::kLaunchOnCaptureHeldPi
                ? t.pi1
                : InputVec::random(n_pi, prng);
    t.state2_loaded = mode == ScanMode::kEnhanced;
    t.state2 = t.state2_loaded
                   ? InputVec::random(n_ff, prng)
                   : sv.eval_outputs(t.pi1 | (t.state1 << n_pi)) >> n_po;
    tests.push_back(t);
  }
  return tests;
}

TwoVectorTest scan_view_vectors(const SequentialCircuit& seq,
                                const ScanObdTest& t) {
  const std::size_t n_pi = seq.core().inputs().size();
  return {t.pi1 | (t.state1 << n_pi), t.pi2 | (t.state2 << n_pi)};
}

ScanCampaign run_scan_obd_atpg(const SequentialCircuit& seq,
                               const std::vector<ObdFaultSite>& faults,
                               ScanMode mode, const PodemOptions& opt) {
  ScanCampaign c;
  const ScanObdGenerator gen(seq, mode);
  for (const ObdFaultSite& f : faults) {
    const ScanObdResult r = gen.generate(f, opt);
    switch (r.status) {
      case PodemStatus::kFound:
        ++c.found;
        c.tests.push_back(r.test);
        break;
      case PodemStatus::kUntestable:
        ++c.untestable;
        break;
      case PodemStatus::kAborted:
        ++c.aborted;
        break;
    }
  }
  return c;
}

}  // namespace obd::atpg

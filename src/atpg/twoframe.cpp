#include "atpg/twoframe.hpp"

#include "atpg/faultsim.hpp"
#include "atpg/faultsim_engine.hpp"

namespace obd::atpg {

TwoFrameResult generate_test(const Circuit& c,
                             const std::vector<TwoFrameGoal>& goals,
                             const PodemOptions& opt) {
  TwoFrameResult result;
  bool any_aborted = false;
  AbortReason abort_reason = AbortReason::kNone;
  auto tally = [&](const PodemResult& r) {
    result.backtracks += r.backtracks;
    result.implications += r.implications;
    if (r.status != PodemStatus::kAborted) return;
    any_aborted = true;
    if (abort_reason != AbortReason::kTime) abort_reason = r.reason;
  };
  for (const TwoFrameGoal& goal : goals) {
    // Frame 2: the goal's pins hold in the good circuit while the faulty
    // circuit sees the forced net at its stuck value.
    const StuckFault& forced = *goal.fault_frame.fault;
    const PodemResult f2 = podem_constrained_fault(
        c, goal.fault_frame.constraints, forced.net, forced.value, opt);
    tally(f2);
    if (f2.status != PodemStatus::kFound) continue;

    // Frame 1: justify the launch vector (single-frame goals reuse v2).
    TestVector v1 = f2.vector;
    if (goal.justify_frame) {
      const PodemResult f1 =
          podem_justify(c, goal.justify_frame->constraints, opt);
      tally(f1);
      if (f1.status != PodemStatus::kFound) continue;
      v1 = f1.vector;
    }

    result.status = PodemStatus::kFound;
    result.test = TwoVectorTest{v1.bits, f2.vector.bits};
    result.x_test = XTwoVectorTest{v1, f2.vector};
    return result;
  }
  result.status =
      any_aborted ? PodemStatus::kAborted : PodemStatus::kUntestable;
  if (any_aborted) result.reason = abort_reason;
  return result;
}

namespace {

std::vector<TwoVectorTest> random_phase_tests(const Circuit& c,
                                              const PodemOptions& opt) {
  if (opt.random_phase <= 0) return {};
  return random_pairs(static_cast<int>(c.inputs().size()), opt.random_phase,
                      opt.random_phase_seed);
}

/// Random-pattern phase, then generate_test over the survivors. The phase
/// block-simulates `tests` with fault dropping (sharded over
/// opt.sim.threads workers); faults caught there skip the deterministic
/// search, and each random test that is the *first* detector of some fault
/// joins the run's test set. `campaign` maps (scheduler, tests) to a
/// fault-dropping campaign.
template <typename Fault, typename CampaignFn>
AtpgRun run_atpg(const Circuit& c, const std::vector<Fault>& faults,
                 const std::vector<TwoVectorTest>& tests,
                 const PodemOptions& opt, CampaignFn campaign) {
  AtpgRun run;
  std::vector<std::uint8_t> skip(faults.size(), 0);
  if (!tests.empty() && !faults.empty()) {
    FaultSimScheduler sched(c, opt.sim);
    const PrepassMarks marks =
        mark_first_detections(campaign(sched, tests), tests.size());
    run.found += marks.found;
    skip = marks.skip;
    const InputVec pi_mask = InputVec::mask(c.inputs().size());
    for (std::size_t t = 0; t < tests.size(); ++t) {
      if (!marks.useful[t]) continue;
      run.tests.push_back(tests[t]);
      run.x_tests.push_back(XTwoVectorTest{{tests[t].v1, pi_mask},
                                           {tests[t].v2, pi_mask}});
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (skip[i]) continue;
    const TwoFrameResult r = generate_test(c, goals_of(c, faults[i]), opt);
    run.total_backtracks += r.backtracks;
    run.total_implications += r.implications;
    switch (r.status) {
      case PodemStatus::kFound:
        ++run.found;
        run.tests.push_back(r.test);
        run.x_tests.push_back(r.x_test);
        break;
      case PodemStatus::kUntestable:
        ++run.untestable;
        run.untestable_faults.push_back(i);
        break;
      case PodemStatus::kAborted:
        ++run.aborted;
        break;
    }
  }
  return run;
}

}  // namespace

AtpgRun run_obd_atpg(const Circuit& c, const std::vector<ObdFaultSite>& faults,
                     const PodemOptions& opt) {
  return run_atpg(
      c, faults, random_phase_tests(c, opt), opt,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& tests) {
        return s.campaign_obd(tests, faults);
      });
}

AtpgRun run_transition_atpg(const Circuit& c,
                            const std::vector<TransitionFault>& faults,
                            const PodemOptions& opt) {
  return run_atpg(
      c, faults, random_phase_tests(c, opt), opt,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& tests) {
        return s.campaign_transition(tests, faults);
      });
}

AtpgRun run_stuck_at_atpg(const Circuit& c,
                          const std::vector<StuckFault>& faults,
                          const PodemOptions& opt) {
  // Single-vector patterns: the v2 halves of the shared pair generator.
  auto tests = random_phase_tests(c, opt);
  for (auto& t : tests) t.v1 = t.v2;
  return run_atpg(
      c, faults, tests, opt,
      [&](FaultSimScheduler& s, const std::vector<TwoVectorTest>& ts) {
        std::vector<InputVec> patterns(ts.size());
        for (std::size_t i = 0; i < ts.size(); ++i) patterns[i] = ts[i].v2;
        return s.campaign_stuck(patterns, faults);
      });
}

}  // namespace obd::atpg

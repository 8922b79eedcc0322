#include "atpg/twoframe.hpp"

#include <algorithm>

namespace obd::atpg {

TwoFrameResult generate_test(const Circuit& c,
                             const std::vector<TwoFrameGoal>& goals,
                             const PodemOptions& opt) {
  TwoFrameResult result;
  bool any_aborted = false;
  AbortReason abort_reason = AbortReason::kNone;
  auto note_abort = [&](const PodemResult& r) {
    if (r.status != PodemStatus::kAborted) return;
    any_aborted = true;
    if (abort_reason != AbortReason::kTime) abort_reason = r.reason;
  };
  auto tally = [&](const PodemResult& r) {
    result.backtracks += r.backtracks;
    result.implications += r.implications;
    note_abort(r);
  };
  // Capture frames searched so far. A search depends only on its frame (and,
  // under a time budget, the clock), so a goal repeating an earlier goal's
  // frame (a NAND-k NMOS site's 2^k - 1 goals share one) reuses that result:
  // without a time budget the outcome is the goal-by-goal loop's, at the
  // cost of one search per distinct frame.
  std::vector<std::pair<const FrameGoal*, PodemResult>> searched;
  searched.reserve(goals.size());
  for (const TwoFrameGoal& goal : goals) {
    // Frame 2: the goal's pins hold in the good circuit while the faulty
    // circuit sees the forced net at its stuck value.
    const FrameGoal& frame = goal.fault_frame;
    const auto seen =
        std::find_if(searched.begin(), searched.end(),
                     [&](const auto& s) { return *s.first == frame; });
    const PodemResult* f2 = nullptr;
    if (seen != searched.end()) {
      f2 = &seen->second;
      note_abort(*f2);
    } else {
      const StuckFault& forced = *frame.fault;
      f2 = &searched
                .emplace_back(&frame, podem_constrained_fault(
                                          c, frame.constraints, forced.net,
                                          forced.value, opt))
                .second;
      tally(*f2);
    }
    if (f2->status != PodemStatus::kFound) continue;

    // Frame 1: justify the launch vector (single-frame goals reuse v2).
    InputVec v1 = f2->vector.bits;
    if (goal.justify_frame) {
      const PodemResult f1 =
          podem_justify(c, goal.justify_frame->constraints, opt);
      tally(f1);
      if (f1.status != PodemStatus::kFound) continue;
      v1 = f1.vector.bits;
    }

    result.status = PodemStatus::kFound;
    result.test = TwoVectorTest{v1, f2->vector.bits};
    return result;
  }
  result.status =
      any_aborted ? PodemStatus::kAborted : PodemStatus::kUntestable;
  if (any_aborted) result.reason = abort_reason;
  return result;
}

namespace {

/// generate_test over every fault, in list order.
template <typename Fault>
AtpgRun run_atpg(const Circuit& c, const std::vector<Fault>& faults,
                 const PodemOptions& opt) {
  AtpgRun run;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TwoFrameResult r = generate_test(c, goals_of(c, faults[i]), opt);
    run.total_backtracks += r.backtracks;
    run.total_implications += r.implications;
    switch (r.status) {
      case PodemStatus::kFound:
        ++run.found;
        run.tests.push_back(r.test);
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
  return run_atpg(c, faults, opt);
}

AtpgRun run_transition_atpg(const Circuit& c,
                            const std::vector<TransitionFault>& faults,
                            const PodemOptions& opt) {
  return run_atpg(c, faults, opt);
}

AtpgRun run_stuck_at_atpg(const Circuit& c,
                          const std::vector<StuckFault>& faults,
                          const PodemOptions& opt) {
  return run_atpg(c, faults, opt);
}

}  // namespace obd::atpg

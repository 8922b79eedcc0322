// Fault simulation: which faults does a test (set) detect?
//
// Detection criteria:
//  - stuck-at: PO mismatch between good and faulty circuits under one vector;
//  - OBD / transition (gross-delay): the fault is excited by the local
//    two-vector at its gate AND freezing the gate output at its frame-1
//    value changes some frame-2 PO. This assumes the added delay exceeds
//    the capture window — the conservative end of Sec. 4.2;
//  - OBD timing-aware: event-driven simulation with a finite extra delay
//    and a concrete capture time — the fine-grained end of Sec. 4.2, used
//    for window-of-opportunity studies.
//
// All set-level work runs through the FaultSimScheduler
// (faultsim_engine.hpp), the fault simulator's only loop over pattern
// blocks: it packs 64 to 512 patterns per block, propagates each fault
// through its fanout cone once per block, optionally shards a detection
// matrix's blocks across worker threads with results bit-identical at any
// thread count, and always drops detected faults in campaigns (which run on
// one worker). The single-test functions below are
// one-test wrappers (a block with one live lane) kept for API compatibility,
// except simulate_obd_x, which evaluates partially specified tests in
// three-valued logic on Circuit::eval3; `legacy::` holds the original
// one-fault-one-pattern reference implementations, the oracle of the
// equivalence tests and the benchmarks' baseline.
#pragma once

#include "atpg/faults.hpp"
#include "atpg/faultsim_engine.hpp"
#include "atpg/patterns.hpp"

namespace obd::atpg {

/// Per-fault detection flags for one single-vector test.
std::vector<bool> simulate_stuck_at(const Circuit& c, const InputVec& pattern,
                                    const std::vector<StuckFault>& faults);

/// Per-fault detection flags for one two-vector test against OBD faults.
std::vector<bool> simulate_obd(const Circuit& c, const TwoVectorTest& test,
                               const std::vector<ObdFaultSite>& faults);

/// Per-fault detection flags for classical transition faults.
std::vector<bool> simulate_transition(const Circuit& c,
                                      const TwoVectorTest& test,
                                      const std::vector<TransitionFault>& faults);

/// Definite OBD detections under a partially-specified test (a SAT cube, say):
/// legacy::simulate_obd's rules in Kleene logic through Circuit::eval3. A
/// fault counts only when its gate-local two-vector is fully specified and
/// exciting, and some PO is known in both the good and the faulty frame-2
/// valuation with differing values, so each detection holds for *every*
/// fill of the X (non-care) bits.
std::vector<bool> simulate_obd_x(const Circuit& c, const XTwoVectorTest& test,
                                 const std::vector<ObdFaultSite>& faults);

/// Does forcing `net` to `value` under `pattern` change any PO? The
/// single-pattern building block shared with scan-test verification.
bool forced_outputs_differ(const Circuit& c, const InputVec& pattern,
                           NetId net, bool value);

/// Timing-aware OBD detection of a single fault: event-driven run with
/// `extra_delay` added to excited transitions (or a stall when `stuck`),
/// sampled at `capture_time`. Returns true when a captured PO differs from
/// the fault-free captured value.
bool simulate_obd_timing(const Circuit& c, const TwoVectorTest& test,
                         const ObdFaultSite& fault, double extra_delay,
                         bool stuck, double capture_time,
                         const logic::DelayLibrary& lib = {});

/// OBD detection matrix of a test set (DetectionMatrix lives in
/// faultsim_engine.hpp); worker threads come from `sim`. Stuck-at
/// and transition matrices come from FaultSimScheduler::matrix_stuck and
/// matrix_transition directly.
DetectionMatrix build_obd_matrix(const Circuit& c,
                                 const std::vector<TwoVectorTest>& tests,
                                 const std::vector<ObdFaultSite>& faults,
                                 const SimOptions& sim = {});

/// First-detection bookkeeping of a random-pattern prepass campaign: which
/// tests first-detect some fault (and so join the returned test set) and
/// which faults are detected (and so skip the deterministic search). The
/// campaign executor's start_partition (flow/campaign.cpp) is its caller.
struct PrepassMarks {
  std::vector<std::uint8_t> useful;  // per test: first detector of some fault
  std::vector<std::uint8_t> skip;    // per fault: detected by the prepass
  int found = 0;
};
PrepassMarks mark_first_detections(const FaultSimEngine::Campaign& campaign,
                                   std::size_t n_tests);

/// OBD coverage of a fault list by a test set (fraction of faults
/// detected). Runs a fault-dropping scheduler campaign — no matrix is
/// materialized.
double obd_coverage(const Circuit& c, const std::vector<TwoVectorTest>& tests,
                    const std::vector<ObdFaultSite>& faults,
                    const SimOptions& sim = {});

namespace legacy {

/// Reference one-fault-one-pattern simulators (full-circuit re-evaluation
/// per fault per test). Kept as the equivalence oracle for the block engine
/// and as the baseline in the old-vs-new benchmarks.
std::vector<bool> simulate_stuck_at(const Circuit& c, const InputVec& pattern,
                                    const std::vector<StuckFault>& faults);
std::vector<bool> simulate_obd(const Circuit& c, const TwoVectorTest& test,
                               const std::vector<ObdFaultSite>& faults);
std::vector<bool> simulate_transition(
    const Circuit& c, const TwoVectorTest& test,
    const std::vector<TransitionFault>& faults);

}  // namespace legacy

}  // namespace obd::atpg

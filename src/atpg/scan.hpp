// Scan-based OBD test generation for sequential circuits (paper Sec. 5).
//
// Three application styles, in decreasing hardware cost / increasing
// constraint:
//  - enhanced scan: both vectors fully controllable (two scan registers);
//    any combinational (V1, V2) pair applies;
//  - launch-on-capture (LOC): V1's state is scan-loaded, V2's state is the
//    circuit's own next-state response; PIs may change between frames;
//  - LOC with held PIs: additionally PI2 == PI1 (slow tester).
//
// LOC coupling is handled exactly by running the constrained PODEM on the
// two-frame unrolled circuit, with the OBD excitation pinned on the
// frame-1/frame-2 twins of the defective gate.
#pragma once

#include "atpg/twoframe.hpp"
#include "logic/sequential.hpp"

namespace obd::atpg {

enum class ScanMode {
  kEnhanced,
  kLaunchOnCapture,
  kLaunchOnCaptureHeldPi,
};

const char* to_string(ScanMode m);

/// A scan test: state to scan in, PI vectors for the two cycles. All fields
/// are wide InputVecs, so scan chains longer than 64 flops apply unchanged.
struct ScanObdTest {
  InputVec state1;
  InputVec pi1;
  InputVec pi2;
  /// Frame-2 state. For enhanced scan this is independently loaded; for the
  /// LOC modes it is derived (the machine's own next state) and recorded
  /// here for reporting only.
  InputVec state2;
  /// True when state2 was independently loaded (enhanced scan).
  bool state2_loaded = false;
};

struct ScanObdResult {
  PodemStatus status = PodemStatus::kUntestable;
  /// Set when status == kAborted; a time abort anywhere dominates, as in
  /// TwoFrameResult.
  AbortReason reason = AbortReason::kNone;
  ScanObdTest test;
  long backtracks = 0;
  long implications = 0;
};

/// Scan OBD test generation for one machine and mode. The search circuit is
/// built once and reused for every fault: the scan view for enhanced scan,
/// the two-frame unroll for the LOC modes, together with each flop's
/// frame-1 next-state net. Holds a reference to `seq`, which must outlive
/// the generator.
class ScanObdGenerator {
 public:
  ScanObdGenerator(const logic::SequentialCircuit& seq, ScanMode mode);

  /// Generates a scan OBD test for a fault on core gate `site.gate_index`.
  ScanObdResult generate(const ObdFaultSite& site,
                         const PodemOptions& opt = {}) const;

 private:
  const logic::SequentialCircuit& seq_;
  ScanMode mode_;
  logic::Circuit view_;
  std::vector<logic::NetId> next_state_;  // LOC only; kNoNet if not found
};

/// One-off form of ScanObdGenerator::generate (builds the search circuit
/// for this call only).
ScanObdResult generate_scan_obd_test(const logic::SequentialCircuit& seq,
                                     const ObdFaultSite& site, ScanMode mode,
                                     const PodemOptions& opt = {});

/// Checks a scan test end to end by cycle-accurate simulation: loads
/// state1, runs the launch and capture cycles in both good and faulty
/// machines (gross-delay fault semantics on the capture cycle), and
/// compares POs + captured state.
bool verify_scan_obd_test(const logic::SequentialCircuit& seq,
                          const ObdFaultSite& site, const ScanObdTest& test);

/// `count` random broadside (launch/capture) scan tests for `mode`,
/// deterministic in `seed`: random state1/pi1 (and pi2 unless held); state2
/// is the machine's own response for the LOC modes (derived through the
/// prebuilt `scan_view`, seq.scan_view()) and independently random for
/// enhanced scan. A LOC campaign's random prepass pool is these tests'
/// scan_view_vectors (flow/campaign.cpp).
std::vector<ScanObdTest> random_broadside_tests(
    const logic::SequentialCircuit& seq, const logic::Circuit& scan_view,
    ScanMode mode, int count, std::uint64_t seed);

/// The scan-view two-vector image of a scan test: v1 = {pi1, state1},
/// v2 = {pi2, state2} over the scan view's PI order (PIs, then flops).
TwoVectorTest scan_view_vectors(const logic::SequentialCircuit& seq,
                                const ScanObdTest& t);

/// Per-mode ATPG over a fault list: one ScanObdGenerator, one test per
/// fault in list order, with no random prepass. `tests` holds the found
/// tests in fault order.
struct ScanCampaign {
  int found = 0;
  int untestable = 0;
  int aborted = 0;
  std::vector<ScanObdTest> tests;
};

ScanCampaign run_scan_obd_atpg(const logic::SequentialCircuit& seq,
                               const std::vector<ObdFaultSite>& faults,
                               ScanMode mode, const PodemOptions& opt = {});

}  // namespace obd::atpg

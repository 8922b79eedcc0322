// OBD fault collapsing.
//
// The paper's own data shows the seed for this: in Table 1 the NMOS defects
// NA and NB of a NAND produce the same behaviour for every input sequence
// (a series stack starves equally wherever the spot sits), so one of them
// suffices for test generation. Formally, two OBD faults of the same gate
// are *gate-equivalent* when their excitation sets over the gate's local
// two-vector space are identical; since detection = excitation + gate-output
// effect + propagation (and the latter two depend only on the gate output),
// gate-equivalent faults are detected by exactly the same tests.
//
// collapse_obd_faults() keeps one representative per equivalence class.
// For a NAND-k this halves the NMOS list (k -> 1) while all PMOS faults
// stay distinct — mirroring the paper's input-specificity result. The
// excitation sets are never rebuilt here: the per-cell OBD table
// (obd_cell, atpg/goals.hpp) gives each transistor a class id that is equal
// exactly when two excitation sets are, so a fault's class is the flat key
// (gate, class id).
#pragma once

#include "atpg/faults.hpp"

namespace obd::atpg {

struct CollapsedFaults {
  /// One representative per equivalence class.
  std::vector<ObdFaultSite> representatives;
  /// Class id of each input fault (index into `representatives`).
  std::vector<std::size_t> class_of;
  std::size_t original_count = 0;

  double reduction() const {
    return original_count == 0
               ? 0.0
               : 1.0 - static_cast<double>(representatives.size()) /
                           static_cast<double>(original_count);
  }
};

/// Partitions `faults` into gate-local equivalence classes.
CollapsedFaults collapse_obd_faults(const Circuit& c,
                                    const std::vector<ObdFaultSite>& faults);

/// Are two same-gate faults equivalent (identical local excitation sets)?
bool gate_equivalent(const Circuit& c, const ObdFaultSite& a,
                     const ObdFaultSite& b);

/// Classical structural stuck-at equivalence collapsing. A fanout-free
/// gate-input net stuck at the gate's controlling value is equivalent to
/// the output stuck at the forced value (AND: in-0 = out-0, NAND: in-0 =
/// out-1, OR: in-1 = out-1, NOR: in-1 = out-0; INV/BUF collapse both
/// polarities); classes are the transitive closure along such chains. Only
/// equivalences are merged (no dominance), so per-class detection — and
/// hence collapsed coverage — is exact: every member of a class is
/// detected by exactly the tests that detect its representative.
struct CollapsedStuck {
  /// One representative per equivalence class (first member in input order).
  std::vector<StuckFault> representatives;
  /// Class id of each input fault (index into `representatives`).
  std::vector<std::size_t> class_of;
  std::size_t original_count = 0;

  double reduction() const {
    return original_count == 0
               ? 0.0
               : 1.0 - static_cast<double>(representatives.size()) /
                           static_cast<double>(original_count);
  }
};

CollapsedStuck collapse_stuck_faults(const Circuit& c,
                                     const std::vector<StuckFault>& faults);

}  // namespace obd::atpg

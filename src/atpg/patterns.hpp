// Test-pattern containers and generators.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/circuit.hpp"
#include "logic/inputvec.hpp"
#include "util/prng.hpp"

namespace obd::atpg {

using logic::InputVec;

/// A single input vector (bit i = PI i), any width.
struct TestVector {
  InputVec bits;
  /// Bits the generator actually cared about; don't-cares were filled.
  InputVec care_mask;

  bool operator==(const TestVector&) const = default;
};

/// A two-vector (launch/capture) test.
struct TwoVectorTest {
  InputVec v1;
  InputVec v2;

  bool operator==(const TwoVectorTest&) const = default;
};

/// A partially-specified two-vector test: per-frame value and care bits.
/// SAT escalation emits these as lifted cubes (don't-care PIs keep
/// care_mask 0); simulate_obd_x proves the detections that hold under *any*
/// fill of the X bits.
struct XTwoVectorTest {
  TestVector v1;
  TestVector v2;

  bool operator==(const XTwoVectorTest&) const = default;

  /// The concrete vector pair actually applied on the tester (X bits as
  /// filled in `bits`).
  TwoVectorTest concrete() const { return {v1.bits, v2.bits}; }
};

/// Every ordered pair (v1, v2) over n_pis inputs. `include_repeats` keeps
/// v1 == v2 pairs (which can never excite a transition). Exhaustive
/// enumeration is 4^n_pis pairs, so n_pis is capped at 16; larger requests
/// throw std::invalid_argument (use random_pairs for wide circuits).
std::vector<TwoVectorTest> all_ordered_pairs(int n_pis,
                                             bool include_repeats = false);

/// `count` random pairs, deterministic in `seed`. Any width: vectors wider
/// than 64 PIs consume one PRNG draw per 64-bit word.
std::vector<TwoVectorTest> random_pairs(int n_pis, int count,
                                        std::uint64_t seed);

/// Converts a flat pattern sequence into back-to-back pairs
/// (p0,p1), (p1,p2), ... — how single-vector (stuck-at) test sets are
/// applied in practice when probing dynamic faults.
std::vector<TwoVectorTest> consecutive_pairs(
    const std::vector<InputVec>& patterns);

/// Fault-simulation knobs. Lives here (not in faultsim_engine.hpp) so
/// options structs like PodemOptions can name it without pulling in the
/// engine.
struct SimOptions {
  /// Worker threads for sharding a detection matrix's pattern blocks; 1
  /// runs inline on the calling thread, and so do campaigns at any count.
  /// Results are bit-identical at any count. The block width is not a
  /// knob: the scheduler picks it per call (FaultSimScheduler::block_lanes).
  int threads = 1;
};

}  // namespace obd::atpg

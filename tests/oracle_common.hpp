// Randomized oracle harness for the fault-sim engine family.
//
// One reference, many implementations: the legacy scalar simulators
// (one fault, one pattern, full-circuit evaluation — slow but obviously
// correct) define the detection semantics; every engine configuration —
// pattern blocks of 64 to 512 lanes on the threaded scheduler at 1/2/4
// workers — must reproduce their DetectionMatrix bit for bit, and
// every campaign must agree on (first_test, detected) with the
// single-threaded fault-dropping engine. Shared by test_faultsim_engine.cpp
// and test_faultsim_scheduler.cpp.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "logic/zoo.hpp"

namespace obd::atpg::oracle {

/// The circuit zoo swept by the oracle: the paper's full adder, small
/// benchmarks, and random primitive-gate DAGs (fuzz coverage).
inline std::vector<logic::Circuit> zoo() {
  std::vector<logic::Circuit> out;
  out.push_back(logic::full_adder_sum_circuit());
  out.push_back(logic::c17());
  out.push_back(logic::ripple_carry_adder(4));
  out.push_back(logic::mux_tree(2));
  out.push_back(logic::decoder(3));
  out.push_back(logic::random_circuit(8, 60, 6, 0xfeed));
  out.push_back(logic::random_circuit(10, 120, 8, 0xbead));
  return out;
}

/// Engine configurations swept against the legacy reference: thread
/// counts at 64 lanes, then the wide LaneBlock bundles (lane widths 2/4/8
/// words x thread counts).
inline std::vector<SimOptions> sweep_configs() {
  return {// SimOptions: {threads, lane_words}
          {1},    {2},    {4},    {1, 2}, {1, 4}, {1, 8},
          {2, 2}, {2, 4}, {4, 4}, {4, 8}};
}

inline std::string config_name(const SimOptions& o) {
  return std::to_string(o.threads) + "t/" +
         std::to_string(64 * (o.lane_words < 1 ? 1 : o.lane_words)) + "l";
}

/// Builds a DetectionMatrix row-by-row from per-test detection flags.
template <typename SimFn>
DetectionMatrix reference_matrix(std::size_t n_tests, std::size_t n_faults,
                                 SimFn simulate_test) {
  DetectionMatrix m;
  m.n_tests = n_tests;
  m.n_faults = n_faults;
  m.words_per_row = (n_faults + 63) / 64;
  m.rows.assign(m.n_tests * m.words_per_row, 0);
  m.covered.assign(n_faults, false);
  for (std::size_t t = 0; t < n_tests; ++t) {
    const std::vector<bool> det = simulate_test(t);
    for (std::size_t f = 0; f < n_faults; ++f) {
      if (!det[f]) continue;
      m.rows[t * m.words_per_row + (f >> 6)] |= 1ull << (f & 63);
      if (!m.covered[f]) {
        m.covered[f] = true;
        ++m.covered_count;
      }
    }
  }
  return m;
}

inline void expect_matrices_identical(const DetectionMatrix& ref,
                                      const DetectionMatrix& got,
                                      const std::string& label) {
  ASSERT_EQ(ref.n_tests, got.n_tests) << label;
  ASSERT_EQ(ref.n_faults, got.n_faults) << label;
  ASSERT_EQ(ref.words_per_row, got.words_per_row) << label;
  EXPECT_EQ(ref.rows, got.rows) << label;
  EXPECT_EQ(ref.covered, got.covered) << label;
  EXPECT_EQ(ref.covered_count, got.covered_count) << label;
}

/// Sweeps one circuit under all three fault models: a random pattern set,
/// legacy scalar reference matrices, and bit-identity of every engine
/// configuration's matrix.
inline void sweep_matrices(const logic::Circuit& c, int n_tests,
                           std::uint64_t seed,
                           const std::vector<SimOptions>& configs =
                               sweep_configs()) {
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), n_tests, seed);
  std::vector<InputVec> patterns;
  for (const auto& t : tests) patterns.push_back(t.v2);
  const auto sf = enumerate_stuck_faults(c);
  const auto tf = enumerate_transition_faults(c);
  const auto of = enumerate_obd_faults(c);

  const DetectionMatrix ref_s =
      reference_matrix(patterns.size(), sf.size(), [&](std::size_t t) {
        return legacy::simulate_stuck_at(c, patterns[t], sf);
      });
  const DetectionMatrix ref_t =
      reference_matrix(tests.size(), tf.size(), [&](std::size_t t) {
        return legacy::simulate_transition(c, tests[t], tf);
      });
  const DetectionMatrix ref_o =
      reference_matrix(tests.size(), of.size(), [&](std::size_t t) {
        return legacy::simulate_obd(c, tests[t], of);
      });

  for (const SimOptions& cfg : configs) {
    FaultSimScheduler sched(c, cfg);
    const std::string label = c.name() + " " + config_name(cfg);
    expect_matrices_identical(ref_s, sched.matrix_stuck(patterns, sf),
                              label + " stuck");
    expect_matrices_identical(ref_t, sched.matrix_transition(tests, tf),
                              label + " transition");
    expect_matrices_identical(ref_o, sched.matrix_obd(tests, of),
                              label + " obd");
  }
}

/// Sweeps one circuit's fault-dropping campaigns: every configuration must
/// agree with the single-threaded block engine on (first_test, detected) —
/// the deterministic drop-reconciliation contract.
inline void sweep_campaigns(const logic::Circuit& c, int n_tests,
                            std::uint64_t seed, bool drop) {
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), n_tests, seed);
  std::vector<InputVec> patterns;
  for (const auto& t : tests) patterns.push_back(t.v2);
  const auto sf = enumerate_stuck_faults(c);
  const auto tf = enumerate_transition_faults(c);
  const auto of = enumerate_obd_faults(c);

  FaultSimEngine engine(c);
  const auto ref_s = engine.campaign_stuck(patterns, sf, drop);
  const auto ref_t = engine.campaign_transition(tests, tf, drop);
  const auto ref_o = engine.campaign_obd(tests, of, drop);

  for (const SimOptions& cfg : sweep_configs()) {
    FaultSimScheduler sched(c, cfg);
    const std::string label = c.name() + " " + config_name(cfg);
    const auto got_s = sched.campaign_stuck(patterns, sf, drop);
    EXPECT_EQ(ref_s.first_test, got_s.first_test) << label << " stuck";
    EXPECT_EQ(ref_s.detected, got_s.detected) << label << " stuck";
    const auto got_t = sched.campaign_transition(tests, tf, drop);
    EXPECT_EQ(ref_t.first_test, got_t.first_test) << label << " transition";
    EXPECT_EQ(ref_t.detected, got_t.detected) << label << " transition";
    const auto got_o = sched.campaign_obd(tests, of, drop);
    EXPECT_EQ(ref_o.first_test, got_o.first_test) << label << " obd";
    EXPECT_EQ(ref_o.detected, got_o.detected) << label << " obd";
  }
}

}  // namespace obd::atpg::oracle

// Randomized oracle harness for the fault-sim engine family.
//
// One reference, many implementations: the legacy scalar simulators
// (one fault, one pattern, full-circuit evaluation — slow but obviously
// correct) define the detection semantics; every scheduler configuration —
// 1/2/4 workers, over test lists whose lengths put one-worker matrices in
// blocks of 64, 128, 256 and 512 lanes (sweep_lengths) — must reproduce
// their DetectionMatrix bit for bit, and every fault-dropping campaign must
// report each fault's first detecting row of that legacy matrix and, at
// every worker count, exactly the 64-lane block work dropping implies. The
// legacy matrices share no packing or kernel code with the scheduler.
// Shared by the fault-sim and wide-vector tests; test_gate_circuit.cpp
// reuses zoo().
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "logic/zoo.hpp"

namespace obd::atpg::oracle {

/// Fanout-free-region (FFR) edge shapes in primitive CMOS gates: single-
/// fanout PIs (a, c, d) inside a region, a PO in the middle of a chain (n2),
/// a gate reading one net twice (n3 into g4), a PI feeding two regions (b),
/// and a dangling gate output (dn: no fanout, no PO).
inline logic::Circuit ffr_edges() {
  using logic::GateType;
  using logic::NetId;
  logic::Circuit c("ffr_edges");
  const NetId a = c.add_input("a"), b = c.add_input("b");
  const NetId ci = c.add_input("c"), d = c.add_input("d");
  const NetId e = c.add_input("e");
  NetId n[7];
  for (int i = 0; i < 7; ++i) n[i] = c.net("n" + std::to_string(i));
  const NetId dn = c.net("dn");
  c.add_gate(GateType::kNand2, "g0", {a, b}, n[0]);
  c.add_gate(GateType::kInv, "g1", {n[0]}, n[1]);
  c.add_gate(GateType::kNor2, "g2", {n[1], ci}, n[2]);
  c.mark_output(n[2]);
  c.add_gate(GateType::kInv, "g3", {n[2]}, n[3]);
  c.add_gate(GateType::kNand2, "g4", {n[3], n[3]}, n[4]);
  c.add_gate(GateType::kNand3, "g5", {n[4], b, d}, n[5]);
  c.add_gate(GateType::kInv, "g6", {n[5]}, dn);
  c.add_gate(GateType::kNor2, "g7", {n[5], e}, n[6]);
  c.mark_output(n[6]);
  return c;
}

/// The circuit zoo swept by the oracle: the paper's full adder, small
/// benchmarks, random primitive-gate DAGs (fuzz coverage) and FFR edge
/// shapes.
inline std::vector<logic::Circuit> zoo() {
  std::vector<logic::Circuit> out;
  out.push_back(logic::full_adder_sum_circuit());
  out.push_back(logic::c17());
  out.push_back(logic::ripple_carry_adder(4));
  out.push_back(logic::mux_tree(2));
  out.push_back(logic::decoder(3));
  out.push_back(logic::random_circuit(8, 60, 6, 0xfeed));
  out.push_back(logic::random_circuit(10, 120, 8, 0xbead));
  out.push_back(ffr_edges());
  return out;
}

/// Scheduler configurations swept against the legacy reference.
inline std::vector<SimOptions> sweep_configs() { return {{1}, {2}, {4}}; }

/// Test-list lengths that give a one-worker matrix blocks of every width
/// (FaultSimScheduler::block_lanes): a full 64-lane block, a 128-lane
/// block with a partial word, a 256-lane one, and a full 512-lane block
/// followed by a partial one.
inline std::vector<int> sweep_lengths() { return {64, 96, 200, 520}; }

inline std::string config_name(const SimOptions& o) {
  return std::to_string(o.threads) + "t";
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

/// Each fault's first detecting row of `m` (-1 = undetected): the
/// first_test a fault-dropping campaign over the same tests must report.
inline std::vector<int> first_rows(const DetectionMatrix& m) {
  std::vector<int> first(m.n_faults, -1);
  for (std::size_t f = 0; f < m.n_faults; ++f)
    for (std::size_t t = 0; t < m.n_tests && first[f] < 0; ++t)
      if (m.detects(t, f)) first[f] = static_cast<int>(t);
  return first;
}

/// fault_block_evals of a fault-dropping campaign: every fault is simulated
/// on each block up to and including the one that first detects it, and on
/// every block when none does.
inline long long serial_block_evals(const std::vector<int>& first,
                                    std::size_t n_tests, int lanes) {
  const auto n_blocks =
      static_cast<long long>((n_tests + static_cast<std::size_t>(lanes) - 1) /
                             static_cast<std::size_t>(lanes));
  long long evals = 0;
  for (int t : first) evals += t < 0 ? n_blocks : t / lanes + 1;
  return evals;
}

/// A campaign against the legacy matrix of the same tests: first_test is
/// each fault's first detecting row, detected is covered_count, and the
/// call does exactly the dropping work serial_block_evals implies over
/// 64-lane blocks at any thread count.
inline void expect_campaign_matches(const DetectionMatrix& ref,
                                    const FaultSimEngine::Campaign& got,
                                    const std::string& label) {
  const std::vector<int> first = first_rows(ref);
  EXPECT_EQ(first, got.first_test) << label;
  EXPECT_EQ(ref.covered_count, got.detected) << label;
  EXPECT_EQ(serial_block_evals(first, ref.n_tests, PatternBlock::kLanes),
            got.fault_block_evals)
      << label;
}

/// Random tests for one circuit with their stuck-at patterns (the second
/// frames), fault lists, and legacy scalar reference matrices for all three
/// fault models.
struct LegacyReference {
  std::vector<TwoVectorTest> tests;
  std::vector<InputVec> patterns;
  std::vector<StuckFault> sf;
  std::vector<TransitionFault> tf;
  std::vector<ObdFaultSite> of;
  DetectionMatrix stuck, transition, obd;

  LegacyReference(const logic::Circuit& c, int n_tests, std::uint64_t seed)
      : tests(random_pairs(static_cast<int>(c.inputs().size()), n_tests,
                           seed)),
        sf(enumerate_stuck_faults(c)),
        tf(enumerate_transition_faults(c)),
        of(enumerate_obd_faults(c)) {
    for (const auto& t : tests) patterns.push_back(t.v2);
    stuck = reference_matrix(patterns.size(), sf.size(), [&](std::size_t t) {
      return legacy::simulate_stuck_at(c, patterns[t], sf);
    });
    transition =
        reference_matrix(tests.size(), tf.size(), [&](std::size_t t) {
          return legacy::simulate_transition(c, tests[t], tf);
        });
    obd = reference_matrix(tests.size(), of.size(), [&](std::size_t t) {
      return legacy::simulate_obd(c, tests[t], of);
    });
  }
};

/// The first n rows of `m`: the matrix of the first n tests.
inline DetectionMatrix head_rows(const DetectionMatrix& m, std::size_t n) {
  return reference_matrix(n, m.n_faults, [&m](std::size_t t) {
    std::vector<bool> det(m.n_faults);
    for (std::size_t f = 0; f < m.n_faults; ++f) det[f] = m.detects(t, f);
    return det;
  });
}

/// Sweeps one circuit under all three fault models: one random test list,
/// its legacy scalar reference matrices, and bit-identity of every
/// scheduler configuration's matrix over the first n tests, for each n in
/// `lengths` (the legacy work is done once, for the longest).
inline void sweep_matrices(const logic::Circuit& c,
                           const std::vector<int>& lengths, std::uint64_t seed,
                           const std::vector<SimOptions>& configs =
                               sweep_configs()) {
  const LegacyReference ref(
      c, *std::max_element(lengths.begin(), lengths.end()), seed);
  for (const int n : lengths) {
    const auto head = [n](const auto& v) {
      return std::vector(v.begin(), v.begin() + n);
    };
    const auto tests = head(ref.tests);
    const auto patterns = head(ref.patterns);
    const auto rows = static_cast<std::size_t>(n);
    const DetectionMatrix stuck = head_rows(ref.stuck, rows);
    const DetectionMatrix transition = head_rows(ref.transition, rows);
    const DetectionMatrix obd = head_rows(ref.obd, rows);
    for (const SimOptions& cfg : configs) {
      FaultSimScheduler sched(c, cfg);
      const std::string label =
          c.name() + " " + config_name(cfg) + " " + std::to_string(n);
      expect_matrices_identical(stuck, sched.matrix_stuck(patterns, ref.sf),
                                label + " stuck");
      expect_matrices_identical(transition,
                                sched.matrix_transition(tests, ref.tf),
                                label + " transition");
      expect_matrices_identical(obd, sched.matrix_obd(tests, ref.of),
                                label + " obd");
    }
  }
}

/// Sweeps one circuit's fault-dropping campaigns: every configuration must
/// match the legacy matrices of the same tests (expect_campaign_matches).
inline void sweep_campaigns(const logic::Circuit& c, int n_tests,
                            std::uint64_t seed) {
  const LegacyReference ref(c, n_tests, seed);
  for (const SimOptions& cfg : sweep_configs()) {
    FaultSimScheduler sched(c, cfg);
    const std::string label = c.name() + " " + config_name(cfg);
    expect_campaign_matches(ref.stuck,
                            sched.campaign_stuck(ref.patterns, ref.sf),
                            label + " stuck");
    expect_campaign_matches(ref.transition,
                            sched.campaign_transition(ref.tests, ref.tf),
                            label + " transition");
    expect_campaign_matches(ref.obd, sched.campaign_obd(ref.tests, ref.of),
                            label + " obd");
  }
}

}  // namespace obd::atpg::oracle

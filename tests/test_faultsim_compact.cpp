// Fault simulators, detection matrices, compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "atpg/atpg.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

Circuit single_nand() {
  Circuit c("nand");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g", {a, b}, o);
  c.mark_output(o);
  return c;
}

TEST(FaultSimStuck, DetectsOutputFault) {
  const Circuit c = single_nand();
  const StuckFault f{c.find_net("o"), true};
  EXPECT_TRUE(simulate_stuck_at(c, 0b11, {f})[0]);   // good 0, faulty 1
  EXPECT_FALSE(simulate_stuck_at(c, 0b01, {f})[0]);  // good already 1
}

TEST(FaultSimStuck, PiFaultPropagates) {
  const Circuit c = single_nand();
  const StuckFault f{c.find_net("a"), false};
  EXPECT_TRUE(simulate_stuck_at(c, 0b11, {f})[0]);
  EXPECT_FALSE(simulate_stuck_at(c, 0b10, {f})[0]);  // a already 0
}

TEST(FaultSimObd, PaperNand2Conditions) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);  // N0 N1 P0 P1
  ASSERT_EQ(faults.size(), 4u);
  auto idx = [&](bool pmos, int input) -> std::size_t {
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (faults[i].transistor.pmos == pmos &&
          faults[i].transistor.input == input)
        return i;
    return 99;
  };
  // (01,11): both NMOS detected, no PMOS.
  auto det = simulate_obd(c, {0b01, 0b11}, faults);
  EXPECT_TRUE(det[idx(false, 0)]);
  EXPECT_TRUE(det[idx(false, 1)]);
  EXPECT_FALSE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
  // (11,10) in paper order = our v2 with A=0,B=1: detects PMOS A only.
  det = simulate_obd(c, {0b11, 0b10}, faults);
  EXPECT_FALSE(det[idx(false, 0)]);
  EXPECT_FALSE(det[idx(false, 1)]);
  EXPECT_TRUE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
  // (11,00): both PMOS conduct -> neither excited.
  det = simulate_obd(c, {0b11, 0b00}, faults);
  EXPECT_FALSE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
}

TEST(FaultSimObd, RequiresObservablePath) {
  // NAND whose output feeds a blocked AND: excitation without propagation.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto blk = c.add_input("blk");
  const auto n = c.net("n");
  const auto m = c.net("m");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g1", {a, b}, n);
  c.add_gate(GateType::kNand2, "g2", {n, blk}, m);
  c.add_gate(GateType::kInv, "g3", {m}, o);
  c.mark_output(o);
  const auto faults = enumerate_obd_faults(c);
  // Fault on g1 NMOS A, transition (01,11) with blk = 0: path blocked.
  std::size_t target = 99;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (c.gate(faults[i].gate_index).name == "g1" &&
        !faults[i].transistor.pmos && faults[i].transistor.input == 0)
      target = i;
  ASSERT_NE(target, 99u);
  EXPECT_FALSE(simulate_obd(c, {0b001, 0b011}, faults)[target]);
  EXPECT_TRUE(simulate_obd(c, {0b101, 0b111}, faults)[target]);
}

TEST(FaultSimTransition, ExcitedByOutputToggleOnly) {
  const Circuit c = single_nand();
  const auto faults = enumerate_transition_faults(c);
  ASSERT_EQ(faults.size(), 2u);  // str, stf at o
  const std::size_t str = faults[0].slow_to_rise ? 0 : 1;
  const std::size_t stf = 1 - str;
  auto det = simulate_transition(c, {0b11, 0b00}, faults);
  EXPECT_TRUE(det[str]);   // output rises
  EXPECT_FALSE(det[stf]);
  det = simulate_transition(c, {0b01, 0b11}, faults);
  EXPECT_TRUE(det[stf]);   // output falls
  EXPECT_FALSE(det[str]);
}

TEST(FaultSimObd, TransitionSimBroaderThanObdSim) {
  // On the rising pair (11,00) the transition model claims detection but
  // the OBD model (correctly) does not: both PMOS share the current.
  const Circuit c = single_nand();
  const auto tf = enumerate_transition_faults(c);
  const auto of = enumerate_obd_faults(c);
  const auto dt = simulate_transition(c, {0b11, 0b00}, tf);
  const auto doo = simulate_obd(c, {0b11, 0b00}, of);
  EXPECT_TRUE(dt[0] || dt[1]);
  for (bool d : doo) EXPECT_FALSE(d);
}

TEST(FaultSimTiming, CaptureWindowDecidesDetection) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);
  ObdFaultSite pmos_a;
  for (const auto& f : faults)
    if (f.transistor.pmos && f.transistor.input == 0) pmos_a = f;
  const TwoVectorTest test{0b11, 0b10};  // excites PMOS A
  // Nominal rise is 110 ps. With +500 ps extra delay:
  //  - capture at 300 ps sees the stale value -> detected;
  //  - capture at 2 ns has let the slow edge through -> missed.
  EXPECT_TRUE(
      simulate_obd_timing(c, test, pmos_a, 500e-12, false, 300e-12));
  EXPECT_FALSE(
      simulate_obd_timing(c, test, pmos_a, 500e-12, false, 2e-9));
}

TEST(FaultSimTiming, StuckAlwaysDetectedOnceExcited) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);
  ObdFaultSite pmos_a;
  for (const auto& f : faults)
    if (f.transistor.pmos && f.transistor.input == 0) pmos_a = f;
  EXPECT_TRUE(simulate_obd_timing(c, {0b11, 0b10}, pmos_a, 0.0, true, 10e-9));
  // Unexcited transition: no detection even with a stuck effect.
  EXPECT_FALSE(simulate_obd_timing(c, {0b11, 0b01}, pmos_a, 0.0, true, 10e-9));
}

TEST(FaultSimTiming, GrossDelayAgreesWithTimingSimAtTightCapture) {
  // With capture placed right after the nominal settle time and a huge
  // extra delay, the timing-aware detector must agree with the gross-delay
  // static detector on every (fault, pair) of the full adder's mid gate.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  std::vector<ObdFaultSite> mid;
  for (const auto& f : faults)
    if (c.gate(f.gate_index).name == logic::kFullAdderMidNand)
      mid.push_back(f);
  ASSERT_EQ(mid.size(), 4u);
  const logic::DelayLibrary lib;
  const double settle = 15 * 110e-12;  // depth 9 x max delay + margin
  for (const auto& f : mid) {
    for (const auto& t : all_ordered_pairs(3)) {
      const bool gross = simulate_obd(c, t, {f})[0];
      const bool timing =
          simulate_obd_timing(c, t, f, 1e-6, false, settle, lib);
      EXPECT_EQ(gross, timing)
          << fault_name(c, f) << " " << t.v1 << "->" << t.v2;
    }
  }
}

// --- Compaction --------------------------------------------------------------

TEST(Compact, GreedyCoversEverything) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c, true);
  const auto tests = all_ordered_pairs(3);
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  const auto picks = greedy_cover(m);
  EXPECT_TRUE(covers_all(m, picks));
  EXPECT_LT(picks.size(), tests.size());
}

TEST(Compact, ExactNoWorseThanGreedy) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c, true);
  const auto tests = all_ordered_pairs(3);
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  const auto greedy = greedy_cover(m);
  const auto exact = exact_cover(m);
  EXPECT_TRUE(covers_all(m, exact));
  EXPECT_LE(exact.size(), greedy.size());
}

/// The eager greedy loop: every round rescans every row and keeps the
/// first test with the strictly largest gain. greedy_cover must reproduce
/// its picks exactly, order included.
std::vector<std::size_t> eager_greedy_cover(const DetectionMatrix& m) {
  std::vector<std::size_t> picks;
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  std::size_t remaining = static_cast<std::size_t>(m.covered_count);
  while (remaining > 0) {
    std::size_t best = 0;
    std::size_t best_gain = 0;
    for (std::size_t t = 0; t < m.n_tests; ++t) {
      std::size_t gain = 0;
      for (std::size_t w = 0; w < covered.size(); ++w)
        gain += static_cast<std::size_t>(
            std::popcount(m.row(t)[w] & ~covered[w]));
      if (gain > best_gain) {
        best_gain = gain;
        best = t;
      }
    }
    if (best_gain == 0) break;
    picks.push_back(best);
    for (std::size_t w = 0; w < covered.size(); ++w)
      covered[w] |= m.row(best)[w];
    remaining -= best_gain;
  }
  return picks;
}

/// Sparse random rows over few faults, so many tests tie on gain; some
/// rows are empty and some faults stay uncovered.
DetectionMatrix random_matrix(std::size_t n_tests, std::size_t n_faults,
                              std::uint64_t max_bits, util::Prng& prng) {
  DetectionMatrix m;
  m.n_tests = n_tests;
  m.n_faults = n_faults;
  m.words_per_row = (n_faults + 63) / 64;
  m.rows.assign(n_tests * m.words_per_row, 0);
  m.covered.assign(n_faults, false);
  for (std::size_t t = 0; t < n_tests; ++t) {
    const std::uint64_t bits = prng.next_below(max_bits + 1);
    for (std::uint64_t k = 0; k < bits; ++k) {
      const std::size_t f = prng.next_below(n_faults);
      m.rows[t * m.words_per_row + (f >> 6)] |= 1ull << (f & 63);
      m.covered[f] = true;
    }
  }
  m.covered_count = static_cast<int>(
      std::count(m.covered.begin(), m.covered.end(), true));
  return m;
}

TEST(Compact, LazyGreedyPicksEqualEagerOnTiedRandomMatrices) {
  util::Prng prng(0x1a2c0fe5ull);
  int trials = 0;
  for (const std::size_t n_faults : {1u, 7u, 63u, 64u, 65u, 200u}) {
    for (const std::size_t n_tests : {1u, 5u, 40u, 300u}) {
      for (const std::uint64_t max_bits : {1u, 3u, 12u}) {
        const DetectionMatrix m =
            random_matrix(n_tests, n_faults, max_bits, prng);
        const auto lazy = greedy_cover(m);
        EXPECT_EQ(lazy, eager_greedy_cover(m))
            << n_tests << "x" << n_faults << " max_bits " << max_bits;
        EXPECT_TRUE(covers_all(m, lazy));
        ++trials;
      }
    }
  }
  EXPECT_EQ(trials, 72);
}

TEST(Compact, LazyGreedyPicksEqualEagerOnCorpusMatrix) {
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c880.bench");
  ASSERT_TRUE(p.ok) << p.error;
  const Circuit c = logic::decompose_composites(p.seq.core());
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 256, 0xc880ull);
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  ASSERT_GT(m.covered_count, 0);
  const auto lazy = greedy_cover(m);
  EXPECT_EQ(lazy, eager_greedy_cover(m));
  EXPECT_TRUE(covers_all(m, lazy));
  // exact_cover seeds from greedy_cover and may only improve on it.
  const auto exact = exact_cover(m, 20'000);
  EXPECT_TRUE(covers_all(m, exact));
  EXPECT_LE(exact.size(), lazy.size());
}

TEST(Compact, ExactCoverFindsOptimumWithinBudget) {
  // The counting bound (open faults over the widest row) prunes every
  // branch that can at best tie the incumbent, so a small node budget
  // already reaches the unbounded search's optimum on these instances.
  util::Prng prng(0xe8ac7);
  for (int trial = 0; trial < 20; ++trial) {
    const DetectionMatrix m = random_matrix(24, 30, 12, prng);
    const auto optimum = exact_cover(m, SIZE_MAX);
    const auto budgeted = exact_cover(m, 2000);
    EXPECT_TRUE(covers_all(m, budgeted)) << "trial " << trial;
    EXPECT_EQ(budgeted.size(), optimum.size()) << "trial " << trial;
  }
}

TEST(Compact, EmptyMatrix) {
  DetectionMatrix m;
  EXPECT_TRUE(greedy_cover(m).empty());
  EXPECT_TRUE(exact_cover(m).empty());
  EXPECT_TRUE(covers_all(m, {}));
}

TEST(Patterns, AllOrderedPairsCount) {
  EXPECT_EQ(all_ordered_pairs(3).size(), 56u);        // 8*8 - 8
  EXPECT_EQ(all_ordered_pairs(3, true).size(), 64u);  // 8*8
  EXPECT_EQ(all_ordered_pairs(2).size(), 12u);
}

TEST(Patterns, RandomPairsDeterministic) {
  const auto a = random_pairs(5, 10, 42);
  const auto b = random_pairs(5, 10, 42);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_LT(a[i].v1, 32u);
  }
}

TEST(Patterns, ConsecutivePairs) {
  const auto p = consecutive_pairs({1, 2, 3});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], (TwoVectorTest{1, 2}));
  EXPECT_EQ(p[1], (TwoVectorTest{2, 3}));
}

TEST(EvalWords, MatchesScalarEval) {
  const Circuit c = logic::c17();
  // Pack the 32 input vectors into one word per PI.
  std::vector<std::uint64_t> pi(c.inputs().size(), 0);
  for (std::uint64_t v = 0; v < 32; ++v)
    for (std::size_t i = 0; i < pi.size(); ++i)
      if ((v >> i) & 1u) pi[i] |= (1ull << v);
  const auto words = c.eval_words(pi);
  for (std::uint64_t v = 0; v < 32; ++v) {
    const std::uint64_t expect = c.eval_outputs(v).u64();
    for (std::size_t o = 0; o < c.outputs().size(); ++o) {
      const bool bit =
          (words[static_cast<std::size_t>(c.outputs()[o])] >> v) & 1u;
      EXPECT_EQ(bit, ((expect >> o) & 1u) != 0) << v << " " << o;
    }
  }
}

}  // namespace
}  // namespace obd::atpg

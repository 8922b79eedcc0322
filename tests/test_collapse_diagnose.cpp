// Fault collapsing and dictionary diagnosis.
#include <gtest/gtest.h>

#include "atpg/collapse.hpp"
#include "atpg/diagnose.hpp"
#include "atpg/twoframe.hpp"
#include "logic/zoo.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

Circuit single_gate(GateType t) {
  Circuit c("g");
  std::vector<logic::NetId> ins;
  for (int i = 0; i < logic::gate_arity(t); ++i)
    ins.push_back(c.add_input("i" + std::to_string(i)));
  const auto o = c.net("o");
  c.add_gate(t, "g", ins, o);
  c.mark_output(o);
  return c;
}

TEST(Collapse, NandNmosPairCollapses) {
  const Circuit c = single_gate(GateType::kNand2);
  const auto faults = enumerate_obd_faults(c);  // N0 N1 P0 P1
  const CollapsedFaults cf = collapse_obd_faults(c, faults);
  // N0 == N1 (identical excitation sets), P0 and P1 distinct: 3 classes.
  EXPECT_EQ(cf.original_count, 4u);
  EXPECT_EQ(cf.representatives.size(), 3u);
  // The two NMOS faults share a class.
  std::size_t n0 = 99, n1 = 99;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!faults[i].transistor.pmos && faults[i].transistor.input == 0) n0 = i;
    if (!faults[i].transistor.pmos && faults[i].transistor.input == 1) n1 = i;
  }
  EXPECT_EQ(cf.class_of[n0], cf.class_of[n1]);
}

TEST(Collapse, Nand4NmosQuadCollapses) {
  const Circuit c = single_gate(GateType::kNand4);
  const auto faults = enumerate_obd_faults(c);  // 8 faults
  const CollapsedFaults cf = collapse_obd_faults(c, faults);
  EXPECT_EQ(cf.representatives.size(), 5u);  // 1 NMOS class + 4 PMOS
  EXPECT_NEAR(cf.reduction(), 3.0 / 8.0, 1e-12);
}

TEST(Collapse, GateEquivalenceMatchesDefinition) {
  const Circuit c = single_gate(GateType::kNand2);
  const auto faults = enumerate_obd_faults(c);
  for (const auto& a : faults)
    for (const auto& b : faults) {
      if (a.gate_index != b.gate_index) continue;
      const bool same_pol = a.transistor.pmos == b.transistor.pmos;
      const bool expected =
          (a.transistor == b.transistor) ||
          (same_pol && !a.transistor.pmos);  // NMOS pair equivalent
      EXPECT_EQ(gate_equivalent(c, a, b), expected);
    }
}

TEST(Collapse, EquivalentFaultsDetectedByExactlySameTests) {
  // The semantic guarantee behind collapsing, checked exhaustively.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  const CollapsedFaults cf = collapse_obd_faults(c, faults);
  const auto pairs = all_ordered_pairs(3);
  for (const auto& t : pairs) {
    const auto det = simulate_obd(c, t, faults);
    for (std::size_t i = 0; i < faults.size(); ++i)
      for (std::size_t j = i + 1; j < faults.size(); ++j)
        if (cf.class_of[i] == cf.class_of[j])
          EXPECT_EQ(det[i], det[j])
              << fault_name(c, faults[i]) << " vs "
              << fault_name(c, faults[j]);
  }
}

TEST(Collapse, AtpgOnRepresentativesCoversAll) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  const CollapsedFaults cf = collapse_obd_faults(c, faults);
  EXPECT_LT(cf.representatives.size(), faults.size());
  const AtpgRun run = run_obd_atpg(c, cf.representatives);
  // Tests for representatives must cover every testable original fault.
  const AtpgRun full = run_obd_atpg(c, faults);
  const double cov = obd_coverage(c, run.tests, faults);
  EXPECT_NEAR(cov, static_cast<double>(full.found) /
                       static_cast<double>(faults.size()),
              1e-12);
}

// --- Diagnosis ----------------------------------------------------------------

TEST(Diagnose, SingleNandPerfectPmosResolution) {
  const Circuit c = single_gate(GateType::kNand2);
  const auto faults = enumerate_obd_faults(c);
  const ObdDictionary dict(c, all_ordered_pairs(2), faults);
  // P0 and P1 have disjoint syndromes; N0/N1 share one. 3 distinct
  // syndromes over 4 detectable faults.
  EXPECT_NEAR(dict.resolution(), 3.0 / 4.0, 1e-12);
}

TEST(Diagnose, ExactCandidatesRoundTrip) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  const ObdDictionary dict(c, all_ordered_pairs(5), faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const auto cands = dict.exact_candidates(dict.syndrome(f));
    // The fault itself must be among its own syndrome's candidates.
    EXPECT_NE(std::find(cands.begin(), cands.end(), f), cands.end());
    // And every candidate shares the syndrome.
    for (std::size_t cand : cands)
      EXPECT_EQ(dict.syndrome(cand), dict.syndrome(f));
  }
}

TEST(Diagnose, ObdDictionarySharperThanGateLevelAmbiguity) {
  // Input-specific excitation gives sub-gate resolution: the mean candidate
  // set must be smaller than "all faults of the same gate" (4 for NAND2).
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  const ObdDictionary dict(c, all_ordered_pairs(5), faults);
  EXPECT_LT(dict.mean_ambiguity(), 4.0);
  EXPECT_GE(dict.mean_ambiguity(), 1.0);
}

TEST(Diagnose, MoreTestsNeverHurtResolution) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  const auto all = all_ordered_pairs(3);
  const std::vector<TwoVectorTest> few(all.begin(), all.begin() + 10);
  const ObdDictionary small(c, few, faults);
  const ObdDictionary big(c, all, faults);
  EXPECT_GE(big.resolution() + 1e-12, small.resolution());
}

TEST(Diagnose, PruneUntestableDropsByIndex) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  ASSERT_GE(faults.size(), 4u);
  const auto kept = prune_untestable(
      faults, {1, 3, static_cast<std::uint32_t>(faults.size() + 7)});
  ASSERT_EQ(kept.size(), faults.size() - 2);  // out-of-range index ignored
  EXPECT_EQ(kept[0].gate_index, faults[0].gate_index);
  EXPECT_EQ(kept[1].gate_index, faults[2].gate_index);
  for (std::size_t i = 2; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].gate_index, faults[i + 2].gate_index);
}

}  // namespace
}  // namespace obd::atpg

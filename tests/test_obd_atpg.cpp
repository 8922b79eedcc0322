// OBD two-frame ATPG: cross-validated against the independent gross-delay
// fault simulator and exhaustive pair enumeration (Sec. 4.3 statistics).
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "atpg/goals.hpp"
#include "core/excitation.hpp"
#include "logic/gate.hpp"
#include "logic/zoo.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

/// Ground truth by exhaustive two-vector enumeration.
bool exhaustively_testable_obd(const Circuit& c, const ObdFaultSite& f) {
  for (const auto& t : all_ordered_pairs(static_cast<int>(c.inputs().size()))) {
    const auto det = simulate_obd(c, t, {f});
    if (det[0]) return true;
  }
  return false;
}

using Pins = std::vector<std::pair<NetId, bool>>;

/// The pins `goal_frame` sets, as (net, value) pairs in order.
Pins pins(const FrameGoal& goal_frame) {
  Pins out;
  for (const NetConstraint& k : goal_frame.constraints)
    out.emplace_back(k.net, k.value);
  return out;
}

bool bit(std::uint32_t v, int k) { return ((v >> k) & 1u) != 0; }

TEST(Goals, NandObdGoalsAreThePapersConditions) {
  // Sec. 4: one goal per exciting transition (v1 -> v2) of the transistor,
  // in obd_excitations order. Frame 2 pins the gate inputs to v2 with the
  // output held at its old value NAND(v1); frame 1 justifies v1.
  Circuit c("nand2");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId y = c.net("y");
  const int g = c.add_gate(logic::GateType::kNand2, "g", {a, b}, y);
  c.mark_output(y);
  const cells::CellTopology nand = cells::nand_topology(2);
  for (const bool pmos : {false, true}) {
    for (const int input : {0, 1}) {
      const cells::TransistorRef t{pmos, input};
      const auto excitations = core::obd_excitations(nand, t);
      const auto goals = goals_of(c, ObdFaultSite{g, t});
      ASSERT_EQ(goals.size(), excitations.size()) << pmos << input;
      ASSERT_FALSE(goals.empty());
      for (std::size_t i = 0; i < goals.size(); ++i) {
        const cells::TwoVector& tv = excitations[i];
        const TwoFrameGoal& goal = goals[i];
        EXPECT_EQ(pins(goal.fault_frame),
                  (Pins{{a, bit(tv.v2, 0)}, {b, bit(tv.v2, 1)}}));
        ASSERT_TRUE(goal.fault_frame.fault.has_value());
        EXPECT_EQ(goal.fault_frame.fault->net, y);
        EXPECT_EQ(goal.fault_frame.fault->value,
                  !(bit(tv.v1, 0) && bit(tv.v1, 1)));
        ASSERT_TRUE(goal.justify_frame.has_value());
        EXPECT_FALSE(goal.justify_frame->fault.has_value());
        EXPECT_EQ(pins(*goal.justify_frame),
                  (Pins{{a, bit(tv.v1, 0)}, {b, bit(tv.v1, 1)}}));
      }
    }
  }

  // A gate without a cell topology carries no OBD site.
  Circuit and2("and2");
  const NetId p = and2.add_input("p");
  const NetId q = and2.add_input("q");
  const NetId z = and2.net("z");
  const int ga = and2.add_gate(logic::GateType::kAnd2, "ga", {p, q}, z);
  and2.mark_output(z);
  ASSERT_FALSE(logic::gate_topology(logic::GateType::kAnd2).has_value());
  EXPECT_TRUE(goals_of(and2, ObdFaultSite{ga, {false, 0}}).empty());
}

TEST(Goals, TransitionAndStuckGoals) {
  const Circuit c = logic::c17();
  const NetId n = c.gate(0).output;
  for (const bool rise : {false, true}) {
    const auto goals = goals_of(c, TransitionFault{n, rise});
    ASSERT_EQ(goals.size(), 1u);
    EXPECT_EQ(pins(goals[0].fault_frame), (Pins{{n, rise}}));
    ASSERT_TRUE(goals[0].fault_frame.fault.has_value());
    EXPECT_EQ(*goals[0].fault_frame.fault, (StuckFault{n, !rise}));
    ASSERT_TRUE(goals[0].justify_frame.has_value());
    EXPECT_EQ(pins(*goals[0].justify_frame), (Pins{{n, !rise}}));
  }
  const StuckFault sa{n, true};
  const auto goals = goals_of(c, sa);
  ASSERT_EQ(goals.size(), 1u);
  EXPECT_TRUE(goals[0].fault_frame.constraints.empty());
  EXPECT_EQ(goals[0].fault_frame.fault, sa);
  EXPECT_FALSE(goals[0].justify_frame.has_value());
}

TEST(ObdAtpg, GeneratedTestsRedetectUnderFaultSim) {
  const Circuit c = logic::full_adder_sum_circuit();
  for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
    const TwoFrameResult r = generate_obd_test(c, f);
    if (r.status != PodemStatus::kFound) continue;
    const auto det = simulate_obd(c, r.test, {f});
    EXPECT_TRUE(det[0]) << fault_name(c, f);
  }
}

TEST(ObdAtpg, AgreesWithExhaustiveOnFullAdder) {
  const Circuit c = logic::full_adder_sum_circuit();
  for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
    const TwoFrameResult r = generate_obd_test(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << fault_name(c, f);
    EXPECT_EQ(r.status == PodemStatus::kFound,
              exhaustively_testable_obd(c, f))
        << fault_name(c, f);
  }
}

TEST(ObdAtpg, AgreesWithExhaustiveOnC17) {
  const Circuit c = logic::c17();
  for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
    const TwoFrameResult r = generate_obd_test(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted);
    EXPECT_EQ(r.status == PodemStatus::kFound,
              exhaustively_testable_obd(c, f))
        << fault_name(c, f);
  }
}

TEST(ObdAtpg, AgreesWithExhaustiveOnRandomCircuits) {
  for (std::uint64_t seed : {7ull, 17ull, 27ull}) {
    const Circuit c = logic::random_circuit(5, 20, 3, seed);
    for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
      const TwoFrameResult r = generate_obd_test(c, f);
      ASSERT_NE(r.status, PodemStatus::kAborted);
      EXPECT_EQ(r.status == PodemStatus::kFound,
                exhaustively_testable_obd(c, f))
          << "seed " << seed << " " << fault_name(c, f);
    }
  }
}

TEST(ObdAtpg, FullAdderHasUntestableFaultsFromRedundancy) {
  // Sec. 4.3: some of the 56 NAND OBD faults are untestable because of the
  // intentional redundancy.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c, /*nand_only=*/true);
  EXPECT_EQ(faults.size(), 56u);
  const AtpgRun run = run_obd_atpg(c, faults);
  EXPECT_EQ(run.aborted, 0);
  EXPECT_GT(run.untestable, 0);
  EXPECT_GT(run.found, run.untestable);  // most faults are testable
  EXPECT_EQ(run.found + run.untestable, 56);
}

TEST(ObdAtpg, RedundantBranchFaultsUntestable) {
  // Faults in the constant-value branch (q1/q3 gates) cannot be observed.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& g = c.gate(faults[i].gate_index);
    if (g.name != "q1" && g.name != "q3") continue;
    const TwoFrameResult r = generate_obd_test(c, faults[i]);
    EXPECT_EQ(r.status, PodemStatus::kUntestable)
        << fault_name(c, faults[i]);
  }
}

TEST(TransitionAtpg, GeneratedTestsRedetect) {
  const Circuit c = logic::c17();
  for (const TransitionFault& f : enumerate_transition_faults(c)) {
    const TwoFrameResult r = generate_transition_test(c, f);
    if (r.status != PodemStatus::kFound) continue;
    const auto det = simulate_transition(c, r.test, {f});
    EXPECT_TRUE(det[0]) << fault_name(c, f);
  }
}

TEST(TransitionAtpg, CompleteSetMissesObdFaults) {
  // The paper's central testing claim: pattern sets complete for the
  // *classical* models do not cover all OBD defects. A transition-fault
  // test set leaves PMOS OBD faults unexercised whenever its rising tests
  // switch several inputs at once.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto tf = enumerate_transition_faults(c);
  const AtpgRun trun = run_transition_atpg(c, tf);
  ASSERT_GT(trun.found, 0);

  const auto obd_faults = enumerate_obd_faults(c);
  // OBD faults actually coverable (per OBD ATPG).
  const AtpgRun orun = run_obd_atpg(c, obd_faults);
  const double obd_possible =
      static_cast<double>(orun.found) / static_cast<double>(obd_faults.size());
  const double got = obd_coverage(c, trun.tests, obd_faults);
  EXPECT_LT(got, obd_possible);
}

TEST(StuckAtAtpg, CompleteSetMissesObdFaults) {
  // Static stuck-at patterns (applied back to back) miss dynamic OBD
  // behaviour almost by construction.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto sf = enumerate_stuck_faults(c);
  const AtpgRun srun = run_stuck_at_atpg(c, sf);
  ASSERT_GT(srun.found, 0);
  std::vector<InputVec> flat;
  for (const auto& t : srun.tests) flat.push_back(t.v2);
  const auto pairs = consecutive_pairs(flat);

  const auto obd_faults = enumerate_obd_faults(c);
  const AtpgRun orun = run_obd_atpg(c, obd_faults);
  const double obd_possible =
      static_cast<double>(orun.found) / static_cast<double>(obd_faults.size());
  EXPECT_LT(obd_coverage(c, pairs, obd_faults), obd_possible);
}

TEST(ObdAtpg, ObdTestSetAchievesFullPossibleCoverage) {
  // Self-consistency: the ATPG's own tests cover every testable fault.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  const AtpgRun run = run_obd_atpg(c, faults);
  const DetectionMatrix m = build_obd_matrix(c, run.tests, faults);
  EXPECT_EQ(m.covered_count, run.found);
}

TEST(ObdAtpg, MidNandFaultsAllTestable) {
  // The paper's Fig. 9 site: all four OBD faults in the mid NAND (o12) are
  // testable and propagate through four downstream stages.
  const Circuit c = logic::full_adder_sum_circuit();
  for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
    if (c.gate(f.gate_index).name != logic::kFullAdderMidNand) continue;
    const TwoFrameResult r = generate_obd_test(c, f);
    EXPECT_EQ(r.status, PodemStatus::kFound) << fault_name(c, f);
  }
}

TEST(ObdAtpg, ComplexGateCircuit) {
  // AOI gates exercise the non-trivial essential-transistor logic.
  Circuit c("aoi");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto d = c.add_input("d");
  const auto n = c.net("n");
  const auto o = c.net("o");
  c.add_gate(logic::GateType::kAoi21, "g1", {a, b, d}, n);
  c.add_gate(logic::GateType::kInv, "g2", {n}, o);
  c.mark_output(o);
  for (const ObdFaultSite& f : enumerate_obd_faults(c)) {
    const TwoFrameResult r = generate_obd_test(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted);
    EXPECT_EQ(r.status == PodemStatus::kFound,
              exhaustively_testable_obd(c, f))
        << fault_name(c, f);
  }
}

}  // namespace
}  // namespace obd::atpg

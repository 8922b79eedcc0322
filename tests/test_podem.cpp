// PODEM correctness: validated against exhaustive search on small circuits.
#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "atpg/faultsim.hpp"
#include "logic/zoo.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

/// Exhaustive ground truth: is there any vector detecting the stuck fault?
bool exhaustively_testable(const Circuit& c, const StuckFault& f) {
  const std::uint64_t limit = 1ull << c.inputs().size();
  for (std::uint64_t v = 0; v < limit; ++v) {
    const auto det = simulate_stuck_at(c, v, {f});
    if (det[0]) return true;
  }
  return false;
}

TEST(Podem, DetectsSimpleFault) {
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g", {a, b}, o);
  c.mark_output(o);
  const PodemResult r = podem_stuck_at(c, {o, true});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  // Only (1,1) drives o to 0, exposing stuck-at-1.
  EXPECT_EQ(r.vector.bits & 0b11, 0b11u);
}

TEST(Podem, GeneratedTestActuallyDetects) {
  const Circuit c = logic::c17();
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    if (r.status != PodemStatus::kFound) continue;
    const auto det = simulate_stuck_at(c, r.vector.bits, {f});
    EXPECT_TRUE(det[0]) << fault_name(c, f);
  }
}

TEST(Podem, AgreesWithExhaustiveOnC17) {
  const Circuit c = logic::c17();
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << fault_name(c, f);
    EXPECT_EQ(r.status == PodemStatus::kFound, exhaustively_testable(c, f))
        << fault_name(c, f);
  }
}

TEST(Podem, AgreesWithExhaustiveOnFullAdder) {
  const Circuit c = logic::full_adder_sum_circuit();
  int untestable = 0;
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << fault_name(c, f);
    const bool truth = exhaustively_testable(c, f);
    EXPECT_EQ(r.status == PodemStatus::kFound, truth) << fault_name(c, f);
    if (!truth) ++untestable;
  }
  // The redundant branch makes several stuck faults untestable.
  EXPECT_GT(untestable, 0);
}

TEST(Podem, AgreesWithExhaustiveOnRandomCircuits) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const Circuit c = logic::random_circuit(5, 25, 3, seed);
    for (const StuckFault& f : enumerate_stuck_faults(c)) {
      const PodemResult r = podem_stuck_at(c, f);
      ASSERT_NE(r.status, PodemStatus::kAborted);
      EXPECT_EQ(r.status == PodemStatus::kFound,
                exhaustively_testable(c, f))
          << "seed " << seed << " " << fault_name(c, f);
    }
  }
}

TEST(Podem, RedundantNetUntestable) {
  // q1 in the full adder is constant 1: stuck-at-1 there is untestable.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");
  ASSERT_NE(q1, logic::kNoNet);
  EXPECT_EQ(podem_stuck_at(c, {q1, true}).status, PodemStatus::kUntestable);
}

TEST(PodemJustify, SatisfiesConstraints) {
  const Circuit c = logic::full_adder_sum_circuit();
  // Ask for w1 = 0 (i.e. minterm A'B'C true): forces A=0, B=0, C=1.
  const auto w1 = c.find_net("w1");
  const PodemResult r = podem_justify(c, {{w1, false}});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  const auto values = c.eval(r.vector.bits);
  EXPECT_FALSE(values[static_cast<std::size_t>(w1)]);
  EXPECT_EQ(r.vector.bits & 0b111, 0b100u);  // A=0 B=0 C=1
}

TEST(PodemJustify, MultipleSimultaneousConstraints) {
  const Circuit c = logic::c17();
  const auto n10 = c.find_net("10");
  const auto n19 = c.find_net("19");
  const PodemResult r = podem_justify(c, {{n10, false}, {n19, false}});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  const auto values = c.eval(r.vector.bits);
  EXPECT_FALSE(values[static_cast<std::size_t>(n10)]);
  EXPECT_FALSE(values[static_cast<std::size_t>(n19)]);
}

TEST(PodemJustify, ImpossibleConstraintUntestable) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");  // constant 1
  EXPECT_EQ(podem_justify(c, {{q1, false}}).status, PodemStatus::kUntestable);
}

TEST(PodemJustify, ContradictoryPairUntestable) {
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto o = c.net("o");
  c.add_gate(GateType::kInv, "g", {a}, o);
  c.mark_output(o);
  EXPECT_EQ(podem_justify(c, {{a, true}, {o, true}}).status,
            PodemStatus::kUntestable);
}

TEST(PodemConstrainedFault, RespectsPins) {
  // NAND feeding an inverter; pin the NAND inputs to (1,1) while its output
  // is stuck at 1 in the faulty circuit: D' must reach the PO.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto n = c.net("n");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g1", {a, b}, n);
  c.add_gate(GateType::kInv, "g2", {n}, o);
  c.mark_output(o);
  const PodemResult r =
      podem_constrained_fault(c, {{a, true}, {b, true}}, n, true);
  ASSERT_EQ(r.status, PodemStatus::kFound);
  EXPECT_EQ(r.vector.bits & 0b11, 0b11u);
}

TEST(PodemConstrainedFault, InfeasiblePinCombination) {
  // Pinning an inverter's input and output to the same value is absurd.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto n = c.net("n");
  const auto o = c.net("o");
  c.add_gate(GateType::kInv, "g1", {a}, n);
  c.add_gate(GateType::kInv, "g2", {n}, o);
  c.mark_output(o);
  const PodemResult r =
      podem_constrained_fault(c, {{a, true}, {n, true}}, n, false);
  EXPECT_EQ(r.status, PodemStatus::kUntestable);
}

TEST(Podem, BacktrackBudgetAborts) {
  // Proving a redundant fault untestable requires exhausting the decision
  // tree, which cannot happen without backtracking; a zero budget must
  // abort instead of mislabeling the fault untestable.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");  // constant-1 net
  PodemOptions opt;
  opt.max_backtracks = 0;
  EXPECT_EQ(podem_stuck_at(c, {q1, true}, opt).status, PodemStatus::kAborted);
}

/// `n` inverters in series from PI "a" to one PO: logic depth n.
Circuit inverter_chain(int n) {
  Circuit c("chain");
  logic::NetId prev = c.add_input("a");
  for (int i = 0; i < n; ++i) {
    const logic::NetId next = c.net("n" + std::to_string(i));
    c.add_gate(GateType::kInv, "inv" + std::to_string(i), {prev}, next);
    prev = next;
  }
  c.mark_output(prev);
  return c;
}

TEST(Podem, DeepChainsAreNotFalselyUntestable) {
  // Backtrace walks one driver per step from the objective to a PI. A
  // step cap below the circuit depth turned these objectives into
  // conflicts and reported the faults untestable.
  for (const int depth : {10500, 12000}) {
    const Circuit c = inverter_chain(depth);
    ASSERT_EQ(c.depth(), depth);
    const logic::NetId po = c.outputs()[0];
    const bool a_for_po1 = depth % 2 == 0;

    const StuckFault sa0{po, false};
    const PodemResult r = podem_stuck_at(c, sa0);
    ASSERT_EQ(r.status, PodemStatus::kFound) << depth;
    EXPECT_EQ(r.vector.bits.bit(0), a_for_po1) << depth;
    EXPECT_TRUE(simulate_stuck_at(c, r.vector.bits, {sa0})[0]) << depth;

    const PodemResult j = podem_justify(c, {{po, true}});
    ASSERT_EQ(j.status, PodemStatus::kFound) << depth;
    EXPECT_TRUE(c.eval(j.vector.bits)[static_cast<std::size_t>(po)]) << depth;
  }
}

TEST(Podem, FullCoverageOnIrredundantCircuit) {
  // The parity tree has no redundancy: every stuck fault is testable.
  const Circuit c = logic::parity_tree(4);
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    EXPECT_EQ(podem_stuck_at(c, f).status, PodemStatus::kFound)
        << fault_name(c, f);
  }
}

}  // namespace
}  // namespace obd::atpg

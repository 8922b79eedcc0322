// Bit-parallel fault-sim engine vs the legacy scalar reference: randomized
// equivalence over zoo circuits, fault dropping, packed detection matrices,
// the frontier counters of one block, and the 3-valued block evaluator.
// The engine is a per-block kernel, so set-level checks run through a
// one-thread FaultSimScheduler; the cross-width / cross-thread sweeps live
// in the shared oracle harness (oracle_common.hpp).
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "logic/zoo.hpp"
#include "oracle_common.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

std::vector<Circuit> zoo_circuits() { return oracle::zoo(); }

TEST(FaultSimOracle, EnginePackingsMatchLegacyScalar) {
  // One thread only (the threaded sweep is owned by test_faultsim_scheduler,
  // so the zoo-wide matrix build runs once per engine concern rather than
  // twice in full), over test-list lengths that put the one-worker matrix
  // in blocks of every LaneBlock width.
  std::uint64_t seed = 0x0bd0007;
  for (const Circuit& c : zoo_circuits())
    oracle::sweep_matrices(c, oracle::sweep_lengths(), seed++, {{1}});
}

std::vector<TwoVectorTest> random_tests(const Circuit& c, int count,
                                        std::uint64_t seed) {
  // 150 tests -> blocks of 64, 64, 22: exercises full and partial blocks.
  return random_pairs(static_cast<int>(c.inputs().size()), count, seed);
}

TEST(FaultSimEngine, StuckEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_stuck_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed0);
    std::vector<InputVec> patterns;
    for (const auto& t : tests) patterns.push_back(t.v2);
    const DetectionMatrix m =
        FaultSimScheduler(c).matrix_stuck(patterns, faults);
    for (std::size_t t = 0; t < patterns.size(); ++t) {
      const auto ref = legacy::simulate_stuck_at(c, patterns[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, TransitionEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_transition_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed1);
    const DetectionMatrix m =
        FaultSimScheduler(c).matrix_transition(tests, faults);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const auto ref = legacy::simulate_transition(c, tests[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, ObdEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_obd_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed2);
    const DetectionMatrix m = build_obd_matrix(c, tests, faults);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const auto ref = legacy::simulate_obd(c, tests[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, ScalarWrappersMatchLegacy) {
  const Circuit c = logic::random_circuit(7, 40, 5, 0xabc);
  const auto of = enumerate_obd_faults(c);
  const auto sf = enumerate_stuck_faults(c);
  for (const auto& t : random_tests(c, 40, 0x5eed3)) {
    EXPECT_EQ(simulate_obd(c, t, of), legacy::simulate_obd(c, t, of));
    EXPECT_EQ(simulate_stuck_at(c, t.v2, sf),
              legacy::simulate_stuck_at(c, t.v2, sf));
  }
}

TEST(FaultSimEngine, FaultDroppingPreservesDetection) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_obd_faults(c);
    const auto tests = random_tests(c, 200, 0x5eed4);
    const auto dropped = FaultSimScheduler(c).campaign_obd(tests, faults);
    // Dropping must not change what is detected or by which first test:
    // the undropped answer is the matrix.
    const DetectionMatrix m = build_obd_matrix(c, tests, faults);
    EXPECT_EQ(dropped.detected, m.covered_count) << c.name();
    EXPECT_EQ(dropped.first_test, oracle::first_rows(m)) << c.name();
    // It must do no more work than simulating every fault on every block
    // (and with any detection, strictly less).
    const long long blocks = (static_cast<long long>(tests.size()) + 63) / 64;
    const long long full = static_cast<long long>(faults.size()) * blocks;
    EXPECT_LE(dropped.fault_block_evals, full) << c.name();
    if (dropped.detected > 0 && tests.size() > PatternBlock::kLanes) {
      EXPECT_LT(dropped.fault_block_evals, full) << c.name();
    }
  }
}

TEST(FaultSimEngine, CampaignFirstTestMatchesMatrix) {
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_transition_faults(c);
  const auto tests = random_tests(c, 130, 0x5eed5);
  FaultSimScheduler sched(c);
  const auto campaign = sched.campaign_transition(tests, faults);
  const DetectionMatrix m = sched.matrix_transition(tests, faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    int first = -1;
    for (std::size_t t = 0; t < tests.size() && first < 0; ++t)
      if (m.detects(t, f)) first = static_cast<int>(t);
    EXPECT_EQ(campaign.first_test[f], first) << "fault " << f;
  }
}

TEST(FaultSimEngine, OneEngineRunsEveryBlockWidth) {
  // The width travels with each block: one engine simulates blocks of 8,
  // 1, 4 and 2 words in turn (its faulty-value scratch grows to the widest
  // and keeps its size), and each block's detections match the legacy
  // simulator lane by lane.
  const Circuit c = logic::random_circuit(10, 120, 8, 0xbead);
  const auto faults = enumerate_obd_faults(c);
  const auto tests = random_tests(c, 300, 0x5eed9);
  std::vector<std::vector<bool>> ref;
  for (const auto& t : tests) ref.push_back(legacy::simulate_obd(c, t, faults));
  FaultSimEngine engine(c);
  std::vector<std::uint64_t> detect;
  for (const int words : {8, 1, 4, 2}) {
    std::size_t first = 0;
    const auto W = static_cast<std::size_t>(words);
    for (const PatternBlock& b : PatternBlock::pack(c, tests, words)) {
      engine.block_obd(b, faults, detect);
      ASSERT_EQ(detect.size(), faults.size() * W);
      for (int lane = 0; lane < b.size(); ++lane) {
        const std::size_t t = first + static_cast<std::size_t>(lane);
        for (std::size_t f = 0; f < faults.size(); ++f) {
          const std::uint64_t word =
              detect[f * W + static_cast<std::size_t>(lane >> 6)];
          ASSERT_EQ(((word >> (lane & 63)) & 1u) != 0, ref[t][f])
              << words << " words, test " << t << " fault " << f;
        }
      }
      first += static_cast<std::size_t>(b.size());
    }
    EXPECT_EQ(first, tests.size());
  }
}

TEST(PatternBlockTest, WideBlocksStrideLanesAcrossWords) {
  // 4-word blocks carry 256 tests; lane L of PI i lives at bit (L & 63) of
  // word (i * lane_words + (L >> 6)) — word-major, so word 0 is bit-for-bit
  // the classic 64-lane block.
  const Circuit c = logic::c17();
  const auto tests = random_tests(c, 300, 0x5eed8);
  const auto blocks = PatternBlock::pack(c, tests, 4);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].capacity(), 256);
  EXPECT_EQ(blocks[0].size(), 256);
  EXPECT_EQ(blocks[1].size(), 44);
  EXPECT_EQ(blocks[1].lane_mask(0), (1ull << 44) - 1);
  EXPECT_EQ(blocks[1].lane_mask(1), 0u);
  EXPECT_EQ(blocks[0].lane_mask(3), ~0ull);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const PatternBlock& b = blocks[t / 256];
    const int lane = static_cast<int>(t % 256);
    const std::size_t word = static_cast<std::size_t>(lane) >> 6;
    const int bit = lane & 63;
    for (std::size_t i = 0; i < c.inputs().size(); ++i) {
      EXPECT_EQ((b.pi1()[i * 4 + word] >> bit) & 1u, (tests[t].v1 >> i) & 1u);
      EXPECT_EQ((b.pi2()[i * 4 + word] >> bit) & 1u, (tests[t].v2 >> i) & 1u);
    }
  }
}

TEST(FrontierPropagation, ExitsEarlyWhenTheFrontierDies) {
  // x stuck-at-1 under x=y=0: the fault flips x but AND(1, 0) still
  // evaluates to 0 at both of x's readers, so the frontier dies at the AND
  // gates and the inverter chain behind them is never evaluated. x's second
  // reader (a dangling AND) makes it a stem, so its flip is propagated.
  Circuit c("chain");
  const logic::NetId x = c.add_input("x");
  const logic::NetId y = c.add_input("y");
  const logic::NetId g = c.net("g");
  const logic::NetId h = c.net("h");
  c.add_gate(logic::GateType::kAnd2, "g", {x, y}, g);
  c.add_gate(logic::GateType::kAnd2, "h", {x, y}, h);
  logic::NetId prev = g;
  for (int i = 0; i < 4; ++i) {
    const logic::NetId n = c.net("n" + std::to_string(i));
    c.add_gate(logic::GateType::kInv, "inv" + std::to_string(i), {prev}, n);
    prev = n;
  }
  c.mark_output(prev);
  ASSERT_EQ(c.ffr_stem(x), x);

  const std::vector<StuckFault> faults = {{x, true}};
  const EngineMetricIds& ids = EngineMetricIds::get();
  std::vector<std::uint64_t> detect;
  {
    FaultSimEngine engine(c);
    PatternBlock b(c);
    b.push({0b00, 0b00});  // x=0, y=0
    engine.block_stuck(b, faults, detect);
    const obs::Sheet& m = engine.metrics();
    EXPECT_EQ(detect[0], 0u);
    EXPECT_EQ(m.value(ids.propagations), 1);
    EXPECT_EQ(m.value(ids.frontier_gate_evals), 2);  // the AND gates only
    EXPECT_EQ(m.value(ids.frontier_early_exits), 1);
    EXPECT_EQ(m.value(ids.frontier_events), 1);  // the flipped stem itself
  }
  {
    // Add a lane with y=1: now both AND outputs flip, the frontier survives
    // the full chain, and the detection lands in that lane only.
    FaultSimEngine engine(c);
    PatternBlock b(c);
    b.push({0b00, 0b00});
    b.push({0b10, 0b10});  // x=0, y=1
    engine.block_stuck(b, faults, detect);
    const obs::Sheet& m = engine.metrics();
    EXPECT_EQ(detect[0], 0b10u);
    EXPECT_EQ(m.value(ids.propagations), 1);
    EXPECT_EQ(m.value(ids.frontier_gate_evals), 6);  // 2 ANDs + 4 inverters
    EXPECT_EQ(m.value(ids.frontier_early_exits), 0);
    EXPECT_EQ(m.value(ids.frontier_events), 7);  // x, g, h, n0..n3
  }
}

TEST(FrontierPropagation, OnePropagationPerRegionPerBlock) {
  // A NAND tree of single-fanout PIs and nets feeds the stem s, which fans
  // out to two inverter POs. Every stuck-at, transition and OBD fault of the
  // tree lies in s's fanout-free region: the faults share one propagation
  // of s per block (the PO stems need none), and detect what the legacy
  // simulators detect.
  Circuit c("ffr_tree");
  std::vector<logic::NetId> pi;
  for (int i = 0; i < 8; ++i)
    pi.push_back(c.add_input("p" + std::to_string(i)));
  std::vector<logic::NetId> level = pi;
  int k = 0;
  while (level.size() > 1) {
    std::vector<logic::NetId> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      const logic::NetId n = c.net("t" + std::to_string(k));
      c.add_gate(logic::GateType::kNand2, "t" + std::to_string(k++),
                 {level[i], level[i + 1]}, n);
      next.push_back(n);
    }
    level = next;
  }
  const logic::NetId s = level.front();
  for (const char* o : {"o0", "o1"}) {
    const logic::NetId n = c.net(o);
    c.add_gate(logic::GateType::kInv, o, {s}, n);
    c.mark_output(n);
  }
  std::vector<StuckFault> sf;
  for (const StuckFault& f : enumerate_stuck_faults(c))
    if (c.ffr_stem(f.net) == s) sf.push_back(f);
  std::vector<TransitionFault> tf;
  for (const TransitionFault& f : enumerate_transition_faults(c))
    if (c.ffr_stem(f.net) == s) tf.push_back(f);
  std::vector<ObdFaultSite> of;
  for (const ObdFaultSite& f : enumerate_obd_faults(c))
    if (c.ffr_stem(c.gate(f.gate_index).output) == s) of.push_back(f);
  ASSERT_EQ(sf.size(), 30u);  // 8 PIs + 7 tree nets, both polarities
  ASSERT_EQ(tf.size(), 14u);
  ASSERT_GT(of.size(), 14u);

  const auto tests = random_tests(c, 150, 0x5eeda);
  const auto blocks = PatternBlock::pack(c, tests);
  ASSERT_EQ(blocks.size(), 3u);
  const auto run = [&](auto block_fn, const auto& faults,
                       auto legacy_fn) -> long long {
    FaultSimEngine engine(c);
    std::vector<std::uint64_t> detect;
    std::size_t first = 0;
    for (const PatternBlock& b : blocks) {
      (engine.*block_fn)(b, faults, detect);
      for (int lane = 0; lane < b.size(); ++lane) {
        const auto ref =
            legacy_fn(tests[first + static_cast<std::size_t>(lane)]);
        for (std::size_t f = 0; f < faults.size(); ++f)
          EXPECT_EQ((detect[f] >> lane) & 1u, ref[f] ? 1u : 0u)
              << "lane " << lane << " fault " << f;
      }
      first += static_cast<std::size_t>(b.size());
    }
    return engine.metrics().value(EngineMetricIds::get().propagations);
  };
  EXPECT_EQ(run(&FaultSimEngine::block_stuck, sf,
                [&](const TwoVectorTest& t) {
                  return legacy::simulate_stuck_at(c, t.v2, sf);
                }),
            3);
  EXPECT_EQ(run(&FaultSimEngine::block_transition, tf,
                [&](const TwoVectorTest& t) {
                  return legacy::simulate_transition(c, t, tf);
                }),
            3);
  EXPECT_EQ(run(&FaultSimEngine::block_obd, of,
                [&](const TwoVectorTest& t) {
                  return legacy::simulate_obd(c, t, of);
                }),
            3);
}

TEST(PatternBlockTest, PackPreservesOrderAndLanes) {
  const Circuit c = logic::c17();
  const auto tests = random_tests(c, 70, 0x5eed6);
  const auto blocks = PatternBlock::pack(c, tests);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 64);
  EXPECT_EQ(blocks[1].size(), 6);
  EXPECT_EQ(blocks[1].lane_mask(), 0x3full);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const PatternBlock& b = blocks[t / 64];
    const int lane = static_cast<int>(t % 64);
    for (std::size_t i = 0; i < c.inputs().size(); ++i) {
      EXPECT_EQ((b.pi1()[i] >> lane) & 1u, (tests[t].v1 >> i) & 1u);
      EXPECT_EQ((b.pi2()[i] >> lane) & 1u, (tests[t].v2 >> i) & 1u);
    }
  }
}

TEST(FaultSimEngine, ObdCoverageMatchesMatrix) {
  const Circuit c = logic::mux_tree(2);
  const auto tests = random_tests(c, 100, 0x5eed7);
  const auto of = enumerate_obd_faults(c);
  const DetectionMatrix mo = build_obd_matrix(c, tests, of);
  EXPECT_DOUBLE_EQ(obd_coverage(c, tests, of),
                   static_cast<double>(mo.covered_count) / of.size());
}

TEST(ForcedOutputsDiffer, MatchesStuckDetection) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_stuck_faults(c);
  for (std::uint64_t p = 0; p < 32; ++p) {
    const auto det = legacy::simulate_stuck_at(c, p, faults);
    for (std::size_t f = 0; f < faults.size(); ++f)
      EXPECT_EQ(forced_outputs_differ(c, p, faults[f].net, faults[f].value),
                det[f]);
  }
}

}  // namespace
}  // namespace obd::atpg

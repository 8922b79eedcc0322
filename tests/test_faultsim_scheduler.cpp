// FaultSimScheduler: block sharding for matrices, one-worker fault-dropping
// campaigns, and the X-aware (3-valued) detection path — all pinned to the
// legacy scalar oracle by the randomized harness.
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

TEST(SchedulerOracle, MatricesBitIdenticalAcrossModesAndThreads) {
  std::uint64_t seed = 0x5c4ed001;
  for (const Circuit& c : oracle::zoo())
    oracle::sweep_matrices(c, {96}, seed++);
}

TEST(SchedulerOracle, DroppingCampaignsMatchLegacyMatrices) {
  std::uint64_t seed = 0x5c4ed002;
  for (const Circuit& c : oracle::zoo())
    oracle::sweep_campaigns(c, 150, seed++);
}

TEST(SchedulerOracle, TinyTestListsMatchLegacy) {
  // 1..8 tests fill one block's first lanes only; equivalence must hold on
  // those partial blocks and on partial trailing fault words too
  // (faults % 64 != 0 everywhere here).
  std::uint64_t seed = 0x5c4ed004;
  for (const Circuit& c : oracle::zoo())
    for (int n_tests : {1, 3, 8}) oracle::sweep_matrices(c, {n_tests}, seed++);
}

TEST(Scheduler, ThreadCountDoesNotChangeDropWorkAccounting) {
  // Every fault is simulated on the blocks up to its first detection at any
  // thread count: fault_block_evals is the serial count, and detection is
  // unchanged.
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_obd_faults(c);
  const auto tests = random_pairs(static_cast<int>(c.inputs().size()), 400,
                                  0x5c4ed005);
  const DetectionMatrix m = FaultSimScheduler(c).matrix_obd(tests, faults);
  const std::vector<int> first = oracle::first_rows(m);
  const long long serial = oracle::serial_block_evals(first, tests.size(), 64);
  for (int threads : {1, 2, 4}) {
    FaultSimScheduler sched(c, {threads});
    const auto got = sched.campaign_obd(tests, faults);
    EXPECT_EQ(got.first_test, first) << threads;
    EXPECT_EQ(got.detected, m.covered_count) << threads;
    EXPECT_EQ(got.fault_block_evals, serial) << threads;
  }
}

TEST(Scheduler, SmallShapesAutoSerialize) {
  // Below 2^15 gates x 64-lane blocks a matrix runs inline regardless of
  // the thread knob; past it the requested workers engage (capped by the
  // block count).
  const Circuit c = logic::c17();  // 6 gates: always sub-threshold
  FaultSimScheduler sched(c, {4});
  EXPECT_EQ(sched.pattern_workers(4), 1);
  EXPECT_EQ(sched.pattern_workers(100), 1);

  const Circuit big = logic::array_multiplier(6);  // 444 gates
  ASSERT_EQ(big.num_gates(), 444u);
  FaultSimScheduler bsched(big, {4});
  EXPECT_EQ(bsched.pattern_workers(74), 4);  // 32 856 >= 2^15
  EXPECT_EQ(bsched.pattern_workers(73), 1);  // 32 412: inline
  // Past the gate the block count caps the workers.
  FaultSimScheduler tsched(big, {100});
  EXPECT_EQ(tsched.pattern_workers(74), 74);
  EXPECT_EQ(tsched.pattern_workers(73), 1);
}

TEST(Scheduler, BlockLanesFollowTestsAndWorkers) {
  // The matrix lane-width rule: one worker packs the narrowest of
  // 64/128/256/512 lanes that holds all the tests, 512 past that; several
  // workers pack the widest that still gives each worker a full block.
  struct Row {
    std::size_t n_tests;
    int one_worker, two_workers, four_workers;
  };
  for (const Row& r : std::vector<Row>{{1, 64, 64, 64},
                                       {64, 64, 64, 64},
                                       {65, 128, 64, 64},
                                       {200, 256, 64, 64},
                                       {257, 512, 128, 64},
                                       {371, 512, 128, 64},
                                       {592, 512, 256, 128},
                                       {1023, 512, 256, 128},
                                       {1024, 512, 512, 256},
                                       {5000, 512, 512, 512}}) {
    EXPECT_EQ(FaultSimScheduler::block_lanes(r.n_tests, 1), r.one_worker)
        << r.n_tests;
    EXPECT_EQ(FaultSimScheduler::block_lanes(r.n_tests, 2), r.two_workers)
        << r.n_tests;
    EXPECT_EQ(FaultSimScheduler::block_lanes(r.n_tests, 4), r.four_workers)
        << r.n_tests;
  }
}

TEST(Scheduler, ConeTableCountedOnceAtAnyThreadCount) {
  // Every worker reads the circuit's one fanout-cone table, so the cone
  // bytes a 4-worker matrix reports are the 1-worker figure: the table's
  // size, not one private cache per worker. c2670 with 2 048 tests is past
  // the matrix gate (2^15 gates x 64-lane blocks).
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;
  const Circuit c = logic::decompose_composites(p.circuit());
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 2048, 0x5c4ed00c);
  FaultSimScheduler one(c, {1});
  const DetectionMatrix ref = one.matrix_obd(tests, faults);
  FaultSimScheduler four(c, {4});
  ASSERT_EQ(four.pattern_workers(tests.size() / PatternBlock::kLanes), 4);
  oracle::expect_matrices_identical(ref, four.matrix_obd(tests, faults),
                                    "c2670, 4 workers");
  EXPECT_GT(one.stats().cone_peak_bytes, 0u);
  EXPECT_EQ(four.stats().cone_peak_bytes, one.stats().cone_peak_bytes);
}

TEST(Scheduler, EmptyShapes) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  FaultSimScheduler sched(c, {4});
  const DetectionMatrix no_tests = sched.matrix_obd({}, faults);
  EXPECT_EQ(no_tests.n_tests, 0u);
  EXPECT_EQ(no_tests.covered_count, 0);
  const DetectionMatrix no_faults =
      sched.matrix_obd(random_pairs(5, 10, 1), {});
  EXPECT_EQ(no_faults.n_faults, 0u);
  const auto campaign = sched.campaign_obd({}, faults);
  EXPECT_EQ(campaign.detected, 0);
  EXPECT_EQ(campaign.first_test,
            std::vector<int>(faults.size(), -1));
}

TEST(Scheduler, MoreThreadsThanBlocksIsFine) {
  const Circuit c = logic::mux_tree(2);
  const auto faults = enumerate_transition_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 30, 0x5c4ed006);
  const auto ref = FaultSimScheduler(c).matrix_transition(tests, faults);
  FaultSimScheduler sched(c, {16});
  const auto got = sched.campaign_transition(tests, faults);
  EXPECT_EQ(got.first_test, oracle::first_rows(ref));
}

// --- X-aware (3-valued) detection -------------------------------------------

TEST(DefiniteObd, FullySpecifiedTestMatchesConcreteSimulation) {
  for (const Circuit& c : oracle::zoo()) {
    const auto faults = enumerate_obd_faults(c);
    const std::size_t n_pi = c.inputs().size();
    const std::uint64_t all = n_pi >= 64 ? ~0ull : ((1ull << n_pi) - 1);
    for (const auto& t : random_pairs(static_cast<int>(n_pi), 20, 0xdef1)) {
      const XTwoVectorTest xt{{t.v1, all}, {t.v2, all}};
      EXPECT_EQ(simulate_obd_x(c, xt, faults),
                legacy::simulate_obd(c, t, faults))
          << c.name();
    }
  }
}

TEST(DefiniteObd, IsSoundUnderEveryFillOfTheXBits) {
  // Anything proven definite must be detected by every concretization.
  const Circuit c = logic::random_circuit(6, 40, 5, 0x50f7);
  const auto faults = enumerate_obd_faults(c);
  const std::size_t n_pi = c.inputs().size();
  util::Prng prng(0xdef2);
  for (int trial = 0; trial < 30; ++trial) {
    XTwoVectorTest xt;
    xt.v1.care_mask = prng.next_u64() & ((1ull << n_pi) - 1);
    xt.v2.care_mask = prng.next_u64() & ((1ull << n_pi) - 1);
    xt.v1.bits = prng.next_u64() & xt.v1.care_mask;
    xt.v2.bits = prng.next_u64() & xt.v2.care_mask;
    const std::vector<bool> definite = simulate_obd_x(c, xt, faults);
    for (int fill = 0; fill < 8; ++fill) {
      const InputVec f1 = and_not(prng.next_u64(), xt.v1.care_mask);
      const InputVec f2 = and_not(prng.next_u64(), xt.v2.care_mask);
      const TwoVectorTest t{(xt.v1.bits | f1) & ((1ull << n_pi) - 1),
                            (xt.v2.bits | f2) & ((1ull << n_pi) - 1)};
      const std::vector<bool> got = legacy::simulate_obd(c, t, faults);
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (definite[i])
          EXPECT_TRUE(got[i]) << "fault " << i << " fill " << fill;
    }
  }
}

TEST(DefiniteObd, AllXDetectsNothing) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  const std::vector<bool> det = simulate_obd_x(c, {}, faults);
  for (bool d : det) EXPECT_FALSE(d);
}

}  // namespace
}  // namespace obd::atpg

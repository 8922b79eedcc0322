// Block-width determinism on the ISCAS corpus.
//
// The scheduler sizes each call's pattern blocks (block_lanes): a
// one-thread matrix packs up to 512 lanes, the same matrix on several
// workers packs narrower blocks, one full block per worker at least. On
// c2670 and c7552 (the wide >64-PI tier where the old
// engine hit its cliff), detection matrices and campaign matrix_hash
// values are bit-identical across thread counts 1/2/4, so across those
// widths too. The zoo-level legacy-reference sweeps live in
// oracle_common.hpp; these tests pin the corpus scale, where cones are
// deep enough to exercise frontier early exits and multi-word value
// strides for real.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "atpg/atpg.hpp"
#include "flow/campaign.hpp"
#include "io/bench.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

Circuit load_prim(const std::string& file) {
  const io::BenchParseResult p = io::load_bench_file(corpus(file));
  EXPECT_TRUE(p.ok) << file << ": " << p.error;
  const Circuit view =
      p.seq.flops().empty() ? p.circuit() : p.seq.scan_view();
  return logic::decompose_composites(view);
}

/// Matrix bit-identity across threads against the 1-thread matrix, which
/// runs 512-lane blocks. 1 000 tests are 16 64-lane blocks, enough gates x
/// blocks on both circuits (past 2^15) for 2 and 4 threads to run several
/// workers: 256-lane blocks on 2, 128-lane ones on 4.
void sweep_threads(const std::string& file) {
  const Circuit c = load_prim(file);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 1000, 0x1a9e5);
  const std::size_t n64 = (tests.size() + 63) / 64;

  FaultSimScheduler base(c, {1});
  ASSERT_EQ(FaultSimScheduler::block_lanes(tests.size(),
                                           base.pattern_workers(n64)),
            512);
  const DetectionMatrix ref = base.matrix_obd(tests, faults);
  EXPECT_GT(ref.covered_count, 0) << file;

  for (const auto& [o, lanes] :
       std::vector<std::pair<SimOptions, int>>{{{2}, 256}, {{4}, 128}}) {
    FaultSimScheduler sched(c, o);
    const int workers = sched.pattern_workers(n64);
    ASSERT_EQ(workers, o.threads) << file;
    ASSERT_EQ(FaultSimScheduler::block_lanes(tests.size(), workers), lanes);
    oracle::expect_matrices_identical(ref, sched.matrix_obd(tests, faults),
                                      c.name() + " " + oracle::config_name(o));
  }
}

TEST(LanesCorpus, C2670MatrixIdenticalAcrossWidths) {
  sweep_threads("c2670.bench");
}

TEST(LanesCorpus, C7552MatrixIdenticalAcrossWidths) {
  sweep_threads("c7552.bench");
}

/// End-to-end witness: the campaign driver's matrix_hash is invariant over
/// thread count (the 1-thread campaign's matrix runs wide blocks).
void sweep_campaign_hash(const std::string& file) {
  const io::BenchParseResult p = io::load_bench_file(corpus(file));
  ASSERT_TRUE(p.ok) << p.error;
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.random_patterns = 256;  // keep the sweep quick
  flow::CampaignReport base;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const flow::CampaignReport r = flow::run_campaign(p.seq, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    if (threads == 1) {
      base = r;
      continue;
    }
    const std::string label = file + " " + std::to_string(threads) + "t";
    EXPECT_EQ(r.matrix_hash, base.matrix_hash) << label;
    EXPECT_EQ(r.detected, base.detected) << label;
    EXPECT_EQ(r.tests_final, base.tests_final) << label;
    EXPECT_EQ(r.coverage, base.coverage) << label;
  }
}

TEST(LanesCorpus, C2670CampaignHashIdentical) {
  sweep_campaign_hash("c2670.bench");
}

TEST(LanesCorpus, C7552CampaignHashIdentical) {
  sweep_campaign_hash("c7552.bench");
}

}  // namespace
}  // namespace obd::atpg

// Crash-tolerant sharded campaigns: the merge==one-shot determinism proof
// (matrix_hash identity across shard counts and thread counts), the full
// fault-injection matrix (torn writes, crashes after committed progress,
// corrupt checkpoints, watchdog timeouts, poison shards), interrupt/resume
// on the shard executor, and the CLI's flag parsing. Every supervised run
// spawns real `obd_atpg --shard` children (OBD_ATPG_BIN), so injected
// crashes are real process deaths: exit code 70 or SIGKILL.
#include "flow/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "flow/inject.hpp"
#include "flow/shard.hpp"
#include "io/bench.hpp"
#include "mutation_common.hpp"
#include "util/prng.hpp"

namespace obd::flow {
namespace {

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

int count_outcome(const SupervisorResult& r, ShardOutcome o) {
  int n = 0;
  for (const ShardAttempt& a : r.attempts)
    if (a.outcome == o) ++n;
  return n;
}

/// The merged report must be indistinguishable from the one-shot campaign
/// in every result field — matrix_hash is the bit-identity witness.
void expect_matches_baseline(const CampaignReport& r,
                             const CampaignReport& base,
                             const std::string& what) {
  EXPECT_EQ(r.matrix_hash, base.matrix_hash) << what;
  EXPECT_EQ(r.detected, base.detected) << what;
  EXPECT_EQ(r.untestable, base.untestable) << what;
  EXPECT_EQ(r.aborted, base.aborted) << what;
  EXPECT_EQ(r.aborted_backtracks, base.aborted_backtracks) << what;
  EXPECT_EQ(r.aborted_time, base.aborted_time) << what;
  EXPECT_EQ(r.tests_random, base.tests_random) << what;
  EXPECT_EQ(r.tests_deterministic, base.tests_deterministic) << what;
  EXPECT_EQ(r.tests_final, base.tests_final) << what;
  EXPECT_DOUBLE_EQ(r.coverage, base.coverage) << what;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& d : dirs_) std::filesystem::remove_all(d);
  }

  std::string fresh_dir(const std::string& name) {
    const auto p =
        std::filesystem::temp_directory_path() / ("obd_sup_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    dirs_.push_back(p.string());
    return p.string();
  }

  io::BenchParseResult load(const std::string& file) {
    return io::load_bench_file(corpus(file));
  }

  /// A supervised run of corpus `file` on real `obd_atpg --shard` children,
  /// checkpointing into the fresh directory `name`.
  SupervisorOptions supervise(const std::string& file,
                              const std::string& name) {
    SupervisorOptions sup;
    sup.checkpoint_dir = fresh_dir(name);
    sup.child_exe = OBD_ATPG_BIN;
    sup.circuit_path = corpus(file);
    return sup;
  }

  std::vector<std::string> dirs_;
};

// --- Determinism: merged shards == one-shot campaign ---------------------

TEST_F(SupervisorTest, MergeIsBitIdenticalToOneShotC2670) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_NE(base.matrix_hash, 0u);

  for (const int threads : {1, 2, 4}) {
    for (const int shards : {1, 2, 4, 8}) {
      SupervisorOptions sup = supervise("c2670.bench", "c2670");
      sup.shards = shards;
      opt.sim.threads = threads;
      const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
      const std::string what = std::to_string(threads) + " threads, " +
                               std::to_string(shards) + " shards";
      ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
      EXPECT_TRUE(res.quarantined.empty()) << what;
      EXPECT_FALSE(res.report.partial) << what;
      EXPECT_EQ(res.report.shards, shards) << what;
      expect_matches_baseline(res.report, base, what);
    }
  }
}

TEST_F(SupervisorTest, MergeIsBitIdenticalToOneShotC7552) {
  const io::BenchParseResult p = load("c7552.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 512;
  opt.max_backtracks = 500;  // leaves deliberate aborts in the mix
  opt.sim.threads = 4;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const int combos[][2] = {{2, 2}, {4, 4}};  // {threads, shards}
  for (const auto& c : combos) {
    SupervisorOptions sup = supervise("c7552.bench", "c7552");
    sup.shards = c[1];
    opt.sim.threads = c[0];
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    const std::string what = std::to_string(c[0]) + " threads, " +
                             std::to_string(c[1]) + " shards";
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    expect_matches_baseline(res.report, base, what);
  }
}

TEST_F(SupervisorTest, ObdMergeIsBitIdenticalToOneShotC2670) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_NE(base.matrix_hash, 0u);

  for (const int shards : {1, 4}) {
    SupervisorOptions sup = supervise("c2670.bench", "c2670_obd");
    sup.shards = shards;
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    const std::string what = "obd, " + std::to_string(shards) + " shards";
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    expect_matches_baseline(res.report, base, what);
  }
}

TEST_F(SupervisorTest, LocMergeIsBitIdenticalToOneShotS1423) {
  // Launch-on-capture campaigns shard like any other: each shard runs the
  // two-frame scan generator on its own faults, and the merge lands on the
  // one-shot report.
  const io::BenchParseResult p = load("s1423.bench");
  ASSERT_TRUE(p.ok) << p.error;

  for (const atpg::ScanMode style : {atpg::ScanMode::kLaunchOnCapture,
                                     atpg::ScanMode::kLaunchOnCaptureHeldPi}) {
    CampaignOptions opt;
    opt.model = FaultModel::kObd;
    opt.scan_style = style;
    const CampaignReport base = run_campaign(p.seq, opt);
    ASSERT_TRUE(base.ok()) << base.error;

    SupervisorOptions sup = supervise(
        "s1423.bench", std::string("s1423_") + scan_style_name(style));
    sup.shards = 3;
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    const std::string what = std::string(scan_style_name(style)) +
                             ", 3 shards";
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    EXPECT_EQ(res.report.scan_style, base.scan_style) << what;
    expect_matches_baseline(res.report, base, what);
  }
}

TEST_F(SupervisorTest, KilledCampaignResumesToOneShotHashOnC2670) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  // {threads, shards}: the acceptance grid — a campaign SIGKILLed after
  // committed progress, quarantined, then resumed, must land on the
  // one-shot hash at >= 2 shard counts and >= 2 thread counts.
  const int combos[][2] = {{2, 4}, {4, 2}};
  for (const auto& c : combos) {
    const std::string what = std::to_string(c[0]) + " threads, " +
                             std::to_string(c[1]) + " shards";
    opt.sim.threads = c[0];
    SupervisorOptions sup = supervise("c2670.bench", "kill_resume");
    sup.shards = c[1];
    // Shard 1 dies at its *second* checkpoint save — after the prepass
    // checkpoint committed — on every attempt, and retries are off: the
    // first run ends partial with shard 1 quarantined.
    sup.inject_spec = "sigkill#2@1:*";
    sup.max_retries = 0;
    sup.backoff_base_s = 0.01;
    const SupervisorResult killed = run_supervised_campaign(p.seq, opt, sup);
    ASSERT_TRUE(killed.report.ok()) << what << ": " << killed.report.error;
    ASSERT_EQ(killed.quarantined, std::vector<int>{1}) << what;
    EXPECT_TRUE(killed.report.partial) << what;
    EXPECT_LT(killed.report.detected, base.detected) << what;

    // Resume without injection: the survivors' kDone checkpoints are
    // reused, the killed shard continues from its committed progress.
    SupervisorOptions again = sup;
    again.inject_spec.clear();
    again.resume = true;
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, again);
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    EXPECT_TRUE(res.quarantined.empty()) << what;
    EXPECT_FALSE(res.report.partial) << what;
    expect_matches_baseline(res.report, base, what + " (resumed)");
  }
}

// --- Fault-injection matrix ----------------------------------------------

struct InjectCase {
  const char* spec;
  ShardOutcome first_failure;
  const char* detail_substr;
};

TEST_F(SupervisorTest, EveryInjectedFailureRecoversToIdenticalResult) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;  // leaves real PODEM work for the checkpoints
  opt.max_backtracks = 20000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const InjectCase cases[] = {
      // Torn write: the half-written temp file never commits. An abort-*
      // entry ends the child with _Exit(70).
      {"abort-mid-write@1", ShardOutcome::kCrash, "exit code 70"},
      // Durable temp, crash before rename: old checkpoint still in place.
      {"abort-before-rename@1", ShardOutcome::kCrash, "exit code 70"},
      // SIGKILL at the very first checkpoint save.
      {"sigkill@1", ShardOutcome::kCrash, "signal 9"},
      // SIGKILL *after* the prepass checkpoint committed — the retry resumes
      // from real progress instead of starting over.
      {"sigkill#2@1", ShardOutcome::kCrash, "signal 9"},
      // The checkpoint commits but can never validate; the supervisor must
      // detect it, delete it, and retry fresh.
      {"corrupt-crc@1", ShardOutcome::kCorrupt, "crc mismatch"},
  };

  for (const InjectCase& c : cases) {
    SupervisorOptions sup = supervise(
        "c432.bench", std::string("inj_") + std::to_string(&c - cases));
    sup.shards = 3;
    sup.inject_spec = c.spec;
    sup.backoff_base_s = 0.01;  // keep retry sleeps out of the test budget
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    ASSERT_TRUE(res.report.ok()) << c.spec << ": " << res.report.error;

    // Exactly one failed attempt, on shard 1, classified as expected.
    EXPECT_EQ(res.retries, 1) << c.spec;
    EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 3) << c.spec;
    bool saw_failure = false;
    for (const ShardAttempt& a : res.attempts) {
      if (a.outcome == ShardOutcome::kClean) continue;
      saw_failure = true;
      EXPECT_EQ(a.shard, 1) << c.spec;
      EXPECT_EQ(a.attempt, 0) << c.spec;
      EXPECT_EQ(a.outcome, c.first_failure) << c.spec;
      EXPECT_NE(a.detail.find(c.detail_substr), std::string::npos)
          << c.spec << ": " << a.detail;
    }
    EXPECT_TRUE(saw_failure) << c.spec << ": injection never fired";

    EXPECT_TRUE(res.quarantined.empty()) << c.spec;
    EXPECT_EQ(res.report.shard_retries, 1) << c.spec;
    expect_matches_baseline(res.report, base, c.spec);
  }
}

TEST_F(SupervisorTest, WatchdogTimeoutIsClassifiedAndRetried) {
  const io::BenchParseResult p = load("s27.bench");
  ASSERT_TRUE(p.ok) << p.error;

  // The first attempt of shard 1 stalls for a minute at shard start. The
  // watchdog must SIGKILL it at the 2 s deadline, not wait for the stall to
  // end; the retry does not stall. The deadline leaves every clean s27
  // child (milliseconds of work, sanitizer builds included) ample room.
  CampaignOptions opt;
  SupervisorOptions sup = supervise("s27.bench", "timeout");
  sup.shards = 2;
  sup.inject_spec = "delay=60000@1";
  sup.shard_timeout_s = 2.0;
  sup.backoff_base_s = 0.01;
  const auto t0 = std::chrono::steady_clock::now();
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kTimeout), 1);
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  EXPECT_EQ(res.retries, 1);
  EXPECT_DOUBLE_EQ(res.report.coverage, 1.0);
  for (const ShardAttempt& a : res.attempts) {
    if (a.outcome != ShardOutcome::kTimeout) continue;
    EXPECT_EQ(a.shard, 1);
    EXPECT_EQ(a.attempt, 0);
    EXPECT_EQ(a.detail, "signal 9");
  }
  EXPECT_LT(wall_s, 30.0) << "the stalled child was not killed at its deadline";
}

TEST_F(SupervisorTest, PoisonShardIsQuarantinedWithPartialReport) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  SupervisorOptions sup = supervise("c432.bench", "poison");
  sup.shards = 3;
  sup.inject_spec = "abort-before-rename@1:*";  // every attempt dies
  sup.max_retries = 1;
  sup.backoff_base_s = 0.01;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);

  // Defined degradation: the campaign completes, the report is partial and
  // names the quarantined shard, and its faults count as undetected.
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(res.quarantined, std::vector<int>{1});
  EXPECT_EQ(res.report.quarantined_shards, std::vector<int>{1});
  EXPECT_TRUE(res.report.partial);
  EXPECT_EQ(res.report.shards, 3);
  EXPECT_EQ(count_outcome(res, ShardOutcome::kCrash), 2);  // 1 + max_retries
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  for (const ShardAttempt& a : res.attempts) {
    if (a.outcome != ShardOutcome::kCrash) continue;
    EXPECT_EQ(a.detail, "exit code 70");
  }
  EXPECT_LT(res.report.detected, base.detected);
  EXPECT_LT(res.report.coverage, base.coverage);

  // The partial flag and quarantine list survive JSON serialization.
  const std::string json = report_json(res.report);
  EXPECT_NE(json.find("\"partial\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\": [1]"), std::string::npos) << json;
}

// --- Interrupt / resume --------------------------------------------------

TEST_F(SupervisorTest, PresetStopFlagReportsInterrupted) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  static volatile std::sig_atomic_t stop = 1;
  CampaignOptions opt;
  SupervisorOptions sup = supervise("c432.bench", "stop");
  sup.shards = 2;
  sup.stop = &stop;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  EXPECT_TRUE(res.interrupted);
  EXPECT_TRUE(res.attempts.empty());  // no child was started
  EXPECT_FALSE(res.report.ok());
  EXPECT_NE(res.report.error.find("--resume"), std::string::npos)
      << res.report.error;
}

TEST_F(SupervisorTest, InterruptedShardResumesToBitIdenticalState) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.max_backtracks = 20000;

  // Uninterrupted reference shard.
  ShardRunOptions ref_opt;
  ref_opt.checkpoint_dir = fresh_dir("shard_ref");
  ref_opt.shard_index = 0;
  ref_opt.shard_count = 2;
  const ShardRunResult ref = run_campaign_shard(p.seq, opt, ref_opt);
  ASSERT_EQ(ref.status, ShardRunStatus::kDone) << ref.error;
  ASSERT_EQ(ref.state.phase, ShardPhase::kDone);

  // Same shard, interrupted right after the prepass (the stop flag is
  // polled before the first PODEM search), then resumed.
  static volatile std::sig_atomic_t stop = 1;
  stop = 1;
  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("shard_int");
  so.shard_index = 0;
  so.shard_count = 2;
  so.stop = &stop;
  const ShardRunResult r1 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r1.status, ShardRunStatus::kInterrupted) << r1.error;
  EXPECT_NE(r1.error.find("checkpointed"), std::string::npos);

  // The interruption committed a valid, loadable, non-final checkpoint.
  ShardState mid;
  std::string err;
  ASSERT_TRUE(load_checkpoint(checkpoint_path(so.checkpoint_dir, 0), &mid,
                              &err))
      << err;
  EXPECT_NE(mid.phase, ShardPhase::kDone);

  stop = 0;
  so.resume = true;
  const ShardRunResult r2 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r2.status, ShardRunStatus::kDone) << r2.error;
  EXPECT_EQ(encode_checkpoint(r2.state), encode_checkpoint(ref.state));

  // Resuming a completed shard is an idempotent no-op.
  const ShardRunResult r3 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r3.status, ShardRunStatus::kDone) << r3.error;
  EXPECT_EQ(encode_checkpoint(r3.state), encode_checkpoint(ref.state));
}

TEST_F(SupervisorTest, ResumeRejectsACheckpointFromDifferentOptions) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("mismatch");
  so.shard_index = 0;
  so.shard_count = 2;
  ASSERT_EQ(run_campaign_shard(p.seq, opt, so).status, ShardRunStatus::kDone);

  opt.seed ^= 1;  // result-changing option: the fingerprint must differ
  so.resume = true;
  const ShardRunResult r = run_campaign_shard(p.seq, opt, so);
  EXPECT_EQ(r.status, ShardRunStatus::kBadCheckpoint);
  EXPECT_NE(r.error.find("fingerprint"), std::string::npos) << r.error;
}

// --- Configuration and spec validation -----------------------------------

TEST_F(SupervisorTest, BadInjectSpecIsAnErrorNotASilentNoOp) {
  // The parent parses the spec before any child starts: a typo is a
  // configuration error, not every attempt dying on it and a quarantine.
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;
  SupervisorOptions sup = supervise("c432.bench", "badspec");
  sup.inject_spec = "frobnicate@1";
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  EXPECT_FALSE(res.report.ok());
  EXPECT_NE(res.report.error.find("inject entry 'frobnicate@1'"),
            std::string::npos)
      << res.report.error;
  EXPECT_TRUE(res.attempts.empty());
  for (int shard = 0; shard < sup.shards; ++shard)
    EXPECT_FALSE(std::filesystem::exists(
        checkpoint_path(sup.checkpoint_dir, shard)));
}

TEST_F(SupervisorTest, InjectSpecParserRejectsEveryMalformedEntry) {
  FaultInjector inj;
  std::string err;
  for (const char* bad : {
           "sigkill",            // no @shard
           "@1",                 // no mode
           "sigkill@",           // empty shard
           "sigkill@x",          // non-numeric shard
           "sigkill@1:y",        // non-numeric attempt
           "sigkill#0@1",        // occurrence must be >= 1
           "sigkill#x@1",        // non-numeric occurrence
           "delay@1",            // delay needs =MS
           "sigkill=5@1",        // arg on a mode that takes none
           "sigkill@1,,delay=5@2",  // empty entry in a list
       }) {
    err.clear();
    EXPECT_FALSE(inj.configure(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    EXPECT_FALSE(inj.active()) << bad;  // a bad spec must not half-install
  }
  EXPECT_TRUE(inj.configure("sigkill#2@*,delay=10@1:*,corrupt-crc@0", &err))
      << err;
  EXPECT_TRUE(inj.active());
}

TEST_F(SupervisorTest, InjectSpecSeededMutationsNeverHalfInstall) {
  // Hostile specs: fixed-seed mutants of valid ones. Each is configured
  // over an installed valid spec; a rejected mutant must leave the injector
  // inactive and name the offending entry in its diagnostic.
  FaultInjector inj;
  util::Prng prng(0x1ec7f022);
  const std::string specials = "@#=:*,-0123456789";
  const std::vector<std::string> valid = {
      "sigkill#2@*,delay=10@1:*,corrupt-crc@0",
      "abort-mid-write@1,delay=1500@2:*",
      "abort-before-rename#3@0:1",
  };
  int accepted = 0, rejected = 0;
  for (std::size_t m = 0; m < 3000; ++m) {
    const std::string& base = valid[m % valid.size()];
    std::string err;
    ASSERT_TRUE(inj.configure(base, &err)) << err;
    const std::string spec = testing_mutation::mutate(base, prng, specials);
    err.clear();
    if (inj.configure(spec, &err)) {
      ++accepted;
      EXPECT_EQ(inj.active(), !spec.empty()) << spec;
      continue;
    }
    ++rejected;
    EXPECT_FALSE(inj.active()) << spec;
    EXPECT_EQ(err.rfind("inject entry '", 0), 0u) << spec << ": " << err;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(SupervisorTest, ConfigurationErrorsAreDefinedStates) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;

  SupervisorOptions no_dir = supervise("c432.bench", "cfg0");
  no_dir.checkpoint_dir.clear();
  EXPECT_FALSE(run_supervised_campaign(p.seq, opt, no_dir).report.ok());

  SupervisorOptions bad_shards = supervise("c432.bench", "cfg");
  bad_shards.shards = 0;
  EXPECT_FALSE(run_supervised_campaign(p.seq, opt, bad_shards).report.ok());

  SupervisorOptions sup = supervise("c432.bench", "cfg2");
  CampaignOptions nd = opt;
  nd.ndetect = 2;
  EXPECT_FALSE(run_supervised_campaign(p.seq, nd, sup).report.ok());

  SupervisorOptions no_child = supervise("c432.bench", "cfg4");
  no_child.child_exe.clear();
  const SupervisorResult orphan = run_supervised_campaign(p.seq, opt, no_child);
  EXPECT_FALSE(orphan.report.ok());
  EXPECT_TRUE(orphan.attempts.empty());

  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("cfg3");
  so.shard_index = 5;
  so.shard_count = 2;
  EXPECT_EQ(run_campaign_shard(p.seq, opt, so).status,
            ShardRunStatus::kError);
  ShardRunOptions empty_dir;
  EXPECT_EQ(run_campaign_shard(p.seq, opt, empty_dir).status,
            ShardRunStatus::kError);
}

// --- Child argv ----------------------------------------------------------

/// A shard child executable that appends its argv to `dir`/argv.log, one
/// line per child, then execs obd_atpg.
std::string argv_logging_wrapper(const std::string& dir) {
  const std::string wrapper = dir + "/obd_atpg.sh";
  {
    std::ofstream sh(wrapper);
    sh << "#!/bin/sh\n"
       << "echo \"$*\" >> \"" << dir << "/argv.log\"\n"
       << "exec \"" << OBD_ATPG_BIN << "\" \"$@\"\n";
  }
  std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  return wrapper;
}

/// The argv of every child argv_logging_wrapper(`dir`) started.
std::vector<std::vector<std::string>> logged_argvs(const std::string& dir) {
  std::vector<std::vector<std::string>> out;
  std::ifstream in(dir + "/argv.log");
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    out.emplace_back(std::istream_iterator<std::string>(words),
                     std::istream_iterator<std::string>());
  }
  return out;
}

/// The word after `flag` in `argv`, or "" when absent.
std::string flag_value(const std::vector<std::string>& argv,
                       const std::string& flag) {
  const auto it = std::find(argv.begin(), argv.end(), flag);
  return it == argv.end() || it + 1 == argv.end() ? "" : *(it + 1);
}

TEST_F(SupervisorTest, SubprocessShardsGetNoLaneOrConeFlags) {
  // Shard children get no flag the CLI does not accept: the block width is
  // the scheduler's per-call choice and the cone table is not sized, so
  // neither --lanes nor --cone-cache is forwarded, and the merge still
  // equals the one-shot report.
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const std::string wrap_dir = fresh_dir("proc_wrap");
  SupervisorOptions sup = supervise("c432.bench", "proc_fwd");
  sup.shards = 2;
  sup.child_exe = argv_logging_wrapper(wrap_dir);
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  expect_matches_baseline(res.report, base, "subprocess 2 shards");

  const auto argvs = logged_argvs(wrap_dir);
  EXPECT_EQ(argvs.size(), 2u);
  for (const auto& argv : argvs) {
    EXPECT_EQ(std::count(argv.begin(), argv.end(), "--lanes"), 0);
    EXPECT_EQ(std::count(argv.begin(), argv.end(), "--cone-cache"), 0);
  }
}

TEST_F(SupervisorTest, SubprocessLocShardsGetScanStyle) {
  // A launch-on-capture campaign's children must run the LOC generator,
  // not the enhanced-scan default, for the merge to equal the one-shot run.
  const io::BenchParseResult p = load("s1423.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.scan_style = atpg::ScanMode::kLaunchOnCapture;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const std::string wrap_dir = fresh_dir("proc_loc_wrap");
  SupervisorOptions sup = supervise("s1423.bench", "proc_loc");
  sup.shards = 2;
  sup.child_exe = argv_logging_wrapper(wrap_dir);
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  expect_matches_baseline(res.report, base, "subprocess loc 2 shards");

  const auto argvs = logged_argvs(wrap_dir);
  EXPECT_EQ(argvs.size(), 2u);
  for (const auto& argv : argvs)
    EXPECT_EQ(flag_value(argv, "--scan-style"), "loc");
}

// --- The CLI ---------------------------------------------------------------

/// Runs obd_atpg with `args` (shell words), stdout discarded and stderr
/// written to `err_path`; returns the exit status, or -1 on a signal.
int run_cli(const std::string& args, const std::string& err_path) {
  const std::string cmd = std::string("\"") + OBD_ATPG_BIN + "\" " + args +
                          " > /dev/null 2> \"" + err_path + "\"";
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The matrix_hash string of a JSON report, or "" when absent.
std::string report_hash(const std::string& path) {
  const std::string json = slurp(path);
  const std::string key = "\"matrix_hash\": \"";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + key.size();
  return json.substr(from, json.find('"', from) - from);
}

TEST_F(SupervisorTest, CliRejectsHostileNumbers) {
  // A number no flag can hold must be an error that names the flag, never
  // a NaN that disables a check, a value wrapped into int, a negative seed
  // wrapped to 2^64 - 1, or a clamped seed.
  const std::string dir = fresh_dir("cli_numbers");
  const std::string err = dir + "/stderr.txt";
  const std::string c17 = "\"" + corpus("c17.bench") + "\"";
  const std::string ck = " --checkpoint-dir \"" + dir + "/ck\"";
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"--min-coverage", "nan"},       {"--podem-time", "nan"},
      {"--podem-time", "inf"},         {"--shard-timeout", "inf"},
      {"--progress-interval", "nan"},  {"--progress-interval", "inf"},
      {"--random", "4294967296"},      {"--threads", "4294967298"},
      {"--ndetect", "4294967296"},     {"--shards", "4294967298"},
      {"--max-retries", "4294967296"}, {"--shard-jobs", "4294967298"},
      {"--shard", "0/4294967297"},     {"--shard", "4294967296/4294967297"},
      {"--seed", "0x10000000000000000"},
      {"--seed", "18446744073709551616"},
      {"--seed", "-1"},                {"--seed", "-0x1"},
  };
  for (const auto& [flag, v] : hostile) {
    EXPECT_EQ(run_cli(c17 + ck + " " + flag + " " + v, err), 1)
        << flag << " " << v;
    EXPECT_NE(slurp(err).find(flag), std::string::npos)
        << flag << " " << v << ": " << slurp(err);
  }
  EXPECT_EQ(run_cli(c17 + " --min-coverage 1", err), 0) << slurp(err);
  EXPECT_EQ(run_cli(c17 + " --seed 0xffffffffffffffff", err), 0)
      << slurp(err);

  // Seeds past 2^63 stay distinct, and the supervisor's decimal forwarding
  // of one reaches its shard children unchanged.
  const std::string c880 =
      "\"" + corpus("c880.bench") + "\" --model obd --quiet --report ";
  const std::string lo = dir + "/lo.json", hi = dir + "/hi.json",
                    sharded = dir + "/sharded.json";
  ASSERT_EQ(run_cli(c880 + lo + " --seed 0x8000000000000000", err), 0)
      << slurp(err);
  ASSERT_EQ(run_cli(c880 + hi + " --seed 0xffffffffffffffff", err), 0)
      << slurp(err);
  ASSERT_EQ(run_cli(c880 + sharded + " --seed 0xffffffffffffffff" +
                        " --shards 2" + ck,
                    err),
            0)
      << slurp(err);
  EXPECT_FALSE(report_hash(lo).empty());
  EXPECT_NE(report_hash(lo), report_hash(hi));
  EXPECT_EQ(report_hash(sharded), report_hash(hi));
}

TEST_F(SupervisorTest, CliRejectsDeletedFlags) {
  // Deleted knobs are unknown options like any other: exit 1 with the flag
  // named on stderr, never silently ignored.
  const std::string dir = fresh_dir("cli_deleted");
  const std::string err = dir + "/stderr.txt";
  const std::string c17 = "\"" + corpus("c17.bench") + "\"";
  for (const std::string flag : {"--lanes", "--cone-cache", "--packing"}) {
    EXPECT_EQ(run_cli(c17 + " " + flag + " 256", err), 1) << flag;
    EXPECT_NE(slurp(err).find("unknown option '" + flag + "'"),
              std::string::npos)
        << flag << ": " << slurp(err);
  }
}

TEST_F(SupervisorTest, CliRejectsMisplacedOrMalformedInject) {
  // --inject on a one-shot run reaches no crash point, so it is an error
  // that names the flag, valid spec or not. A malformed spec on a sharded
  // run exits 1 before any child starts and writes no checkpoint.
  const std::string dir = fresh_dir("cli_inject");
  const std::string err = dir + "/stderr.txt";
  const std::string c17 = "\"" + corpus("c17.bench") + "\"";
  for (const std::string spec : {"frobnicate@1", "sigkill@0"}) {
    EXPECT_EQ(run_cli(c17 + " --inject '" + spec + "'", err), 1) << spec;
    EXPECT_NE(slurp(err).find("--inject"), std::string::npos)
        << spec << ": " << slurp(err);
  }
  const std::string ck = dir + "/ck_bad";
  EXPECT_EQ(run_cli(c17 + " --shards 2 --checkpoint-dir \"" + ck +
                        "\" --inject 'frobnicate@1'",
                    err),
            1);
  EXPECT_NE(slurp(err).find("inject entry 'frobnicate@1'"), std::string::npos)
      << slurp(err);
  for (int shard = 0; shard < 2; ++shard)
    EXPECT_FALSE(std::filesystem::exists(checkpoint_path(ck, shard)));

  // The FLOW_FAULT_INJECT fallback is not the flag: a one-shot run still
  // ignores it.
  setenv("FLOW_FAULT_INJECT", "sigkill@0", 1);
  const int env_status = run_cli(c17 + " --quiet", err);
  unsetenv("FLOW_FAULT_INJECT");
  EXPECT_EQ(env_status, 0) << slurp(err);
}

/// Runs obd_atpg with `args` (no shell, output discarded); returns its exit
/// status (-1 on a signal) and its peak resident set in KiB from wait4. The
/// peak also counts the pages the child shares with this process between
/// fork and exec, which are the same for every call in a row.
std::pair<int, long> run_cli_peak_rss(std::vector<std::string> args) {
  std::string exe = OBD_ATPG_BIN;
  std::vector<char*> argv = {exe.data()};
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    const int null = open("/dev/null", O_WRONLY);
    dup2(null, STDOUT_FILENO);
    dup2(null, STDERR_FILENO);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  int st = 0;
  rusage ru{};
  if (pid < 0 || wait4(pid, &st, 0, &ru) != pid) return {-1, 0};
  return {WIFEXITED(st) ? WEXITSTATUS(st) : -1, ru.ru_maxrss};
}

TEST_F(SupervisorTest, CliThreadsBeyondBlocksBuildNoIdleEngines) {
  // --threads caps the workers; a call never runs more workers than it has
  // blocks, so engines must follow the workers a call uses. A c17 campaign
  // has a handful of blocks: --threads 100000 must give the --threads 1
  // report without building 100000 engines (~100 MB when it did).
  const std::string dir = fresh_dir("cli_threads");
  const auto run = [&](const std::string& threads) {
    return run_cli_peak_rss({corpus("c17.bench"), "--model", "obd",
                             "--threads", threads, "--quiet", "--report",
                             dir + "/t" + threads + ".json"});
  };
  const auto [one_status, one_kib] = run("1");
  const auto [many_status, many_kib] = run("100000");
  ASSERT_EQ(one_status, 0);
  ASSERT_EQ(many_status, 0);
  EXPECT_FALSE(report_hash(dir + "/t1.json").empty());
  EXPECT_EQ(report_hash(dir + "/t100000.json"), report_hash(dir + "/t1.json"));
  EXPECT_GT(one_kib, 0);
  EXPECT_LT(many_kib, 2 * one_kib) << "peak KiB at 1 thread: " << one_kib;
}

}  // namespace
}  // namespace obd::flow

// End-to-end campaign driver: coverage on zoo and corpus circuits,
// bit-identical results across thread counts, stuck-at collapse
// soundness, and the JSON report.
#include <gtest/gtest.h>

#include <string>

#include "atpg/atpg.hpp"
#include "flow/campaign.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

TEST(FlowCampaign, C17StuckFullCoverage) {
  const CampaignReport r = run_campaign(logic::c17());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.circuit, "c17");
  EXPECT_LT(r.faults_collapsed, r.faults_total);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_EQ(r.untestable, 0);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_GT(r.tests_final, 0);
  EXPECT_NE(r.matrix_hash, 0u);
}

TEST(FlowCampaign, C432BitIdenticalAcrossThreads) {
  // The acceptance bar: >= 95% collapsed stuck-at coverage on c432 and a
  // bit-identical detection matrix at 1 / 2 / 4 threads.
  const io::BenchParseResult p = io::load_bench_file(corpus("c432.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;
  CampaignReport base;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const CampaignReport r = run_campaign(p.seq, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GE(r.coverage, 0.95);
    if (threads == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.matrix_hash, base.matrix_hash) << threads;
    EXPECT_EQ(r.detected, base.detected);
    EXPECT_EQ(r.tests_final, base.tests_final);
    EXPECT_EQ(r.tests_random, base.tests_random);
  }
}

const obs::MetricValue* find_metric(const CampaignReport& r,
                                    const std::string& name) {
  for (const obs::MetricValue& m : r.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

long long metric_value(const CampaignReport& r, const std::string& name) {
  const obs::MetricValue* m = find_metric(r, name);
  return m ? m->value : 0;
}

CampaignOptions golden_options(FaultModel model,
                               ScanMode style = ScanMode::kEnhanced,
                               long backtracks = 100000,
                               bool sat_escalate = false) {
  CampaignOptions opt;
  opt.model = model;
  opt.scan_style = style;
  opt.max_backtracks = backtracks;
  opt.sat_escalate = sat_escalate;
  opt.sim.threads = 1;
  return opt;
}

TEST(FlowCampaign, ObdGoldenDecisionIdentity) {
  // Fixed values, not just cross-run equality: a PODEM rewrite that keeps
  // every test valid but changes one decision moves the implication or
  // backtrack count, and usually tests_final and the hash; a campaign path
  // that drifts moves the counts. One row per path through the executor:
  // OBD, SAT escalation, both LOC styles, stuck-at and transition. The
  // search counts of the OBD rows were recorded from the full-re-evaluation
  // PODEM engine; every hash and fault count predates the shared executor
  // (the LOC rows' effort counts were first reported by it). The four
  // enhanced-scan OBD rows' counts then fell by exactly the effort of the
  // capture-frame searches generate_test stopped repeating (implications /
  // backtracks: c880 1551 / 0, c2670 1924 / 934, c2670 at budget 20
  // 1074 / 504, mul10 860 / 346); their other columns did not move.
  // sat_conflicts pins the SAT effort of the incremental session, the
  // campaign's one escalation path, sensitized-path clauses included (c2670
  // took 155 conflicts and mul10 21 022 with the miter alone). The fresh
  // path that lifts every cube is pinned per fault by test_sat_atpg's
  // SessionMatchesFreshOnCampaignTails.
  struct Golden {
    const char* file;
    CampaignOptions opt;
    std::uint64_t matrix_hash;
    int tests_final;
    int detected;
    int untestable;
    int sat_untestable;
    int aborted;
    long long implications;
    long long backtracks;
    long long sat_conflicts;
  };
  const FaultModel obd = FaultModel::kObd;
  const ScanMode loc = ScanMode::kLaunchOnCapture;
  const ScanMode held = ScanMode::kLaunchOnCaptureHeldPi;
  for (const Golden& g : {
           Golden{"c880.bench", golden_options(obd), 0xab4af0760b18a4e0ull,
                  175, 2077, 0, 0, 0, 11278, 78, 0},
           Golden{"c2670.bench", golden_options(obd), 0x879931ea3ebbcb87ull,
                  221, 5780, 48, 0, 0, 6344, 2289, 0},
           Golden{"c2670.bench",
                  golden_options(obd, ScanMode::kEnhanced, 20, true),
                  0x879931ea3ebbcb87ull, 221, 5780, 1, 47, 0, 3865, 1038, 106},
           // An unplanted abort tail: logic::array_multiplier(10).
           Golden{"mul10.bench",
                  golden_options(obd, ScanMode::kEnhanced, 20, true),
                  0x05dae9c4a8c86126ull, 133, 3930, 5, 15, 0, 903, 349, 38},
           Golden{"s1423.bench", golden_options(obd, loc),
                  0xaf7adee893c99740ull, 49, 1333, 133, 0, 0, 1292, 507, 0},
           Golden{"s1423.bench", golden_options(obd, held),
                  0x48852ea94796dae9ull, 44, 1074, 392, 0, 0, 3226, 1215, 0},
           Golden{"s344.bench", golden_options(obd, loc),
                  0xcf3ccd163478684bull, 31, 412, 69, 0, 0, 7712, 3768, 0},
           Golden{"s344.bench", golden_options(obd, held),
                  0x123c7356ada6d496ull, 30, 406, 75, 0, 0, 4475, 2154, 0},
           // Starved LOC search: every abort is a named backtrack abort.
           Golden{"s344.bench", golden_options(obd, loc, 1),
                  0x9100d5126beaea46ull, 30, 411, 0, 0, 70, 504, 144, 0},
           Golden{"c432.bench", golden_options(FaultModel::kStuck),
                  0x8adb86b04bcb0fd2ull, 24, 274, 0, 0, 0, 23, 0, 0},
           Golden{"c880.bench", golden_options(FaultModel::kTransition),
                  0x226f0d7ceeaaf794ull, 60, 510, 0, 0, 0, 2232, 0, 0},
       }) {
    const std::string what = std::string(g.file) + " " +
                             to_string(g.opt.model) + " " +
                             to_string(g.opt.scan_style) + " backtracks " +
                             std::to_string(g.opt.max_backtracks);
    const io::BenchParseResult p = io::load_bench_file(corpus(g.file));
    ASSERT_TRUE(p.ok) << p.error;
    const CampaignReport r = run_campaign(p.seq, g.opt);
    ASSERT_TRUE(r.ok()) << what << ": " << r.error;
    EXPECT_EQ(r.matrix_hash, g.matrix_hash) << what;
    EXPECT_EQ(r.tests_final, g.tests_final) << what;
    EXPECT_EQ(r.detected, g.detected) << what;
    EXPECT_EQ(r.untestable, g.untestable) << what;
    EXPECT_EQ(r.sat_untestable, g.sat_untestable) << what;
    EXPECT_EQ(r.aborted, g.aborted) << what;
    EXPECT_EQ(r.aborted_backtracks, g.aborted) << what;
    EXPECT_EQ(r.aborted_faults.size(), static_cast<std::size_t>(g.aborted))
        << what;
    EXPECT_EQ(r.sat_unknown, 0) << what;
    EXPECT_EQ(r.sat_conflicts, g.sat_conflicts) << what;
    EXPECT_EQ(metric_value(r, "atpg.podem_implications"), g.implications)
        << what;
    EXPECT_EQ(metric_value(r, "atpg.podem_backtracks"), g.backtracks) << what;
    // One histogram observation per PODEM search, summing to the counter.
    const obs::MetricValue* hist =
        find_metric(r, "atpg.podem_implications_per_fault");
    ASSERT_NE(hist, nullptr) << what;
    EXPECT_EQ(static_cast<long long>(hist->hist.sum), g.implications) << what;
    EXPECT_EQ(static_cast<long long>(hist->hist.count),
              metric_value(r, "atpg.podem_found") +
                  metric_value(r, "atpg.podem_untestable") +
                  metric_value(r, "atpg.podem_aborted"))
        << what;
  }
}

TEST(FlowCampaign, NdetectEffortIsReported) {
  // The n-detect pass re-runs PODEM over every target and fault-simulates
  // its pool. Its simulation counts in sim.* and metrics.sim.* (the cone
  // table stays the campaign's one), its search in ndetect.*, and
  // atpg.podem_* stays the top-off phase's: every other field matches the
  // same campaign without n-detect.
  const io::BenchParseResult p = io::load_bench_file(corpus("c1355.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt = golden_options(FaultModel::kObd);
  const CampaignReport plain = run_campaign(p.seq, opt);
  ASSERT_TRUE(plain.ok()) << plain.error;
  opt.ndetect = 4;
  const CampaignReport nd = run_campaign(p.seq, opt);
  ASSERT_TRUE(nd.ok()) << nd.error;
  EXPECT_GT(nd.ndetect_tests, 0);
  EXPECT_EQ(nd.matrix_hash, plain.matrix_hash);
  EXPECT_EQ(nd.tests_final, plain.tests_final);

  EXPECT_GT(nd.propagations, plain.propagations);
  EXPECT_GT(nd.frontier_gate_evals, plain.frontier_gate_evals);
  EXPECT_EQ(metric_value(nd, "sim.propagations"), nd.propagations);
  EXPECT_EQ(metric_value(nd, "sim.frontier_gate_evals"),
            nd.frontier_gate_evals);
  EXPECT_EQ(nd.cone_peak_bytes, plain.cone_peak_bytes);
  EXPECT_EQ(metric_value(nd, "sim.cone_peak_bytes"),
            static_cast<long long>(plain.cone_peak_bytes));

  for (const char* podem : {"atpg.podem_implications", "atpg.podem_backtracks"})
    EXPECT_EQ(metric_value(nd, podem), metric_value(plain, podem)) << podem;
  EXPECT_GT(metric_value(nd, "ndetect.implications"), 0);
  EXPECT_EQ(find_metric(plain, "ndetect.implications"), nullptr);
}

TEST(FlowCampaign, WallClockRowNamesCollapseAndNdetect) {
  // The summary table's wall-clock total includes collapse and n-detect, so
  // its phase list names them: collapse always, ndetect when the pass ran.
  const io::BenchParseResult p = io::load_bench_file(corpus("c1355.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  const auto wall_clock_row = [](const CampaignReport& r) {
    testing::internal::CaptureStdout();
    print_report(r);
    const std::string out = testing::internal::GetCapturedStdout();
    const std::size_t at = out.find("wall clock");
    return at == std::string::npos
               ? std::string()
               : out.substr(at, out.find('\n', at) - at);
  };
  CampaignOptions opt = golden_options(FaultModel::kObd);
  const std::string plain = wall_clock_row(run_campaign(p.seq, opt));
  opt.ndetect = 4;
  const std::string nd = wall_clock_row(run_campaign(p.seq, opt));
  EXPECT_NE(plain.find("(collapse "), std::string::npos) << plain;
  EXPECT_EQ(plain.find("ndetect"), std::string::npos) << plain;
  EXPECT_NE(nd.find("(collapse "), std::string::npos) << nd;
  EXPECT_NE(nd.find(", ndetect "), std::string::npos) << nd;
}

/// An inverter chain from one PI to one PO: a single fanout-free region
/// whose only stem is the PO.
logic::Circuit inverter_chain(int length) {
  logic::Circuit c("inv_chain");
  logic::NetId prev = c.add_input("a");
  for (int i = 0; i < length; ++i) {
    const logic::NetId n = c.net("n" + std::to_string(i));
    c.add_gate(logic::GateType::kInv, "inv" + std::to_string(i), {prev}, n);
    prev = n;
  }
  c.mark_output(prev);
  return c;
}

TEST(FlowCampaign, TotalIsTheSumOfThePhases) {
  // total is the sum of the reported phases: building the scheduler (its
  // first engine and the circuit's stem and cone tables) counts in the
  // prepass. On this chain that build once took 90% of the wall time and
  // landed in no phase.
  CampaignOptions opt;
  opt.sim.threads = 1;
  const CampaignReport r = run_campaign(inverter_chain(16000), opt);
  ASSERT_TRUE(r.ok()) << r.error;
  const PhaseTimes& t = r.time;
  const double phases = t.parse_s + t.collapse_s + t.random_s + t.atpg_s +
                        t.matrix_s + t.compact_s + t.ndetect_s;
  EXPECT_LE(t.total_s - phases, 0.005 + 0.2 * t.total_s)
      << "total " << t.total_s << " s, phases " << phases << " s";
}

TEST(FlowCampaign, DeepChainConeTableIsLinear) {
  // Only FFR stems have cones, so a 16 000-inverter chain's table is one
  // empty entry per net (a per-net table held every net's downstream chain:
  // 512 MB). The detection matrix is the same at 1 and 4 threads.
  const logic::Circuit c = inverter_chain(16000);
  CampaignOptions opt;
  opt.sim.threads = 1;
  const CampaignReport r1 = run_campaign(c, opt);
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_DOUBLE_EQ(r1.coverage, 1.0);
  EXPECT_LE(r1.cone_peak_bytes,
            c.num_nets() * (sizeof(std::vector<int>) + 2 * sizeof(int)));
  opt.sim.threads = 4;
  const CampaignReport r4 = run_campaign(c, opt);
  ASSERT_TRUE(r4.ok()) << r4.error;
  EXPECT_EQ(r4.matrix_hash, r1.matrix_hash);
  EXPECT_EQ(r4.cone_peak_bytes, r1.cone_peak_bytes);
}

TEST(FlowCampaign, ScanSequentialCampaign) {
  const io::BenchParseResult p = io::load_bench_file(corpus("s27.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  const CampaignReport r = run_campaign(p.seq);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.scan);
  EXPECT_EQ(r.flops, 3u);
  EXPECT_EQ(r.pis, 7u);  // 4 PIs + 3 pseudo-PIs
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(FlowCampaign, ObdModelDecomposesAndRuns) {
  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  const CampaignReport r = run_campaign(logic::c17(), opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.faults_total, 0u);
  EXPECT_LT(r.faults_collapsed, r.faults_total);
  EXPECT_GE(r.coverage, 0.9);
}

TEST(FlowCampaign, WideCircuitRunsPastThe64PiCeiling) {
  // 65 PIs used to be rejected outright; InputVec test vectors carry any
  // width, so the campaign must now run end to end at full coverage.
  const logic::Circuit c = logic::parity_tree(65);
  ASSERT_EQ(c.inputs().size(), 65u);
  const CampaignReport r = run_campaign(c);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.pis, 65u);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_NE(r.matrix_hash, 0u);
}

TEST(FlowCampaign, Wide141PiCampaignBitIdenticalAcrossThreads) {
  // A 141-PI adder through the whole flow (collapse -> prepass -> PODEM
  // top-off -> matrix -> compaction), hash-identical at 1/2/4 threads.
  const logic::Circuit c = logic::ripple_carry_adder(70);
  ASSERT_EQ(c.inputs().size(), 141u);
  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 1000;
  CampaignReport base;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const CampaignReport r = run_campaign(c, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.pis, 141u);
    EXPECT_GT(r.coverage, 0.95);
    if (threads == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.matrix_hash, base.matrix_hash) << threads;
    EXPECT_EQ(r.detected, base.detected);
    EXPECT_EQ(r.tests_final, base.tests_final);
  }
}

TEST(FlowCampaign, LocScanStyleRunsObdCampaign) {
  // Launch-on-capture scan mode drives the two-frame scan ATPG and still
  // produces a matrix-backed, compacted report. Enhanced scan can only be
  // better-or-equal in coverage (LOC adds the next-state constraint).
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(4);
  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.random_patterns = 128;
  opt.scan_style = ScanMode::kLaunchOnCapture;
  const CampaignReport loc = run_campaign(seq, opt);
  ASSERT_TRUE(loc.ok()) << loc.error;
  EXPECT_EQ(loc.scan_style, "launch-on-capture");
  EXPECT_GT(loc.detected, 0);
  EXPECT_GT(loc.tests_final, 0);
  EXPECT_NE(loc.matrix_hash, 0u);

  opt.scan_style = ScanMode::kEnhanced;
  const CampaignReport enh = run_campaign(seq, opt);
  ASSERT_TRUE(enh.ok()) << enh.error;
  EXPECT_EQ(enh.scan_style, "enhanced-scan");
  EXPECT_GE(enh.coverage, loc.coverage);

  // LOC results must also be thread-invariant.
  opt.scan_style = ScanMode::kLaunchOnCapture;
  opt.sim.threads = 4;
  const CampaignReport loc4 = run_campaign(seq, opt);
  ASSERT_TRUE(loc4.ok()) << loc4.error;
  EXPECT_EQ(loc4.matrix_hash, loc.matrix_hash);
  EXPECT_EQ(loc4.detected, loc.detected);
}

TEST(FlowCampaign, LocScanStyleRejectsNonObdModels) {
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(2);
  CampaignOptions opt;
  opt.model = FaultModel::kStuck;
  opt.scan_style = ScanMode::kLaunchOnCapture;
  const CampaignReport r = run_campaign(seq, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("obd"), std::string::npos) << r.error;
}

TEST(FlowCampaign, UndrivenReadNetIsRejected) {
  // u is read by the NAND but is neither a PI nor driven. The fault
  // simulator would read it as 0 and detect u/sa1; the legacy simulators,
  // eval3 and PODEM never set it. Every model refuses the circuit by name.
  logic::Circuit c("undriven");
  const NetId a = c.add_input("a");
  const NetId u = c.net("u");
  const NetId y = c.net("y");
  c.add_gate(logic::GateType::kNand2, "g", {a, u}, y);
  c.mark_output(y);
  for (const FaultModel model :
       {FaultModel::kStuck, FaultModel::kTransition, FaultModel::kObd}) {
    CampaignOptions opt;
    opt.model = model;
    const CampaignReport r = run_campaign(c, opt);
    EXPECT_FALSE(r.ok()) << to_string(model);
    EXPECT_NE(r.error.find("net 'u'"), std::string::npos) << r.error;
  }
  // A sequential core's undriven present-state net is a PI of its scan
  // view, so a scan design stays legal.
  logic::SequentialCircuit seq(c);
  seq.add_flop("ff", u, y);
  for (const ScanMode style :
       {ScanMode::kEnhanced, ScanMode::kLaunchOnCapture}) {
    CampaignOptions opt;
    opt.model = FaultModel::kObd;
    opt.scan_style = style;
    const CampaignReport r = run_campaign(seq, opt);
    EXPECT_TRUE(r.ok()) << to_string(style) << ": " << r.error;
  }
}

TEST(FlowCampaign, ReportJsonWellFormed) {
  const CampaignReport r = run_campaign(logic::c17());
  const std::string j = report_json(r);
  for (const char* key :
       {"\"circuit\"", "\"model\"", "\"coverage\"", "\"matrix_hash\"",
        "\"threads\"", "\"total\"", "\"collapsed\""})
    EXPECT_NE(j.find(key), std::string::npos) << key;
  // Balanced braces and a trailing newline: cheap structural sanity that
  // catches truncated writes (CI validates with a real JSON parser).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(j.back(), '\n');
}

TEST(StuckCollapse, ClassesShareDetectionColumns) {
  // Soundness of the structural equivalence: every fault of a class must
  // be detected by exactly the same tests (checked against the legacy
  // scalar simulator, which knows nothing about collapsing).
  for (const logic::Circuit& c :
       {logic::c17(), logic::parity_tree(8), logic::alu_bit_slice()}) {
    const auto faults = enumerate_stuck_faults(c);
    const CollapsedStuck col = collapse_stuck_faults(c, faults);
    ASSERT_EQ(col.class_of.size(), faults.size());
    EXPECT_LT(col.representatives.size(), faults.size());
    const auto tests = random_pairs(static_cast<int>(c.inputs().size()), 64,
                                    0xc0117a5e);
    for (const auto& t : tests) {
      const auto det = legacy::simulate_stuck_at(c, t.v2, faults);
      // Per class: all members agree with the representative.
      for (std::size_t f = 0; f < faults.size(); ++f) {
        const StuckFault& rep = col.representatives[col.class_of[f]];
        std::size_t rep_idx = 0;
        for (std::size_t k = 0; k < faults.size(); ++k)
          if (faults[k] == rep) { rep_idx = k; break; }
        EXPECT_EQ(det[f], det[rep_idx])
            << c.name() << " fault " << f << " vs rep " << rep_idx;
      }
    }
  }
}

TEST(StuckCollapse, InverterChainCollapsesToTwoClasses) {
  // A fanout-free inverter chain is one equivalence chain per polarity:
  // 2*(n+1) net faults collapse to exactly 2 representatives.
  logic::Circuit c("chain");
  logic::NetId prev = c.add_input("a");
  for (int i = 0; i < 4; ++i) {
    const logic::NetId nxt = c.net("n" + std::to_string(i));
    c.add_gate(logic::GateType::kInv, "inv" + std::to_string(i), {prev}, nxt);
    prev = nxt;
  }
  c.mark_output(prev);
  const auto faults = enumerate_stuck_faults(c);
  ASSERT_EQ(faults.size(), 10u);
  const CollapsedStuck col = collapse_stuck_faults(c, faults);
  EXPECT_EQ(col.representatives.size(), 2u);
  EXPECT_DOUBLE_EQ(col.reduction(), 0.8);
}

}  // namespace
}  // namespace obd::flow

// Sec. 5 complexity claim: "for combinational circuits, test pattern
// generation for OBD defects is of the same computational complexity as for
// stuck-at faults".
//
// We time stuck-at, transition and OBD ATPG over growing ripple-carry
// adders and parity trees, reporting per-fault effort (backtracks and
// implications). OBD cost tracks the stuck-at/transition trend (a constant
// small factor for the two frames), not a different complexity class.
// The bit-parallel engine comparison below (and BENCH_atpg_scale.json)
// tracks the fault-simulation hot path: legacy one-fault-one-pattern
// full-circuit evaluation vs the engine on multi-lane pattern blocks (64
// lanes, plus the 256-lane LaneBlock SIMD width) with event-driven frontier
// propagation, and the scheduler's fault-dropping campaign, at identical
// coverage. The sched section sweeps threads (the scheduler sizes each
// call's blocks); the c7552 rows are the regression sentinel for the
// wide-tier cliff this engine exists to kill.
#include "bench_common.hpp"
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <memory>
#include <thread>
#include <utility>

#include "atpg/atpg.hpp"
#include "flow/campaign.hpp"
#include "io/bench.hpp"
#include "logic/logic.hpp"
#include "obs/trace.hpp"
#include "util/crc32c.hpp"
#include "util/io.hpp"

namespace {

using namespace obd;
using namespace obd::atpg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adaptive min-of-N, the repetition rule of the engine and overhead rows:
/// `round` runs at least 10 times, then until `settled()` holds, at most 40
/// times. Rep noise is one-sided (a rep is only ever slower than the
/// quiet-host time), so more rounds only move a min toward the quiet time,
/// and a round that landed on a busy window gets retried instead of shipped.
/// A round samples every timer it compares once, so the timers' mins
/// sample the same windows.
template <typename Round, typename Settled>
void adaptive_rounds(Round round, Settled settled) {
  for (int n = 1; n <= 40; ++n) {
    round();
    if (n >= 10 && settled()) return;
  }
}

/// Lowers `best` to the wall time of one fn() call.
template <typename Fn>
void time_min(double& best, Fn fn) {
  const auto t0 = Clock::now();
  fn();
  best = std::min(best, seconds_since(t0));
}

struct SimComparison {
  std::string circuit;
  std::size_t gates = 0;
  std::size_t faults = 0;
  std::size_t patterns = 0;
  double legacy_s = 0.0;
  double block_s = 0.0;       // engine on 64-lane blocks
  double block_wide_s = 0.0;  // engine on 256-lane blocks (LaneBlock kernels)
  double drop_s = 0.0;
  int legacy_detected = 0;
  int block_detected = 0;

  double legacy_throughput() const {
    return static_cast<double>(faults * patterns) / legacy_s;
  }
  double block_throughput() const {
    return static_cast<double>(faults * patterns) / block_s;
  }
  double wide_throughput() const {
    return static_cast<double>(faults * patterns) / block_wide_s;
  }
  double speedup() const { return legacy_s / block_s; }
  double wide_speedup() const { return legacy_s / block_wide_s; }
  double drop_speedup() const { return legacy_s / drop_s; }
};

/// Corpus ISCAS circuits (bench/circuits/), lowered to the primitive-gate
/// netlist the OBD model needs; sequential designs come in as their
/// full-scan view. These are the "real workload" rows of the perf
/// trajectory, next to the synthetic zoo.
std::vector<logic::Circuit> iscas_circuits(bool wide = false) {
  std::vector<logic::Circuit> out;
  const std::vector<const char*> narrow = {"c432.bench", "c880.bench",
                                           "c1355.bench", "s344.bench"};
  // The wide tier exceeds 64 PIs (233/207 PIs, a 74-flop scan chain) and
  // exercises the multi-word InputVec vector path.
  const std::vector<const char*> widef = {"c2670.bench", "c7552.bench",
                                          "s1423.bench"};
  for (const char* f : wide ? widef : narrow) {
    const io::BenchParseResult r =
        io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/" + f);
    if (!r.ok) {
      std::fprintf(stderr, "corpus %s: %s\n", f, r.error.c_str());
      continue;
    }
    const logic::Circuit view =
        r.seq.flops().empty() ? r.circuit() : r.seq.scan_view();
    out.push_back(logic::decompose_composites(view));
  }
  return out;
}

/// Faults `blocks` detect, simulated on one engine directly: no scheduler,
/// so the block width is the caller's.
int engine_detected(FaultSimEngine& e, const std::vector<PatternBlock>& blocks,
                    const std::vector<ObdFaultSite>& faults) {
  std::vector<std::uint8_t> hit(faults.size(), 0);
  std::vector<std::uint64_t> detect;
  for (const PatternBlock& b : blocks) {
    e.block_obd(b, faults, detect);
    const auto W = static_cast<std::size_t>(b.lane_words());
    for (std::size_t f = 0; f < faults.size(); ++f)
      for (std::size_t w = 0; w < W; ++w) hit[f] |= detect[f * W + w] != 0;
  }
  return static_cast<int>(std::count(hit.begin(), hit.end(), 1));
}

/// Times legacy scalar vs pattern blocks over each circuit's OBD fault list
/// and test set (`n_tests` random pairs): the legacy simulator once, then
/// the engine on 1- and 4-word blocks (64 and 256 lanes, packing included)
/// and a 1-thread scheduler's fault-dropping campaign. The engine timers run
/// in adaptive rounds that visit every circuit, settled once the rounds span
/// 3 s, so each row's min samples the whole table's span: a shared host's
/// slow periods can last seconds, longer than one row's reps would. The
/// first round also warms the cone tables and page tables.
std::vector<SimComparison> compare_obd_sim(
    const std::vector<std::pair<logic::Circuit, int>>& circuits) {
  struct Setup {
    std::vector<ObdFaultSite> faults;
    std::vector<TwoVectorTest> tests;
    std::unique_ptr<FaultSimEngine> engine;
    std::unique_ptr<FaultSimScheduler> sched;
    bool mismatch = false;
  };
  std::vector<SimComparison> rows(circuits.size());
  std::vector<Setup> setups(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const auto& [c, n_tests] = circuits[i];
    SimComparison& r = rows[i];
    Setup& u = setups[i];
    r.circuit = c.name();
    r.gates = c.num_gates();
    u.faults = enumerate_obd_faults(c);
    r.faults = u.faults.size();
    u.tests =
        random_pairs(static_cast<int>(c.inputs().size()), n_tests, 0xca11ab1e);
    r.patterns = u.tests.size();
    const auto t0 = Clock::now();
    std::vector<bool> covered(u.faults.size(), false);
    for (const auto& t : u.tests) {
      const auto det = legacy::simulate_obd(c, t, u.faults);
      for (std::size_t f = 0; f < u.faults.size(); ++f)
        if (det[f] && !covered[f]) {
          covered[f] = true;
          ++r.legacy_detected;
        }
    }
    r.legacy_s = seconds_since(t0);
    u.engine = std::make_unique<FaultSimEngine>(c);
    u.sched = std::make_unique<FaultSimScheduler>(c, SimOptions{1});
    r.block_s = r.block_wide_s = r.drop_s = 1e300;
  }
  const auto t_start = Clock::now();
  adaptive_rounds(
      [&] {
        for (std::size_t i = 0; i < circuits.size(); ++i) {
          const logic::Circuit& c = circuits[i].first;
          SimComparison& r = rows[i];
          Setup& u = setups[i];
          int wide = 0, dropped = 0;
          time_min(r.block_s, [&] {
            r.block_detected = engine_detected(
                *u.engine, PatternBlock::pack(c, u.tests, 1), u.faults);
          });
          time_min(r.block_wide_s, [&] {
            wide = engine_detected(*u.engine, PatternBlock::pack(c, u.tests, 4),
                                   u.faults);
          });
          time_min(r.drop_s, [&] {
            dropped = u.sched->campaign_obd(u.tests, u.faults).detected;
          });
          u.mismatch |= wide != r.block_detected || dropped != r.block_detected;
        }
      },
      [&] { return seconds_since(t_start) >= 3.0; });
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (setups[i].mismatch) rows[i].block_detected = -1;
  return rows;
}

/// PODEM-only vs PODEM + SAT top-off on the wide corpus tier: same OBD
/// campaign at a deliberately tight backtrack budget, once leaving the
/// abort tail open and once escalating it to the CDCL backend.
struct SatRow {
  std::string circuit;
  long backtracks = 0;
  std::size_t faults = 0;  // collapsed representatives
  int podem_aborted = 0;
  int sat_detected = 0;
  int sat_untestable = 0;
  int sat_unknown = 0;
  long long sat_conflicts = 0;
  double podem_s = 0.0;          // PODEM-only campaign wall time
  double sat_s = 0.0;            // PODEM + SAT top-off wall time
  double podem_provable = 0.0;   // provable_coverage, abort tail open
  double sat_provable = 0.0;     // provable_coverage after escalation
};

/// Disabled-instrumentation cost check: the same c7552 block-throughput
/// measurement twice with tracing off (their spread brackets host noise)
/// and once with the trace recorder live. CI gates on off-spread <= 2%:
/// the metrics sheets are always on, so if instrumentation cost anything
/// measurable it would show up as a stable off-vs-off regression against
/// the checked-in trajectory, and the traced column shows the (accepted,
/// bounded) price of recording spans.
struct ObsOverheadRow {
  std::string circuit;
  std::size_t faults = 0;
  std::size_t patterns = 0;
  double off_a_s = 0.0;   ///< min tracing-off time, first rep of each round
  double off_b_s = 0.0;   ///< min tracing-off time, second rep of each round
  double traced_s = 0.0;  ///< min tracing-on time
  /// Off-vs-off min disagreement, as a percentage — the noise bracket the
  /// 2% CI gate rides on. The two off series interleave with each other
  /// (and with the traced series) round by round, so both mins sample the
  /// same quiet windows and the bracket stays tight on shared runners.
  double spread_pct = 0.0;
  /// Traced-min vs off-min, as a percentage: the recording cost.
  double traced_overhead_pct = 0.0;
  long long traced_events = 0;
};

struct SchedRow {
  std::string circuit;
  int threads = 0;
  int workers = 0;  // the matrix's workers (FaultSimScheduler::pattern_workers)
  std::size_t faults = 0;
  std::size_t patterns = 0;
  double secs = 0.0;
  double fps = 0.0;      // fault x patterns / sec
  double speedup = 0.0;  // vs the 1-thread baseline
  bool identical = false;
};

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// The measurement rows as JSON text — the byte string the embedded
/// CRC-32C covers, so a truncated or hand-edited trajectory file is
/// detectable (verify: crc32c of everything from `  "circuits"` to the
/// closing `  ]` of "observability_overhead", inclusive of the trailing
/// newline).
std::string rows_json(const std::vector<SimComparison>& rows,
                      const std::vector<SchedRow>& sched,
                      const std::vector<SatRow>& sat,
                      const std::vector<ObsOverheadRow>& obs) {
  std::string out = "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimComparison& r = rows[i];
    appendf(
        out,
        "    {\"name\": \"%s\", \"gates\": %zu, \"obd_faults\": %zu, "
        "\"patterns\": %zu, \"detected\": %d, \"coverage_match\": %s, "
        "\"legacy_fps\": %.4g, \"engine_fps\": %.4g, \"engine256_fps\": %.4g, "
        "\"engine_speedup\": %.4g, \"engine256_speedup\": %.4g, "
        "\"drop_speedup\": %.4g}%s\n",
        r.circuit.c_str(), r.gates, r.faults, r.patterns, r.block_detected,
        r.legacy_detected == r.block_detected ? "true" : "false",
        r.legacy_throughput(), r.block_throughput(), r.wide_throughput(),
        r.speedup(), r.wide_speedup(), r.drop_speedup(),
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ],\n  \"sched\": [\n";
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const SchedRow& r = sched[i];
    appendf(
        out,
        "    {\"name\": \"%s\", \"threads\": %d, \"workers\": %d, "
        "\"obd_faults\": %zu, \"patterns\": %zu, \"fps\": %.4g, "
        "\"speedup_vs_1t\": %.4g, \"identical\": %s}%s\n",
        r.circuit.c_str(), r.threads, r.workers, r.faults, r.patterns, r.fps,
        r.speedup, r.identical ? "true" : "false",
        i + 1 < sched.size() ? "," : "");
  }
  out += "  ],\n  \"sat_escalation\": [\n";
  for (std::size_t i = 0; i < sat.size(); ++i) {
    const SatRow& r = sat[i];
    appendf(
        out,
        "    {\"name\": \"%s\", \"backtracks\": %ld, \"faults\": %zu, "
        "\"podem_aborted\": %d, \"sat_detected\": %d, \"sat_untestable\": %d, "
        "\"sat_unknown\": %d, \"sat_conflicts\": %lld, \"podem_s\": %.4g, "
        "\"sat_s\": %.4g, \"podem_provable\": %.6g, \"sat_provable\": %.6g}%s\n",
        r.circuit.c_str(), r.backtracks, r.faults, r.podem_aborted,
        r.sat_detected, r.sat_untestable, r.sat_unknown, r.sat_conflicts,
        r.podem_s, r.sat_s, r.podem_provable, r.sat_provable,
        i + 1 < sat.size() ? "," : "");
  }
  out += "  ],\n  \"observability_overhead\": [\n";
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const ObsOverheadRow& r = obs[i];
    appendf(
        out,
        "    {\"name\": \"%s\", \"obd_faults\": %zu, \"patterns\": %zu, "
        "\"off_a_s\": %.4g, \"off_b_s\": %.4g, \"traced_s\": %.4g, "
        "\"spread_pct\": %.4g, \"traced_overhead_pct\": %.4g, "
        "\"traced_events\": %lld}%s\n",
        r.circuit.c_str(), r.faults, r.patterns, r.off_a_s, r.off_b_s,
        r.traced_s, r.spread_pct, r.traced_overhead_pct, r.traced_events,
        i + 1 < obs.size() ? "," : "");
  }
  out += "  ]\n";
  return out;
}

/// Writes the trajectory JSON (atomically — a killed bench run must not
/// leave a torn half-file where a checked-in trajectory used to be) to the
/// working directory and, when built in-tree, to the repo root where
/// BENCH_atpg_scale.json lives.
void emit_json(const std::vector<SimComparison>& rows,
               const std::vector<SchedRow>& sched,
               const std::vector<SatRow>& sat,
               const std::vector<ObsOverheadRow>& obs) {
  const std::string body = rows_json(rows, sched, sat, obs);
  std::string doc = "{\n  \"bench\": \"atpg_scale_faultsim\",\n"
                    "  \"unit\": \"fault_patterns_per_sec\",\n";
  // Where the rows were measured. Kept outside the CRC body: the checksum
  // guards the measurements, not the host they came from.
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
#ifdef __AVX2__
  const char* avx2 = "true";
#else
  const char* avx2 = "false";
#endif
  appendf(doc,
          "  \"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
          "\"build_type\": \"%s\", \"git_sha\": \"%s\", "
          "\"ndebug\": %s, \"avx2\": %s},\n",
          std::thread::hardware_concurrency(), __VERSION__, OBD_BUILD_TYPE,
          OBD_GIT_SHA, ndebug, avx2);
  appendf(doc, "  \"rows_crc32c\": \"%08x\",\n", obd::util::crc32c(body));
  doc += body;
  doc += "}\n";

  std::vector<std::string> paths = {"BENCH_atpg_scale.json"};
#ifdef OBD_REPO_ROOT
  paths.push_back(std::string(OBD_REPO_ROOT) + "/BENCH_atpg_scale.json");
#endif
  for (const std::string& p : paths) {
    std::string err;
    if (!obd::util::write_file_atomic(p, doc, &err))
      std::fprintf(stderr, "%s: %s\n", p.c_str(), err.c_str());
  }
}

/// Scheduler scaling: threads over the largest zoo circuits and the corpus,
/// with every configuration's DetectionMatrix checked bit-identical against
/// the 1-thread baseline. Every circuit gets 1 024 tests (16 64-lane
/// blocks), which puts c2670 and c7552 past the matrix's worker gate (2^15
/// gates x blocks) and the smaller circuits below it, so the table times
/// both sides of the gate; the workers column says which side a row is on. Each (circuit, threads) row keeps its scheduler,
/// warmed by one untimed call so every engine the call uses exists before
/// the clock starts; the rows are then timed once per adaptive round, so a
/// row's min and its 1-thread baseline's sample the same span of the host.
std::vector<SchedRow> reproduce_scheduler_scale() {
  std::printf(
      "=== Scheduler scaling: threads (OBD detection matrix) ===\n\n");
  std::vector<logic::Circuit> circuits;
  circuits.push_back(logic::array_multiplier(4));
  circuits.push_back(logic::array_multiplier(6));
  for (auto& c : iscas_circuits()) circuits.push_back(std::move(c));
  for (auto& c : iscas_circuits(/*wide=*/true)) circuits.push_back(std::move(c));

  struct Setup {
    std::vector<ObdFaultSite> faults;
    std::vector<TwoVectorTest> tests;
  };
  struct Timed {
    const Setup* setup = nullptr;
    std::unique_ptr<FaultSimScheduler> sched;
    std::size_t baseline = 0;  // index of the circuit's 1-thread row
  };
  std::vector<Setup> setups(circuits.size());
  std::vector<SchedRow> rows;
  std::vector<Timed> timed;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const logic::Circuit& c = circuits[i];
    Setup& u = setups[i];
    u.faults = enumerate_obd_faults(c);
    u.tests =
        random_pairs(static_cast<int>(c.inputs().size()), 1024, 0xca11ab1e);
    const std::size_t baseline = rows.size();
    DetectionMatrix base_m;
    for (const int threads : {1, 2, 4}) {
      Timed t{&u, std::make_unique<FaultSimScheduler>(c, SimOptions{threads}),
              baseline};
      const DetectionMatrix m = t.sched->matrix_obd(u.tests, u.faults);
      if (threads == 1) base_m = m;
      SchedRow row;
      row.circuit = c.name();
      row.threads = threads;
      row.workers = t.sched->pattern_workers(u.tests.size() /
                                             PatternBlock::kLanes);
      row.faults = u.faults.size();
      row.patterns = u.tests.size();
      row.secs = 1e300;
      row.identical = m.rows == base_m.rows &&
                      m.covered_count == base_m.covered_count;
      rows.push_back(row);
      timed.push_back(std::move(t));
    }
  }
  const auto t_start = Clock::now();
  adaptive_rounds(
      [&] {
        for (std::size_t r = 0; r < rows.size(); ++r) {
          const Setup& u = *timed[r].setup;
          time_min(rows[r].secs, [&] {
            benchmark::DoNotOptimize(
                timed[r].sched->matrix_obd(u.tests, u.faults).covered_count);
          });
        }
      },
      [&] { return seconds_since(t_start) >= 3.0; });

  util::AsciiTable t("scheduler throughput (fault x patterns / sec)");
  t.set_header({"circuit", "faults", "tests", "threads", "workers", "fps",
                "speedup", "identical"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    SchedRow& row = rows[r];
    row.fps = static_cast<double>(row.faults * row.patterns) / row.secs;
    row.speedup = rows[timed[r].baseline].secs / row.secs;
    t.add_row({row.circuit, std::to_string(row.faults),
               std::to_string(row.patterns), std::to_string(row.threads),
               std::to_string(row.workers), util::format_g(row.fps, 3),
               util::format_g(row.speedup, 3) + "x",
               row.identical ? "yes" : "NO"});
  }
  t.print();
  std::printf(
      "a matrix on one worker packs up to 512 lanes per block (the LaneBlock\n"
      "SIMD kernels); on several workers, the widest blocks that still give\n"
      "each worker a full one. Detection matrices are bit-identical across\n"
      "every row; below 2^15 gates x 64-lane blocks a matrix runs on one\n"
      "worker at any thread count, so those rows time the same call.\n\n");
  return rows;
}

/// SAT top-off of the PODEM abort tail at a tight backtrack budget,
/// PODEM-only vs PODEM + CDCL escalation: c2670's planted redundant block
/// and mul10's unplanted tail. The SAT rows
/// must close every backtrack abort (cube or untestability proof) — the
/// "sat unk" column is the regression sentinel for the conflict budget.
std::vector<SatRow> reproduce_sat_escalation() {
  std::printf(
      "=== SAT escalation: PODEM abort tail vs CDCL top-off (OBD model) "
      "===\n\n");
  std::vector<SatRow> rows;
  const struct {
    const char* file;
    long backtracks;
  } specs[] = {{"c2670.bench", 20}, {"mul10.bench", 20}};

  util::AsciiTable t("PODEM-only vs PODEM + SAT top-off");
  t.set_header({"circuit", "faults", "bt", "aborts", "sat det", "sat unt",
                "sat unk", "conflicts", "podem s", "sat s", "provable"});
  for (const auto& spec : specs) {
    const io::BenchParseResult pr =
        io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/" + spec.file);
    if (!pr.ok) {
      std::fprintf(stderr, "corpus %s: %s\n", spec.file, pr.error.c_str());
      continue;
    }
    flow::CampaignOptions opt;
    opt.model = flow::FaultModel::kObd;
    opt.max_backtracks = spec.backtracks;
    opt.sim.threads = 2;
    SatRow row;
    row.circuit = pr.circuit().name();
    row.backtracks = spec.backtracks;

    const auto t0 = Clock::now();
    const flow::CampaignReport podem = flow::run_campaign(pr.seq, opt);
    row.podem_s = seconds_since(t0);

    opt.sat_escalate = true;
    const auto t1 = Clock::now();
    const flow::CampaignReport sat = flow::run_campaign(pr.seq, opt);
    row.sat_s = seconds_since(t1);

    row.faults = podem.faults_collapsed;
    row.podem_aborted = podem.aborted;
    row.sat_detected = sat.sat_detected;
    row.sat_untestable = sat.sat_untestable;
    row.sat_unknown = sat.sat_unknown;
    row.sat_conflicts = sat.sat_conflicts;
    row.podem_provable = podem.provable_coverage;
    row.sat_provable = sat.provable_coverage;
    rows.push_back(row);
    t.add_row({row.circuit, std::to_string(row.faults),
               std::to_string(row.backtracks),
               std::to_string(row.podem_aborted),
               std::to_string(row.sat_detected),
               std::to_string(row.sat_untestable),
               std::to_string(row.sat_unknown),
               std::to_string(row.sat_conflicts),
               util::format_g(row.podem_s, 3), util::format_g(row.sat_s, 3),
               util::format_g(row.podem_provable, 4) + " -> " +
                   util::format_g(row.sat_provable, 4)});
  }
  t.print();
  std::printf(
      "same campaign twice: the tight backtrack budget leaves PODEM with an\n"
      "abort tail; --sat-escalate resolves each abort inline into a\n"
      "validated cube or an untestability proof, lifting provable coverage\n"
      "to the exact redundancy-aware bound at a sub-linear wall-time cost.\n\n");
  return rows;
}

/// Tracing-off overhead guard on the wide-tier sentinel (c7552): block
/// matrix throughput with the recorder dark, twice, then lit once.
std::vector<ObsOverheadRow> reproduce_obs_overhead() {
  std::printf(
      "=== Observability overhead: c7552 block throughput, tracing off/on "
      "===\n\n");
  std::vector<ObsOverheadRow> rows;
  const io::BenchParseResult pr =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c7552.bench");
  if (!pr.ok) {
    std::fprintf(stderr, "corpus c7552.bench: %s\n", pr.error.c_str());
    return rows;
  }
  const logic::Circuit c = logic::decompose_composites(pr.circuit());
  const auto faults = enumerate_obd_faults(c);
  // 8192 patterns: long enough (~100 ms per sample on a 4-core Xeon) that
  // thread-scheduling jitter stays well inside the 2% gate at the min.
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 8192, 0xca11ab1e);

  ObsOverheadRow row;
  row.circuit = c.name();
  row.faults = faults.size();
  row.patterns = tests.size();
  // Single-threaded, interleaved off/off/traced rounds, min per
  // configuration. One thread because the gate measures instrumentation
  // cost, not scheduling: thread-scheduling jitter would swamp a 2% gate no
  // matter the estimator. Rep noise is one-sided (a rep is only ever slower
  // than the quiet-host time), so the min over interleaved rounds converges
  // to comparable quiet-window times for all three configurations.
  FaultSimScheduler sched(c, {1});
  const auto sample = [&] {
    benchmark::DoNotOptimize(sched.matrix_obd(tests, faults).covered_count);
  };
  sample();  // warm-up: excitation tables and first-touch pages off the clock
  const auto spread_of = [](double a, double b) {
    return (std::max(a, b) / std::min(a, b) - 1.0) * 100.0;
  };
  // Settled once the two off mins agree to well under the gate.
  row.off_a_s = row.off_b_s = row.traced_s = 1e300;
  adaptive_rounds(
      [&] {
        time_min(row.off_a_s, sample);
        time_min(row.off_b_s, sample);
        obs::Recorder::instance().enable(0, "bench");
        time_min(row.traced_s, sample);
        obs::Recorder::instance().disable();
      },
      [&] { return spread_of(row.off_a_s, row.off_b_s) <= 0.75; });
  row.spread_pct = spread_of(row.off_a_s, row.off_b_s);
  row.traced_overhead_pct =
      (row.traced_s / std::min(row.off_a_s, row.off_b_s) - 1.0) * 100.0;
  row.traced_events =
      static_cast<long long>(obs::Recorder::instance().event_count());
  obs::Recorder::instance().clear();
  rows.push_back(row);

  util::AsciiTable t("instrumentation cost (c7552 OBD matrix, 1 thread)");
  t.set_header({"circuit", "faults", "tests", "off a", "off b", "traced",
                "spread", "traced ovh"});
  t.add_row({row.circuit, std::to_string(row.faults),
             std::to_string(row.patterns), util::format_g(row.off_a_s, 3),
             util::format_g(row.off_b_s, 3), util::format_g(row.traced_s, 3),
             util::format_g(row.spread_pct, 3) + "%",
             util::format_g(row.traced_overhead_pct, 3) + "%"});
  t.print();
  std::printf(
      "metrics sheets are always on (cached-slot increments, the same cost\n"
      "as the member counters they replaced); the off-vs-off spread brackets\n"
      "host noise and CI gates it at 2%%. The traced column prices actual\n"
      "span recording.\n\n");
  return rows;
}

void reproduce_faultsim_scale() {
  std::printf(
      "=== Bit-parallel fault simulation: legacy scalar vs multi-lane "
      "blocks ===\n\n");
  std::vector<std::pair<logic::Circuit, int>> circuits;
  circuits.emplace_back(logic::full_adder_sum_circuit(), 512);
  circuits.emplace_back(logic::ripple_carry_adder(8), 256);
  circuits.emplace_back(logic::ripple_carry_adder(16), 256);
  circuits.emplace_back(logic::parity_tree(16), 256);
  circuits.emplace_back(logic::array_multiplier(4), 256);
  // ISCAS corpus rows: the legacy baseline pays a full-circuit evaluation
  // per (fault, test), so the test budget is smaller on these — and smaller
  // still on the wide (>64 PI) tier, whose fault lists are several times
  // larger.
  for (auto& c : iscas_circuits()) circuits.emplace_back(std::move(c), 128);
  for (auto& c : iscas_circuits(/*wide=*/true))
    circuits.emplace_back(std::move(c), 32);
  const std::vector<SimComparison> rows = compare_obd_sim(circuits);

  util::AsciiTable t("OBD fault-sim throughput (fault x patterns / sec)");
  t.set_header({"circuit", "gates", "faults", "tests", "cov ok", "legacy",
                "engine64", "x64", "x256", "w/ dropping"});
  for (const auto& r : rows) {
    t.add_row({r.circuit, std::to_string(r.gates), std::to_string(r.faults),
               std::to_string(r.patterns),
               r.legacy_detected == r.block_detected ? "yes" : "NO",
               util::format_g(r.legacy_throughput(), 3),
               util::format_g(r.block_throughput(), 3),
               util::format_g(r.speedup(), 3) + "x",
               util::format_g(r.wide_speedup(), 3) + "x",
               util::format_g(r.drop_speedup(), 3) + "x"});
  }
  t.print();
  std::printf(
      "identical detections, one good evaluation per pattern block, and\n"
      "event-driven frontier propagation per fault (engine alone; x256 =\n"
      "256-lane SIMD blocks); the scheduler's fault dropping then removes\n"
      "covered faults from later blocks.\n\n");
  const std::vector<SchedRow> sched_rows = reproduce_scheduler_scale();
  const std::vector<SatRow> sat_rows = reproduce_sat_escalation();
  const std::vector<ObsOverheadRow> obs_rows = reproduce_obs_overhead();
  emit_json(rows, sched_rows, sat_rows, obs_rows);
  std::printf(
      "JSON (provenance + circuits + sched + sat_escalation + "
      "observability_overhead rows): BENCH_atpg_scale.json\n\n");
}

struct Effort {
  double ms_per_fault = 0.0;
  double implications_per_fault = 0.0;
  int found = 0;
  int untestable = 0;
  int aborted = 0;
};

template <typename RunFn, typename FaultList>
Effort measure(RunFn run, const FaultList& faults) {
  const auto t0 = Clock::now();
  const AtpgRun r = run();
  const auto t1 = Clock::now();
  Effort e;
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double n = static_cast<double>(faults.size());
  e.ms_per_fault = ms / n;
  e.implications_per_fault =
      static_cast<double>(r.total_implications) / n;
  e.found = r.found;
  e.untestable = r.untestable;
  e.aborted = r.aborted;
  return e;
}

void reproduce() {
  std::printf(
      "=== Sec. 5: OBD TPG complexity tracks stuck-at TPG ===\n\n");

  util::AsciiTable t("per-fault ATPG effort");
  t.set_header({"circuit", "gates", "faults sa/tr/obd", "sa ms", "tr ms",
                "obd ms", "sa impl", "tr impl", "obd impl", "aborted"});
  std::vector<logic::Circuit> circuits;
  circuits.push_back(logic::ripple_carry_adder(2));
  circuits.push_back(logic::ripple_carry_adder(4));
  circuits.push_back(logic::ripple_carry_adder(8));
  circuits.push_back(logic::parity_tree(8));
  circuits.push_back(logic::parity_tree(16));
  for (const auto& c : circuits) {
    const auto sf = enumerate_stuck_faults(c);
    const auto tf = enumerate_transition_faults(c);
    const auto of = enumerate_obd_faults(c);
    const Effort es = measure([&] { return run_stuck_at_atpg(c, sf); }, sf);
    const Effort et = measure([&] { return run_transition_atpg(c, tf); }, tf);
    const Effort eo = measure([&] { return run_obd_atpg(c, of); }, of);
    t.add_row({c.name(), std::to_string(c.num_gates()),
               std::to_string(sf.size()) + "/" + std::to_string(tf.size()) +
                   "/" + std::to_string(of.size()),
               util::format_g(es.ms_per_fault, 3),
               util::format_g(et.ms_per_fault, 3),
               util::format_g(eo.ms_per_fault, 3),
               util::format_g(es.implications_per_fault, 3),
               util::format_g(et.implications_per_fault, 3),
               util::format_g(eo.implications_per_fault, 3),
               std::to_string(es.aborted + et.aborted + eo.aborted)});
  }
  t.print();
  std::printf(
      "paper: OBD TPG adds only the second (justification) frame and the\n"
      "gate-input pinning to the stuck-at search - a constant factor, not\n"
      "a complexity-class change. The per-fault effort columns grow at the\n"
      "same rate across the three models as circuits scale.\n\n");
}

void BM_ObdAtpgRca4(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_obd_faults(c);
  for (auto _ : state) {
    const AtpgRun r = run_obd_atpg(c, faults);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_ObdAtpgRca4)->Unit(benchmark::kMillisecond);

void BM_StuckAtpgRca4(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_stuck_faults(c);
  for (auto _ : state) {
    const AtpgRun r = run_stuck_at_atpg(c, faults);
    benchmark::DoNotOptimize(r.found);
  }
}
BENCHMARK(BM_StuckAtpgRca4)->Unit(benchmark::kMillisecond);

void BM_BitParallelFaultSim(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(8);
  std::vector<std::uint64_t> pi(c.inputs().size(), 0xAAAA5555CCCC3333ull);
  for (auto _ : state) {
    const auto words = c.eval_words(pi);
    benchmark::DoNotOptimize(words.back());
  }
}
BENCHMARK(BM_BitParallelFaultSim);

void BM_ObdFaultSimLegacy(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(8);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 128, 0xca11ab1e);
  for (auto _ : state) {
    int detected = 0;
    for (const auto& t : tests)
      for (bool d : legacy::simulate_obd(c, t, faults)) detected += d;
    benchmark::DoNotOptimize(detected);
  }
}
BENCHMARK(BM_ObdFaultSimLegacy)->Unit(benchmark::kMillisecond);

void BM_ObdFaultSimBlocks(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(8);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 128, 0xca11ab1e);
  FaultSimScheduler sched(c, {1});
  for (auto _ : state) {
    const DetectionMatrix m = sched.matrix_obd(tests, faults);
    benchmark::DoNotOptimize(m.covered_count);
  }
}
BENCHMARK(BM_ObdFaultSimBlocks)->Unit(benchmark::kMillisecond);

void BM_ObdFaultSimBlocksDropping(benchmark::State& state) {
  const logic::Circuit c = logic::ripple_carry_adder(8);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 128, 0xca11ab1e);
  FaultSimScheduler sched(c, {1});
  for (auto _ : state) {
    const auto campaign = sched.campaign_obd(tests, faults);
    benchmark::DoNotOptimize(campaign.detected);
  }
}
BENCHMARK(BM_ObdFaultSimBlocksDropping)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return obd::benchsup::run_bench_main(argc, argv, [] {
    reproduce();
    reproduce_faultsim_scale();
  });
}

// End-to-end ATPG campaign driver: the layer that turns the library into a
// tool. One call chains everything the lower layers provide:
//
//   fault-list extraction -> structural collapse -> random-pattern
//   fault-dropping prepass (FaultSimScheduler, threads from SimOptions)
//   -> deterministic PODEM / two-frame top-off for the
//   survivors -> detection-matrix build -> greedy compaction -> optional
//   n-detect growth -> a machine-readable report.
//
// Sequential circuits (ISCAS-89 style, via io::parse_bench) are handled in
// the full-scan view: flops become pseudo-PIs/POs and the stuck-at or
// two-vector machinery runs unchanged (enhanced-scan application).
//
// Determinism: everything is seeded, and the fault-simulation layer is
// bit-identical across thread counts and block widths, so two runs that differ
// only in `sim.threads` produce byte-identical reports up to the wall-clock
// fields — `matrix_hash` is the cheap cross-run witness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "logic/sequential.hpp"
#include "obs/metrics.hpp"

namespace obd::flow {

enum class FaultModel { kStuck, kTransition, kObd };

const char* to_string(FaultModel m);
/// Parses "stuck" / "transition" / "obd"; false on anything else.
bool fault_model_from_string(const std::string& s, FaultModel& out);
/// Parses "enhanced" / "loc" / "loc-held"; false on anything else.
bool scan_style_from_string(const std::string& s, atpg::ScanMode& out);
/// The --scan-style spelling scan_style_from_string parses back.
const char* scan_style_name(atpg::ScanMode m);

struct CampaignOptions {
  FaultModel model = FaultModel::kStuck;
  /// Scan application style for sequential designs. kEnhanced (default)
  /// applies any (V1, V2) pair through the full-scan view — works with
  /// every fault model. The launch-on-capture styles constrain frame 2's
  /// state to the machine's own next-state response (held-PI additionally
  /// pins PI2 == PI1) and run the two-frame scan ATPG — OBD model only.
  /// Ignored for purely combinational designs.
  atpg::ScanMode scan_style = atpg::ScanMode::kEnhanced;
  /// Worker threads for the detection matrices (campaigns run on one).
  atpg::SimOptions sim;
  /// Random patterns (or two-vector pairs) in the fault-dropping prepass;
  /// 0 goes straight to the deterministic search.
  int random_patterns = 2048;
  std::uint64_t seed = 0x0bd5eedull;
  /// PODEM backtrack budget for the deterministic top-off.
  long max_backtracks = 100000;
  /// Wall-clock budget per deterministic fault search, seconds; 0 = off.
  /// A nonzero budget makes abort decisions load-dependent, which forfeits
  /// the cross-run determinism guarantee — time-budget aborts are recorded
  /// separately (FaultStatus::kAbortedTime) and re-attempted on resume.
  double podem_time_budget_s = 0.0;
  /// Escalate deterministic backtrack-limit aborts to the SAT backend
  /// (atpg/sat): each abort becomes a validated test cube, a proven-
  /// untestable verdict, or — only if the conflict budget runs out — stays
  /// aborted. Escalation is inline and deterministic, so the matrix-hash
  /// contract across threads and shards is preserved. Time-budget aborts
  /// are NOT escalated (they are re-attempted on resume instead). The tail
  /// is solved in one persistent assumption-based session (sat::SatSession),
  /// whose verdicts and cubes equal the fresh per-goal solve's.
  bool sat_escalate = false;
  /// CDCL conflict budget per SAT solver call; <= 0 = unlimited.
  long long sat_conflict_budget = 100000;
  /// Greedy set-cover compaction of the final test set.
  bool compact = true;
  /// Grow an n-detect set on top (OBD model only); 0 = off.
  int ndetect = 0;
  /// Nothing sets it away from this default. Kept only because
  /// perfbench/replay.cpp reads it; it goes with the next change to that
  /// benchmark.
  int ndetect_random_pool = 256;
};

/// Wall-clock phase durations. Strictly observational: none of these feed
/// the deterministic report fields or the checkpoint fingerprint, and the
/// JSON report keeps them in their own "timing" object so byte-comparing
/// the deterministic remainder across runs stays meaningful.
struct PhaseTimes {
  double parse_s = 0.0;     ///< netlist parse (set by the CLI driver)
  double collapse_s = 0.0;
  double random_s = 0.0;    ///< random fault-dropping prepass
  double atpg_s = 0.0;      ///< deterministic top-off incl. SAT escalation
  double sat_s = 0.0;       ///< SAT escalation alone (subset of atpg_s)
  double matrix_s = 0.0;
  double compact_s = 0.0;
  double ndetect_s = 0.0;
  double total_s = 0.0;
};

struct CampaignReport {
  /// Empty when the campaign ran; else the reason it could not.
  std::string error;

  std::string circuit;
  FaultModel model = FaultModel::kStuck;
  std::size_t gates = 0, nets = 0, pis = 0, pos = 0, flops = 0;
  int depth = 0;
  bool scan = false;
  /// Scan application style actually used (to_string(ScanMode)); empty for
  /// combinational designs.
  std::string scan_style;

  std::size_t faults_total = 0;
  std::size_t faults_collapsed = 0;
  int detected = 0;
  int untestable = 0;
  int aborted = 0;
  /// Abort breakdown: backtrack-limit aborts are deterministic and final;
  /// time-budget aborts are re-attempted when a sharded campaign resumes.
  int aborted_backtracks = 0;
  int aborted_time = 0;
  /// Detected / collapsed representatives (1.0 when the list is empty).
  double coverage = 0.0;

  /// SAT escalation tail (all zero unless CampaignOptions::sat_escalate).
  /// `untestable` above stays PODEM-proven; sat_untestable counts aborts the
  /// SAT backend *proved* untestable; sat_detected counts aborts it resolved
  /// into validated cubes (also included in `detected` via the matrix);
  /// sat_unknown counts aborts that exhausted the conflict budget (still in
  /// `aborted` / `aborted_backtracks`).
  int sat_detected = 0;
  int sat_untestable = 0;
  int sat_unknown = 0;
  /// CDCL effort summed over every escalation solver call.
  long long sat_conflicts = 0;
  long long sat_decisions = 0;
  long long sat_restarts = 0;
  /// Incremental-session counters (one-shot runs with sat_escalate;
  /// sharded runs report zeros — each shard's session is process-local and
  /// not checkpointed). See sat::SatSessionStats.
  long long sat_pairs = 0;
  long long sat_cone_encodes = 0;
  long long sat_cone_hits = 0;
  long long sat_unobservable_hits = 0;
  long long sat_session_refutes = 0;
  long long sat_fresh_fallbacks = 0;
  long long sat_vars_shared = 0;
  long long sat_clauses_kept = 0;
  /// Per-fault conflict histogram over escalated faults: bucket 0 counts
  /// zero-conflict escalations, bucket i >= 1 escalations whose conflict
  /// count has bit_width i (obs::log2_bucket). Replaces eyeballing the
  /// aggregate: the abort tail's hardness distribution is visible per run.
  std::array<std::uint64_t, obs::kHistBuckets> sat_conflicts_hist{};
  /// Detected / (collapsed - proven untestable), where proven untestable =
  /// untestable + sat_untestable: the coverage of the *provably coverable*
  /// fault space (1.0 when the denominator is empty).
  double provable_coverage = 0.0;
  /// Fault-site names of representatives still aborted after any
  /// escalation (deterministic order: ascending representative index).
  std::vector<std::string> aborted_faults;

  /// Prepass tests that first-detected some fault (the ones kept).
  int tests_random = 0;
  /// Top-off tests: PODEM tests plus SAT escalation cubes, one per fault
  /// they were generated for. random + deterministic is exactly the set
  /// the detection matrix is built over.
  int tests_deterministic = 0;
  /// After compaction (== random + deterministic when compaction is off).
  int tests_final = 0;
  int ndetect_tests = 0;
  int ndetect_satisfied = 0;
  /// SAT-proven-untestable representatives dropped from the n-detect
  /// target set (they can never reach n detections).
  int ndetect_pruned_untestable = 0;

  /// FNV-1a over the packed detection matrix (dims + row words): equal
  /// hashes across runs <=> bit-identical detection matrices.
  std::uint64_t matrix_hash = 0;
  /// Scheduler work metric of the prepass (see Campaign::fault_block_evals).
  long long fault_block_evals = 0;

  /// The circuit's fanout-cone table size (the same at any thread count) and
  /// frontier counters summed over the scheduler's engines (atpg::SimStats):
  /// cone memory and frontier behaviour show here without rerunning a bench.
  std::size_t cone_peak_bytes = 0;
  long long propagations = 0;
  long long frontier_events = 0;
  long long frontier_gate_evals = 0;
  long long frontier_early_exits = 0;

  /// Sharded-campaign provenance (set by the shard supervisor; a plain
  /// run_campaign leaves shards == 0). `partial` means one or more shards
  /// were quarantined after exhausting retries and their faults are
  /// reported undetected — the report names them in quarantined_shards.
  int shards = 0;
  int shard_retries = 0;
  std::vector<int> quarantined_shards;
  bool partial = false;

  /// Merged campaign metrics sheet rendered name->value (obs::snapshot):
  /// every registered counter/gauge/histogram the run touched, sorted by
  /// name. The named fields above stay as the stable API; this is the
  /// self-describing superset.
  std::vector<obs::MetricValue> metrics;

  PhaseTimes time;
  int threads = 1;

  bool ok() const { return error.empty(); }
};

/// Runs a campaign on a (possibly sequential) circuit. Sequential designs
/// use the full-scan view; combinational ones run as-is. The OBD model
/// lowers composite gates to primitives first (fault sites live on
/// transistors of primitive CMOS gates).
CampaignReport run_campaign(const logic::SequentialCircuit& seq,
                            const CampaignOptions& opt = {});
CampaignReport run_campaign(const logic::Circuit& c,
                            const CampaignOptions& opt = {});

/// Serializes a report as a self-contained JSON object.
std::string report_json(const CampaignReport& r);

/// Human-readable summary table on stdout.
void print_report(const CampaignReport& r);

}  // namespace obd::flow

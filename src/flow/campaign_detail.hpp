// The campaign executor shared by every run shape: the one-shot driver
// (run_campaign), the per-shard executor (run_campaign_shard), and the
// supervisor's merge.
//
// The crash-tolerance layer's central correctness claim — a sharded run,
// even one interrupted and resumed, merges to a detection matrix
// bit-identical to the one-shot campaign — holds by structure: every run
// works on a ShardState (one status per fault of a strided partition) and
// goes through the same three steps. start_partition runs the prepass,
// resolve_fault turns each surviving fault into a final status, and
// build_report folds the states into the report and rebuilds the matrix
// over all representatives. A one-shot campaign is partition 0 of 1 kept
// in memory; a shard checkpoints its partition; the merge hands
// build_report every completed shard. The fault-sim scheduler's
// determinism contract (first detections independent of which other
// faults are co-simulated) does the rest.
//
// A CampaignContext packages the model-specific machinery (collapsed
// representatives, prepass pool, prepass campaign, detection matrix) behind
// fault-subset-aware closures, so the three steps never branch on the
// fault model or scan style. The deterministic search and the SAT
// escalation run each representative's goals_of list (atpg/goals.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/sat/incremental.hpp"
#include "atpg/sat/sat_atpg.hpp"
#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "logic/sequential.hpp"
#include "obs/metrics.hpp"

namespace obd::flow::detail {

/// Global representative indices a closure should operate on. Empty means
/// "all representatives" (the one-shot fast path, no subset copy).
using RepSubset = std::vector<std::uint32_t>;

/// Model-specific campaign machinery over a fixed circuit view. The typed
/// fault vectors live inside the closures (shared_ptr-captured), so a
/// context is freely copyable and outlives make_context's locals.
struct CampaignContext {
  /// Non-empty when the preamble failed (validation error, unsupported
  /// model/style combination); every other field is then unspecified.
  std::string error;

  /// Full-scan or combinational view, model-lowered; null when the
  /// preamble failed before building it. The model hooks hold the same
  /// circuit, so PODEM, SAT, n-detect and the schedulers all read one view
  /// and one fanout-cone table.
  std::shared_ptr<const logic::Circuit> view;
  std::size_t faults_total = 0;  ///< before structural collapse
  std::size_t n_reps = 0;        ///< collapsed representatives
  double collapse_s = 0.0;       ///< enumerate+collapse wall clock
  atpg::PodemOptions popt;       ///< budgets for the deterministic search
  /// The seeded random-prepass pool (CampaignOptions::random_patterns
  /// tests from CampaignOptions::seed) in the model's application form:
  /// single vectors for stuck-at, any pair for enhanced scan, broadside
  /// launch/capture pairs for the LOC styles. Regenerated identically by
  /// every process, which is what lets checkpoints store pool indices.
  std::vector<atpg::TwoVectorTest> pool;

  /// Fault-dropping prepass over the subset's representatives. The
  /// returned Campaign's first_test is indexed by subset position.
  std::function<atpg::FaultSimEngine::Campaign(
      atpg::FaultSimScheduler&, const std::vector<atpg::TwoVectorTest>&,
      const RepSubset&)>
      prepass;
  /// Deterministic search for one representative (global index).
  std::function<atpg::TwoFrameResult(std::uint32_t rep_index)> generate;
  /// SAT escalation for one representative (global index): definitive
  /// cube/untestable verdict for a PODEM backtrack-abort, budget
  /// permitting. Configured from CampaignOptions::sat_conflict_budget; the
  /// calls share one lazily constructed persistent SatSession. Null for the
  /// LOC styles, which reject sat_escalate.
  std::function<atpg::sat::SatAtpgResult(std::uint32_t rep_index)> escalate;
  /// The session's counters, or nullptr when no fault escalated.
  std::function<const atpg::sat::SatSessionStats*()> escalate_stats;
  /// Fault-site name of one representative (for abort reporting).
  std::function<std::string(std::uint32_t rep_index)> rep_name;
  /// Detection matrix of `tests` against the subset's representatives.
  std::function<atpg::DetectionMatrix(
      atpg::FaultSimScheduler&, const std::vector<atpg::TwoVectorTest>&,
      const RepSubset&)>
      matrix;
  /// n-detect growth tail (OBD model only; null otherwise) over a one-shot
  /// campaign's statuses: SAT-proven-untestable representatives are dropped
  /// from the target set — they can never reach n detections. Its pool
  /// simulation and PODEM effort land on `effort` (sim.*, ndetect.*).
  std::function<void(const CampaignOptions&,
                     const std::vector<FaultStatus>& status,
                     obs::Sheet& effort, CampaignReport&)>
      ndetect;
};

/// Builds the model context: view construction (full-scan view, composite
/// lowering for OBD), validation, fault enumeration and collapse, the
/// prepass pool, and the model hooks. The LOC scan styles plug the
/// two-frame scan generator and a broadside pool into the same hooks.
CampaignContext make_context(const logic::SequentialCircuit& seq,
                             const CampaignOptions& opt);

/// A fresh partition `shard_index` of `shard_count` with its random
/// prepass run on `sched`: faults the pool detects become kRandomDetected,
/// every other fault kPending, and the pool tests that first-detected some
/// assigned fault are recorded as useful. Checkpoint identity fields
/// (circuit, options fingerprint, prng state) are left to the caller.
ShardState start_partition(const CampaignContext& ctx,
                           atpg::FaultSimScheduler& sched,
                           std::uint32_t shard_index,
                           std::uint32_t shard_count);

/// Resolves one fault of the partition (local index) — the only place a
/// search result becomes a status, a test, and effort counters. A kPending
/// fault runs PODEM and, when CampaignOptions::sat_escalate is on, a
/// backtrack abort escalates inline to SAT; a kSatUnknown fault (a
/// reopened abort on resume) goes straight to SAT. Search effort lands on
/// `effort`, SAT effort also on the state. Returns the seconds spent in SAT.
double resolve_fault(const CampaignContext& ctx, const CampaignOptions& opt,
                     ShardState& s, std::uint32_t local, obs::Sheet& effort);

/// The only report builder. Folds partition states (the one in-memory
/// partition of a one-shot run, or every completed shard of a merge) into
/// `r`: useful prepass tests in pool order, then top-off tests in global
/// fault order, with the matrix rebuilt on `sched` over all
/// representatives — bit-identical to the one-shot campaign when every
/// partition is present. `effort` (the one-shot top-off sheet) adds the
/// metrics snapshot; a merge passes nullptr and reports no metrics.
void build_report(const CampaignContext& ctx, const CampaignOptions& opt,
                  atpg::FaultSimScheduler& sched,
                  const std::vector<const ShardState*>& states,
                  const obs::Sheet* effort, CampaignReport& r);

/// FNV-1a over the packed matrix (dims + row words) — the cross-run,
/// cross-shard, cross-resume witness.
std::uint64_t hash_matrix(const atpg::DetectionMatrix& m);

/// Structure stats of the context's view, shared by every campaign path (a
/// context without a view leaves them zero).
void fill_structure(const CampaignContext& ctx, CampaignReport& r);

/// Report preamble common to run_campaign and the supervisor's merge:
/// circuit identity, model, sim configuration, scan detection and style.
void init_report(const logic::SequentialCircuit& seq,
                 const CampaignOptions& opt, CampaignReport& r);

}  // namespace obd::flow::detail

// Shard supervisor: crash-tolerant campaign orchestration.
//
// Splits a campaign into shard_count strided fault partitions and drives
// each to a committed kDone checkpoint, then hands the checkpoints to the
// report builder a one-shot run uses (flow/campaign_detail.hpp), so the
// merged report equals the one-shot report (matrix_hash is the witness;
// see tests/test_supervisor.cpp).
//
// Execution: every attempt is a child `obd_atpg --shard i/n` process, in
// the CLI and in the tests alike. A polling watchdog SIGKILLs children past
// the per-shard wall-clock deadline; exits are classified as clean / crash /
// timeout / corrupt-output / interrupted. An injection spec is parsed once,
// before any child starts: a malformed spec is a configuration error.
//
// Failed attempts retry with capped exponential backoff. A shard that
// exhausts 1 + max_retries attempts is quarantined: the campaign still
// completes, producing a partial report that names the quarantined shards
// and counts their faults as undetected — defined degradation, never a
// hang or a silent hole in the data.
#pragma once

#include <csignal>
#include <string>
#include <vector>

#include "flow/campaign.hpp"
#include "logic/sequential.hpp"

namespace obd::flow {

struct SupervisorOptions {
  /// Checkpoint directory (required; created if missing). Without
  /// `resume`, stale shard checkpoints in it are deleted first.
  std::string checkpoint_dir;
  int shards = 2;
  /// Max concurrent shard processes; 0 = shards.
  int jobs = 0;
  /// Per-attempt wall-clock deadline, seconds; 0 disables the watchdog.
  double shard_timeout_s = 0.0;
  /// Retries after the first attempt before a shard is quarantined.
  int max_retries = 2;
  /// Exponential backoff between attempts: base * 2^(k-1), capped at 5 s.
  double backoff_base_s = 0.25;
  /// Continue from committed checkpoints instead of starting fresh.
  bool resume = false;
  /// Fault-injection spec (see flow/inject.hpp); validated here, forwarded
  /// to children via FLOW_FAULT_INJECT.
  std::string inject_spec;
  /// obd_atpg binary every shard attempt runs.
  std::string child_exe;
  /// Circuit file passed to child processes (they re-parse it).
  std::string circuit_path;
  /// Polled by the supervisor loop; when nonzero, children get SIGTERM
  /// (they checkpoint and exit 75) and the run reports interrupted.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Children emit Chrome-trace NDJSON fragments next to their checkpoints
  /// (trace-shard-<i>.ndjson); after the run the supervisor parses them back
  /// and stitches one multi-process trace into the global recorder.
  bool trace = false;
  /// Children write heartbeat NDJSON (progress-<i>.ndjson); the supervisor
  /// aggregates them into periodic {"event":"status",...} lines on stderr
  /// with an ETA, and treats heartbeat-file growth as a liveness signal: a
  /// shard past its wall-clock deadline whose progress file is still
  /// growing gets its deadline extended instead of a watchdog SIGKILL.
  bool progress = false;
  /// Cadence of child heartbeats and supervisor status lines, seconds.
  double progress_interval_s = 1.0;
};

/// Conventional per-shard trace-fragment path under a checkpoint dir.
std::string trace_fragment_path(const std::string& checkpoint_dir, int shard);

enum class ShardOutcome {
  kClean,        ///< exit 0 with a valid kDone checkpoint
  kCrash,        ///< killed by a signal or an unexpected exit code
  kTimeout,      ///< watchdog SIGKILL past the per-shard deadline
  kCorrupt,      ///< output rejected by checkpoint validation
  kInterrupted,  ///< shard saw a stop signal (checkpoint committed)
};

const char* to_string(ShardOutcome o);

/// One attempt's classification, for the attempt log / diagnostics.
struct ShardAttempt {
  int shard = 0;
  int attempt = 0;  // 0-based
  ShardOutcome outcome = ShardOutcome::kClean;
  std::string detail;
};

struct SupervisorResult {
  /// Merged campaign report. `report.partial` / `quarantined_shards` name
  /// degraded coverage; `report.error` is set only when no merge was
  /// possible (configuration error or interruption).
  CampaignReport report;
  std::vector<ShardAttempt> attempts;
  std::vector<int> quarantined;
  int retries = 0;
  bool interrupted = false;
};

/// Runs the sharded campaign end to end: shard execution with retry and
/// quarantine, then the deterministic merge. Every scan style shards
/// (children get --scan-style); n-detect growth is rejected.
SupervisorResult run_supervised_campaign(const logic::SequentialCircuit& seq,
                                         const CampaignOptions& opt,
                                         const SupervisorOptions& sup);

}  // namespace obd::flow

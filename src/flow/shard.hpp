// Per-shard campaign executor: one strided fault partition, checkpointed.
//
// A shard owns the collapsed representatives with global index ≡ shard_index
// (mod shard_count). It runs the campaign executor's own steps
// (flow/campaign_detail.hpp) on just those faults — start_partition for the
// random prepass, resolve_fault per surviving fault — committing a
// checkpoint after the prepass, every kCheckpointEvery resolved faults, and
// at completion. It builds no matrix: the supervisor's merge hands every
// completed shard to the same build_report a one-shot run uses, and
// because first detections are independent of which other faults are
// co-simulated (the scheduler's determinism contract), the merge
// reproduces the one-shot campaign result exactly.
//
// This is the unit of crash tolerance: the shard supervisor runs it as a
// child process (obd_atpg --shard i/n); tests also call it directly. A
// SIGINT/SIGTERM stop flag interrupts between fault searches after flushing
// a valid checkpoint, so an interrupted shard loses no committed work.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>

#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "logic/sequential.hpp"

namespace obd::flow {

/// Resolved faults between periodic checkpoint flushes — the most work a
/// crash can lose.
inline constexpr int kCheckpointEvery = 64;

struct ShardRunOptions {
  std::string checkpoint_dir;  ///< required; created by the supervisor/CLI
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Load an existing checkpoint and continue. A missing file starts
  /// fresh; an invalid or mismatched file is kBadCheckpoint (the
  /// supervisor deletes it and retries from scratch).
  bool resume = false;
  /// Polled between fault searches; set by a signal handler. When it goes
  /// nonzero the shard flushes a checkpoint and returns kInterrupted.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Heartbeat NDJSON file (append-only). Empty disables heartbeats. The
  /// supervisor points every child at progress-<i>.ndjson under the
  /// checkpoint dir and uses file growth as its liveness signal.
  std::string progress_path;
  /// Seconds between throttled heartbeats; <= 0 emits on every poll site.
  double progress_interval_s = 1.0;
};

enum class ShardRunStatus {
  kDone,           ///< shard complete, kDone checkpoint committed
  kInterrupted,    ///< stop flag seen; partial checkpoint committed
  kBadCheckpoint,  ///< resume requested but the checkpoint is invalid
  kError,          ///< preamble/configuration/I-O failure (see error)
};

struct ShardRunResult {
  ShardRunStatus status = ShardRunStatus::kError;
  std::string error;
  ShardState state;  ///< the final committed state (kDone / kInterrupted)
};

/// Runs (or resumes) one shard of any scan style (the launch-on-capture
/// styles run their scan generator per fault, like a one-shot run). n-detect
/// growth is a whole-campaign construct and is rejected. Fault-injection
/// crash points fire inside (checkpoint saves, shard start): a firing crash
/// entry ends the process, so this function may not return.
ShardRunResult run_campaign_shard(const logic::SequentialCircuit& seq,
                                  const CampaignOptions& opt,
                                  const ShardRunOptions& sopt);

}  // namespace obd::flow

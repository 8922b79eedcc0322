// Deterministic fault injection for the crash-tolerant campaign layer.
//
// Every recovery path the supervisor promises (crash retry, torn-file
// rejection, corrupt-checkpoint retry, watchdog timeout, poison-shard
// quarantine) is exercised in tests and CI by *injecting* the failure at a
// named crash point instead of hoping for it. The spec comes from the
// `--inject` CLI option (sharded runs only: a one-shot run reaches no crash
// point, so the CLI rejects the flag there) or the FLOW_FAULT_INJECT
// environment variable:
//
//   spec     := entry (',' entry)*
//   entry    := mode ['#' occurrence] ['=' arg] '@' shard [':' attempt]
//   mode     := abort-before-rename   crash after the checkpoint temp file
//                                     is written+fsynced, before the rename
//             | abort-mid-write       crash with a half-written temp file
//             | corrupt-crc           flip one payload byte after the CRC
//                                     is computed (write completes; the
//                                     loader must reject the file)
//             | sigkill               raise SIGKILL on entering a
//                                     checkpoint save (OOM-killer stand-in)
//             | delay=MS              sleep MS milliseconds at shard start
//                                     (drives the watchdog timeout)
//   occurrence: 1-based index of the matching crash-point visit that fires
//               (default 1 — e.g. sigkill#2 dies at the second checkpoint
//               save, after real progress has been committed)
//   shard    := decimal shard index, or '*' for any shard
//   attempt  := decimal attempt number, '*' for every attempt (a poison
//               shard that exhausts its retries), default 0 (first attempt
//               only, so the supervisor's retry recovers)
//
// Example: "abort-mid-write@1,delay=1500@2:*" — shard 1's first attempt
// dies mid-checkpoint-write; shard 2 stalls past the watchdog on every
// attempt and ends quarantined.
//
// The injector is process-global (shard processes are single-campaign by
// construction), and every crash is real: a firing abort-* entry ends the
// process with _Exit(70) (EX_SOFTWARE), a sigkill entry raises SIGKILL. The
// supervisor validates a spec before it starts any child, then classifies
// each child's death like any other crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace obd::flow {

enum class CrashPoint : std::uint8_t {
  kShardStart,            ///< entering a shard run (delay fires here)
  kCheckpointSave,        ///< entering save_checkpoint (sigkill fires here)
  kCheckpointMidWrite,    ///< half the checkpoint bytes written
  kCheckpointBeforeRename,///< temp durable, rename not yet committed
  kCheckpointCorrupt,     ///< payload byte flip after CRC (not a crash)
};

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Parses and installs a spec; "" clears. False + diagnostic on a
  /// malformed spec (a typo must not silently disable an injection test).
  bool configure(const std::string& spec, std::string* err);
  /// Which (shard, attempt) this process/run is executing; entries only
  /// fire when they match. Resets the per-entry occurrence counters.
  void set_context(int shard_index, int attempt);

  /// Fires any armed crash/delay entry for this point (counting one visit),
  /// then disarms it for the current context. A crash entry does not
  /// return: it ends the process.
  void visit(CrashPoint p);
  /// Like visit for the corrupt-crc entry: returns true when this save's
  /// payload should be corrupted. Stays armed from the configured
  /// occurrence to the end of the matching (shard, attempt) context, so
  /// the final checkpoint of the attempt really is corrupt on disk.
  bool should_corrupt();

  bool active() const { return !entries_.empty(); }

 private:
  struct Entry {
    CrashPoint point = CrashPoint::kShardStart;
    int occurrence = 1;  // 1-based visit index that fires
    int arg_ms = 0;      // delay argument
    int shard = -1;      // -1 = any
    int attempt = 0;     // -1 = every attempt
    int visits = 0;      // matching visits so far in the current context
    bool fired = false;
  };

  void fire(Entry& e);

  std::vector<Entry> entries_;
  int shard_ = -1;
  int attempt_ = 0;
};

}  // namespace obd::flow

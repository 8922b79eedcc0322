// Live shard progress: heartbeat NDJSON written by shard executors and read
// back by the supervisor for status aggregation, ETA, and watchdog liveness.
//
// Each shard appends one-line JSON records to
// <checkpoint_dir>/progress-<shard>.ndjson; the file only ever grows, so
// the supervisor can use "did the file get bigger since the last poll" as a
// liveness signal without parsing, and parse just the final line for the
// latest numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace obd::obs {

struct Heartbeat {
  int shard = 0;
  /// "prepass" (once, after the prepass checkpoint) | "topoff" (throttled,
  /// while faults resolve) | "done" (once, after the final checkpoint).
  /// Shards build no matrix; the supervisor's merge does.
  std::string phase;
  long long resolved = 0;       ///< faults with a final status
  long long assigned = 0;       ///< faults in this shard's partition
  long long detected = 0;
  long long aborted = 0;
  double coverage = 0.0;        ///< detected / assigned so far
  long long ckpt_seq = 0;       ///< checkpoint flushes completed
  double elapsed_s = 0.0;
  std::int64_t ts_us = 0;       ///< wall clock, µs since epoch
};

std::string heartbeat_json(const Heartbeat& hb);
bool parse_heartbeat(std::string_view line, Heartbeat& out);

/// Conventional per-shard heartbeat path under a checkpoint directory.
std::string progress_path(const std::string& checkpoint_dir, int shard);

/// Throttled appender used by the shard executor. All writes are appends
/// with a single write() call per line so concurrent readers never see a
/// torn record.
class ProgressWriter {
 public:
  ProgressWriter() = default;
  /// interval_s <= 0 disables throttling (every maybe_emit writes).
  ProgressWriter(std::string path, double interval_s);
  ~ProgressWriter();
  ProgressWriter(const ProgressWriter&) = delete;
  ProgressWriter& operator=(const ProgressWriter&) = delete;

  bool active() const { return fd_ >= 0; }
  /// Writes if at least interval_s elapsed since the last write.
  void maybe_emit(const Heartbeat& hb);
  /// Writes unconditionally (phase transitions, completion).
  void emit(const Heartbeat& hb);

 private:
  int fd_ = -1;
  double interval_s_ = 1.0;
  std::chrono::steady_clock::time_point last_{};
  bool ever_emitted_ = false;
};

/// Reads the last complete heartbeat line of a progress file. Returns false
/// when the file is missing, empty, or its last line doesn't parse.
bool read_last_heartbeat(const std::string& path, Heartbeat& out);

/// Byte size of a file, or -1 when missing — the supervisor's cheap
/// liveness probe.
long long file_size_or_negative(const std::string& path);

/// Remaining-work estimate in seconds from aggregate progress; negative
/// when no rate is observable yet.
double eta_seconds(long long resolved, long long assigned, double elapsed_s);

}  // namespace obd::obs

// Durable file I/O for campaign state.
//
// write_file_atomic is the one primitive every persistent artifact in the
// flow layer (campaign JSON reports, shard checkpoints) goes through: the
// data is written to `<path>.tmp`, flushed to the device (fsync), and then
// renamed over the target — so a reader never observes a torn file, and a
// crash at any instant leaves either the old file, the new file, or an
// ignorable `.tmp` orphan (which the next successful write truncates and
// replaces).
//
// AtomicWriteHooks exist for the fault-injection harness: they are called
// at the two interesting crash points (mid-write and before-rename) so
// tests can kill the process there and prove the recovery paths. A hook
// either returns or ends the process (_Exit or SIGKILL); a mid-write death
// leaves the temp file behind, torn, exactly as a real crash would.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace obd::util {

struct AtomicWriteHooks {
  /// Called once after roughly half the payload has reached the temp file.
  std::function<void(std::size_t written, std::size_t total)> mid_write;
  /// Called after fsync + close, immediately before the rename commits.
  std::function<void()> before_rename;
};

/// Atomically replaces `path` with `data` (temp + fsync + rename). Returns
/// false with a diagnostic in *err on I/O failure (the temp file is removed
/// in that case). Crash-point hooks are for fault-injection tests only.
bool write_file_atomic(const std::string& path, std::string_view data,
                       std::string* err,
                       const AtomicWriteHooks* hooks = nullptr);

/// Reads a whole file. Returns false with a diagnostic on failure.
bool read_file(const std::string& path, std::string* out, std::string* err);

}  // namespace obd::util

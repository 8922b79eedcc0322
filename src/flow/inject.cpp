#include "flow/inject.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

namespace obd::flow {
namespace {

/// Splits "a,b,c" into entries; empty pieces are rejected by the parser.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool parse_int(const std::string& s, int* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (!end || *end != '\0' || v < 0 || v > 1000000000) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector inj;
  return inj;
}

bool FaultInjector::configure(const std::string& spec, std::string* err) {
  entries_.clear();
  if (spec.empty()) return true;
  // Any parse failure leaves the injector empty: a half-installed spec
  // would make an injection test silently weaker than it claims to be.
  struct ClearOnFailure {
    std::vector<Entry>& entries;
    bool ok = false;
    ~ClearOnFailure() {
      if (!ok) entries.clear();
    }
  } guard{entries_};
  for (const std::string& raw : split(spec, ',')) {
    Entry e;
    // entry := mode ['#' occ] ['=' arg] '@' shard [':' attempt]
    const std::size_t at = raw.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= raw.size()) {
      if (err) *err = "inject entry '" + raw + "': expected mode@shard";
      return false;
    }
    std::string mode = raw.substr(0, at);
    std::string target = raw.substr(at + 1);

    const std::size_t eq = mode.find('=');
    std::string arg;
    if (eq != std::string::npos) {
      arg = mode.substr(eq + 1);
      mode = mode.substr(0, eq);
    }
    const std::size_t hash = mode.find('#');
    if (hash != std::string::npos) {
      if (!parse_int(mode.substr(hash + 1), &e.occurrence) ||
          e.occurrence < 1) {
        if (err) *err = "inject entry '" + raw + "': bad occurrence";
        return false;
      }
      mode = mode.substr(0, hash);
    }

    if (mode == "abort-before-rename") {
      e.point = CrashPoint::kCheckpointBeforeRename;
    } else if (mode == "abort-mid-write") {
      e.point = CrashPoint::kCheckpointMidWrite;
    } else if (mode == "corrupt-crc") {
      e.point = CrashPoint::kCheckpointCorrupt;
    } else if (mode == "sigkill") {
      e.point = CrashPoint::kCheckpointSave;
    } else if (mode == "delay") {
      e.point = CrashPoint::kShardStart;
      if (!parse_int(arg, &e.arg_ms)) {
        if (err) *err = "inject entry '" + raw + "': delay needs =MS";
        return false;
      }
    } else {
      if (err) *err = "inject entry '" + raw + "': unknown mode '" + mode + "'";
      return false;
    }
    if (mode != "delay" && !arg.empty()) {
      if (err) *err = "inject entry '" + raw + "': '" + mode + "' takes no =arg";
      return false;
    }
    const std::size_t colon = target.find(':');
    std::string shard_s = target.substr(0, colon);
    if (shard_s == "*") {
      e.shard = -1;
    } else if (!parse_int(shard_s, &e.shard)) {
      if (err) *err = "inject entry '" + raw + "': bad shard '" + shard_s + "'";
      return false;
    }
    if (colon != std::string::npos) {
      const std::string att = target.substr(colon + 1);
      if (att == "*") {
        e.attempt = -1;
      } else if (!parse_int(att, &e.attempt)) {
        if (err) *err = "inject entry '" + raw + "': bad attempt '" + att + "'";
        return false;
      }
    }
    entries_.push_back(e);
  }
  guard.ok = true;
  return true;
}

void FaultInjector::set_context(int shard_index, int attempt) {
  shard_ = shard_index;
  attempt_ = attempt;
  for (Entry& e : entries_) {
    e.visits = 0;
    e.fired = false;
  }
}

void FaultInjector::fire(Entry& e) {
  e.fired = true;
  if (e.point == CrashPoint::kShardStart) {  // delay: stall, don't die
    std::this_thread::sleep_for(std::chrono::milliseconds(e.arg_ms));
    return;
  }
  if (e.point == CrashPoint::kCheckpointSave) {
    std::raise(SIGKILL);  // never returns
  }
  // Crash without atexit handlers or stream flushing — as close to a real
  // kill as a clean-room exit gets. 70 == EX_SOFTWARE.
  std::_Exit(70);
}

void FaultInjector::visit(CrashPoint p) {
  for (Entry& e : entries_) {
    if (e.fired || e.point != p) continue;
    if (e.point == CrashPoint::kCheckpointCorrupt) continue;  // should_corrupt
    if (e.shard >= 0 && e.shard != shard_) continue;
    if (e.attempt >= 0 && e.attempt != attempt_) continue;
    if (++e.visits < e.occurrence) continue;
    fire(e);
  }
}

bool FaultInjector::should_corrupt() {
  // Unlike the crash entries, corruption stays armed for the rest of the
  // matching context: later saves would otherwise overwrite the corrupted
  // file with a valid one and the loader would never see it.
  for (Entry& e : entries_) {
    if (e.point != CrashPoint::kCheckpointCorrupt) continue;
    if (e.shard >= 0 && e.shard != shard_) continue;
    if (e.attempt >= 0 && e.attempt != attempt_) continue;
    if (++e.visits < e.occurrence) continue;
    return true;
  }
  return false;
}

}  // namespace obd::flow

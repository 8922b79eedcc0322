#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "obs/minijson.hpp"

namespace obd::obs {

struct Recorder::Impl {
  std::atomic<bool> enabled{false};
  mutable std::mutex mu;
  std::vector<TraceEvent> events;
  std::int32_t pid = 0;
  std::int64_t wall0_us = 0;                       // epoch anchor
  std::chrono::steady_clock::time_point steady0{}; // elapsed anchor
  std::atomic<std::int32_t> next_tid{0};
  std::unordered_map<std::int32_t, std::string> thread_names;
};

namespace {
// tid assignment is thread-local so current_tid() is lock-free after the
// first call per thread. -1 = unassigned.
thread_local std::int32_t tl_tid = -1;
}  // namespace

Recorder& Recorder::instance() {
  static Recorder r;
  return r;
}

Recorder::Impl& Recorder::impl() const {
  static Impl i;
  return i;
}

void Recorder::enable(std::int32_t pid, std::string_view process_name) {
  Impl& i = impl();
  {
    std::lock_guard<std::mutex> lock(i.mu);
    i.pid = pid;
    i.wall0_us = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
    i.steady0 = std::chrono::steady_clock::now();
  }
  i.enabled.store(true, std::memory_order_release);
  // The enabling thread owns track 0.
  tl_tid = i.next_tid.load() == 0 ? i.next_tid.fetch_add(1) : current_tid();
  if (!process_name.empty()) {
    TraceEvent ev;
    ev.name = "process_name";
    ev.ph = 'M';
    ev.ts_us = now_us();
    ev.pid = pid;
    ev.tid = tl_tid;
    ev.arg_name.assign(process_name);
    append(std::move(ev));
  }
}

void Recorder::disable() { impl().enabled.store(false, std::memory_order_release); }

bool Recorder::enabled() const {
  return impl().enabled.load(std::memory_order_relaxed);
}

std::int32_t Recorder::current_tid() {
  if (tl_tid < 0) tl_tid = impl().next_tid.fetch_add(1);
  return tl_tid;
}

void Recorder::set_thread_name(std::string_view name) {
  if (!enabled()) return;
  Impl& i = impl();
  const std::int32_t tid = current_tid();
  TraceEvent ev;
  {
    std::lock_guard<std::mutex> lock(i.mu);
    auto it = i.thread_names.find(tid);
    if (it != i.thread_names.end() && it->second == name) return;
    i.thread_names[tid] = std::string(name);
    ev.name = "thread_name";
    ev.ph = 'M';
    ev.ts_us = now_us();
    ev.pid = i.pid;
    ev.tid = tid;
    ev.arg_name.assign(name);
    i.events.push_back(std::move(ev));
  }
}

std::int64_t Recorder::now_us() const {
  Impl& i = impl();
  const auto elapsed = std::chrono::steady_clock::now() - i.steady0;
  return i.wall0_us +
         std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
}

void Recorder::begin(std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  Impl& i = impl();
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.ph = 'B';
  ev.ts_us = now_us();
  ev.tid = current_tid();
  std::lock_guard<std::mutex> lock(i.mu);
  ev.pid = i.pid;
  i.events.push_back(std::move(ev));
}

void Recorder::end(std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  Impl& i = impl();
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.ph = 'E';
  ev.ts_us = now_us();
  ev.tid = current_tid();
  std::lock_guard<std::mutex> lock(i.mu);
  ev.pid = i.pid;
  i.events.push_back(std::move(ev));
}

void Recorder::counter(std::string_view name, long long value,
                       std::string_view series) {
  if (!enabled()) return;
  Impl& i = impl();
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat = "atpg";
  ev.ph = 'C';
  ev.ts_us = now_us();
  ev.tid = current_tid();
  ev.args.emplace_back(std::string(series), value);
  std::lock_guard<std::mutex> lock(i.mu);
  ev.pid = i.pid;
  i.events.push_back(std::move(ev));
}

void Recorder::instant(std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  Impl& i = impl();
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.ph = 'i';
  ev.ts_us = now_us();
  ev.tid = current_tid();
  std::lock_guard<std::mutex> lock(i.mu);
  ev.pid = i.pid;
  i.events.push_back(std::move(ev));
}

void Recorder::append(TraceEvent ev) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.events.push_back(std::move(ev));
}

std::size_t Recorder::event_count() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.events.size();
}

std::vector<TraceEvent> Recorder::events_copy() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.events;
}

void Recorder::clear() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.events.clear();
  i.thread_names.clear();
}

std::string event_json(const TraceEvent& ev) {
  std::string out = "{\"name\":\"" + minijson::escape(ev.name) + "\"";
  if (!ev.cat.empty()) out += ",\"cat\":\"" + minijson::escape(ev.cat) + "\"";
  out += ",\"ph\":\"" + minijson::escape(std::string_view(&ev.ph, 1));
  out += "\",\"ts\":" + std::to_string(ev.ts_us);
  out += ",\"pid\":" + std::to_string(ev.pid);
  out += ",\"tid\":" + std::to_string(ev.tid);
  if (ev.ph == 'M') {
    out += ",\"args\":{\"name\":\"" + minijson::escape(ev.arg_name) + "\"}";
  } else if (!ev.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : ev.args) {
      if (!first) out += ',';
      first = false;
      out += "\"" + minijson::escape(k) + "\":" + std::to_string(v);
    }
    out += "}";
  }
  if (ev.ph == 'i') out += ",\"s\":\"t\"";
  out += "}";
  return out;
}

std::string Recorder::to_json() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t n = 0; n < i.events.size(); ++n) {
    out += event_json(i.events[n]);
    if (n + 1 < i.events.size()) out += ',';
    out += '\n';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Recorder::to_ndjson() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::string out;
  for (const TraceEvent& ev : i.events) {
    out += event_json(ev);
    out += '\n';
  }
  return out;
}

bool tracing_on() { return Recorder::instance().enabled(); }

bool parse_event_line(std::string_view line, TraceEvent& out) {
  std::vector<minijson::Field> fields;
  if (!minijson::parse_object(line, fields)) return false;
  std::string ph;
  if (!minijson::get_str(fields, "name", out.name)) return false;
  if (!minijson::get_str(fields, "ph", ph) || ph.size() != 1) return false;
  out.ph = ph[0];
  minijson::get_str(fields, "cat", out.cat);
  if (!minijson::get_i64(fields, "ts", out.ts_us)) return false;
  // pid/tid name tracks: a value outside int32 must not wrap onto another
  // process's track (4294967296 would land on the supervisor's pid 0).
  const auto get_i32 = [&](std::string_view key, std::int32_t& dst) {
    std::int64_t v = 0;
    if (!minijson::get_i64(fields, key, v) || v < INT32_MIN || v > INT32_MAX)
      return false;
    dst = static_cast<std::int32_t>(v);
    return true;
  };
  if (!get_i32("pid", out.pid) || !get_i32("tid", out.tid)) return false;
  out.args.clear();
  out.arg_name.clear();
  if (const minijson::Field* args = minijson::find(fields, "args")) {
    std::vector<minijson::Field> inner;
    if (minijson::parse_object(args->raw, inner)) {
      for (const minijson::Field& f : inner) {
        if (f.was_string) {
          if (f.key == "name") out.arg_name = f.raw;
        } else if (std::int64_t n = 0; minijson::to_i64(f.raw, n)) {
          out.args.emplace_back(f.key, n);
        }
      }
    }
  }
  return true;
}

bool validate_events(const std::vector<TraceEvent>& events,
                     std::vector<std::string>* problems) {
  bool ok = true;
  auto complain = [&](std::string msg) {
    ok = false;
    if (problems) problems->push_back(std::move(msg));
  };
  struct Track {
    std::vector<std::string> stack;
    std::int64_t last_ts = INT64_MIN;
  };
  std::unordered_map<std::int64_t, Track> tracks;
  auto key = [](const TraceEvent& ev) {
    return (static_cast<std::int64_t>(ev.pid) << 32) |
           static_cast<std::uint32_t>(ev.tid);
  };
  for (const TraceEvent& ev : events) {
    Track& t = tracks[key(ev)];
    if (ev.ph != 'M') {  // metadata carries no timing contract
      if (ev.ts_us < t.last_ts) {
        complain("timestamp regression on pid " + std::to_string(ev.pid) +
                 " tid " + std::to_string(ev.tid) + " at event '" + ev.name +
                 "'");
      }
      t.last_ts = ev.ts_us;
    }
    if (ev.ph == 'B') {
      t.stack.push_back(ev.name);
    } else if (ev.ph == 'E') {
      if (t.stack.empty()) {
        complain("unmatched E event '" + ev.name + "' on pid " +
                 std::to_string(ev.pid) + " tid " + std::to_string(ev.tid));
      } else {
        if (t.stack.back() != ev.name) {
          complain("span mismatch on pid " + std::to_string(ev.pid) + " tid " +
                   std::to_string(ev.tid) + ": open '" + t.stack.back() +
                   "', closing '" + ev.name + "'");
        }
        t.stack.pop_back();
      }
    }
  }
  for (const auto& [k, t] : tracks) {
    for (const std::string& open : t.stack) {
      complain("span '" + open + "' never closed (track key " +
               std::to_string(k) + ")");
    }
  }
  return ok;
}

}  // namespace obd::obs

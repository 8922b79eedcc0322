// Observability layer: metrics registry/sheet merge determinism, trace
// emitter well-formedness (balanced spans, monotonic timestamps, NDJSON
// fragment round-trip and multi-shard stitching), heartbeat protocol, and
// the hard invariant that instrumentation never perturbs the detection
// matrix across thread counts with tracing on or off.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "atpg/atpg.hpp"
#include "flow/checkpoint.hpp"
#include "logic/zoo.hpp"
#include "mutation_common.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/minijson.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"

namespace obd::obs {
namespace {

namespace fs = std::filesystem;

TEST(MetricsRegistry, InternIsIdempotentAndKindChecked) {
  const MetricId a = counter("test.obs.counter_a");
  EXPECT_EQ(a, counter("test.obs.counter_a"));
  EXPECT_EQ(Registry::instance().name(a), "test.obs.counter_a");
  EXPECT_EQ(Registry::instance().kind(a), MetricKind::kCounter);
  EXPECT_THROW(gauge("test.obs.counter_a"), std::logic_error);
}

TEST(Metrics, Log2BucketEdges) {
  EXPECT_EQ(log2_bucket(0), 0);
  EXPECT_EQ(log2_bucket(1), 1);
  EXPECT_EQ(log2_bucket(2), 2);
  EXPECT_EQ(log2_bucket(3), 2);
  EXPECT_EQ(log2_bucket(4), 3);
  EXPECT_EQ(log2_bucket(7), 3);
  EXPECT_EQ(log2_bucket(8), 4);
  EXPECT_EQ(log2_bucket(~0ull), kHistBuckets - 1);
}

TEST(Metrics, MergeIsAssociativeAndOrderInvariant) {
  const MetricId c = counter("test.obs.merge_c");
  const MetricId h = histogram("test.obs.merge_h");
  // Three "worker" sheets with distinct contributions.
  Sheet w[3];
  for (int i = 0; i < 3; ++i) {
    w[i].add(c, 10 * (i + 1));
    w[i].observe(h, static_cast<std::uint64_t>(1) << i);
  }
  Sheet left;  // ((w0 + w1) + w2)
  left.merge_from(w[0]);
  left.merge_from(w[1]);
  left.merge_from(w[2]);
  Sheet right;  // (w2 + (w1 + w0)) — different order, same totals
  Sheet inner;
  inner.merge_from(w[1]);
  inner.merge_from(w[0]);
  right.merge_from(w[2]);
  right.merge_from(inner);

  EXPECT_EQ(left.value(c), 60);
  EXPECT_EQ(right.value(c), 60);
  const HistData* lh = left.hist(h);
  const HistData* rh = right.hist(h);
  ASSERT_NE(lh, nullptr);
  ASSERT_NE(rh, nullptr);
  EXPECT_EQ(lh->buckets, rh->buckets);
  EXPECT_EQ(lh->count, 3u);
  EXPECT_EQ(lh->sum, 7u);
  EXPECT_EQ(lh->max, 4u);
}

TEST(Metrics, SnapshotIsSortedAndSkipsZeros) {
  const MetricId a = counter("test.obs.snap_zzz");
  const MetricId b = counter("test.obs.snap_aaa");
  const MetricId z = counter("test.obs.snap_zero");
  Sheet s;
  s.add(a, 5);
  s.add(b, 7);
  s.add(z, 0);
  const std::vector<MetricValue> v = snapshot(s);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].name, "test.obs.snap_aaa");
  EXPECT_EQ(v[1].name, "test.obs.snap_zzz");
}

TEST(Trace, SpansBalancedMonotonicAcrossThreads) {
  Recorder& rec = Recorder::instance();
  rec.enable(0, "test-proc");
  {
    Span outer("outer");
    {
      Span inner("inner");
      rec.counter("widgets", 42);
    }
    std::thread t([] {
      Recorder::instance().set_thread_name("worker-0");
      Span w("work");
      Recorder::instance().instant("tick");
    });
    t.join();
  }
  const std::vector<TraceEvent> evs = rec.events_copy();
  rec.disable();
  rec.clear();

  std::vector<std::string> problems;
  EXPECT_TRUE(validate_events(evs, &problems))
      << (problems.empty() ? "" : problems.front());
  // The worker ran on its own track.
  bool saw_second_tid = false;
  for (const TraceEvent& e : evs)
    if (e.tid != 0 && e.ph != 'M') saw_second_tid = true;
  EXPECT_TRUE(saw_second_tid);
}

TEST(Trace, SpanEmitsNothingWhenDisabled) {
  Recorder& rec = Recorder::instance();
  ASSERT_FALSE(rec.enabled());
  const std::size_t before = rec.event_count();
  {
    Span s("ghost");
    rec.counter("ghost", 1);
    rec.instant("ghost");
  }
  EXPECT_EQ(rec.event_count(), before);
}

TEST(Trace, UnbalancedStreamIsRejected) {
  std::vector<TraceEvent> evs;
  TraceEvent b;
  b.name = "open";
  b.ph = 'B';
  b.ts_us = 10;
  evs.push_back(b);
  std::vector<std::string> problems;
  EXPECT_FALSE(validate_events(evs, &problems));
  EXPECT_FALSE(problems.empty());

  // Mismatched close name.
  TraceEvent e = b;
  e.name = "other";
  e.ph = 'E';
  e.ts_us = 20;
  evs.push_back(e);
  problems.clear();
  EXPECT_FALSE(validate_events(evs, &problems));

  // Time running backwards.
  evs[1].name = "open";
  evs[1].ts_us = 5;
  problems.clear();
  EXPECT_FALSE(validate_events(evs, &problems));
}

TEST(Trace, NdjsonFragmentRoundTripAndStitch) {
  Recorder& rec = Recorder::instance();
  rec.enable(3, "shard 2");
  {
    Span s("topoff", "shard");
    rec.counter("resolved", 17, "faults");
  }
  const std::string frag = rec.to_ndjson();
  const std::vector<TraceEvent> orig = rec.events_copy();
  rec.disable();
  rec.clear();

  // Parse the fragment back line by line — the supervisor's stitch path.
  std::vector<TraceEvent> parsed;
  std::istringstream in(frag);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceEvent ev;
    ASSERT_TRUE(parse_event_line(line, ev)) << line;
    parsed.push_back(ev);
  }
  ASSERT_EQ(parsed.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(parsed[i].name, orig[i].name);
    EXPECT_EQ(parsed[i].ph, orig[i].ph);
    EXPECT_EQ(parsed[i].ts_us, orig[i].ts_us);
    EXPECT_EQ(parsed[i].pid, orig[i].pid);
    EXPECT_EQ(parsed[i].tid, orig[i].tid);
  }

  // Stitching N shard fragments: same events on distinct pid tracks must
  // validate as one multi-process stream.
  std::vector<TraceEvent> stitched;
  for (int shard = 0; shard < 4; ++shard)
    for (TraceEvent ev : parsed) {
      ev.pid = shard + 1;
      stitched.push_back(std::move(ev));
    }
  std::vector<std::string> problems;
  EXPECT_TRUE(validate_events(stitched, &problems))
      << (problems.empty() ? "" : problems.front());
}

TEST(Trace, MalformedFragmentLinesAreRejected) {
  TraceEvent ev;
  EXPECT_FALSE(parse_event_line("", ev));
  EXPECT_FALSE(parse_event_line("not json", ev));
  EXPECT_FALSE(parse_event_line("{\"ph\":\"B\"}", ev));  // missing fields
  EXPECT_TRUE(parse_event_line(
      "{\"name\":\"x\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":0}", ev));
  EXPECT_EQ(ev.name, "x");
  EXPECT_EQ(ev.ts_us, 5);
}

TEST(Progress, HeartbeatJsonRoundTrip) {
  Heartbeat hb;
  hb.shard = 3;
  hb.phase = "topoff";
  hb.resolved = 120;
  hb.assigned = 500;
  hb.detected = 100;
  hb.aborted = 2;
  hb.coverage = 0.2;
  hb.ckpt_seq = 7;
  hb.elapsed_s = 1.5;
  hb.ts_us = 1234567890123456;

  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(heartbeat_json(hb), back));
  EXPECT_EQ(back.shard, 3);
  EXPECT_EQ(back.phase, "topoff");
  EXPECT_EQ(back.resolved, 120);
  EXPECT_EQ(back.assigned, 500);
  EXPECT_EQ(back.detected, 100);
  EXPECT_EQ(back.aborted, 2);
  EXPECT_NEAR(back.coverage, 0.2, 1e-9);
  EXPECT_EQ(back.ckpt_seq, 7);
  EXPECT_NEAR(back.elapsed_s, 1.5, 1e-6);
  EXPECT_EQ(back.ts_us, 1234567890123456);

  EXPECT_FALSE(parse_heartbeat("", back));
  EXPECT_FALSE(parse_heartbeat("{\"shard\":1}", back));
}

TEST(Ndjson, HostileNumbersAreRejected) {
  // One bad number in an otherwise valid line. A lenient reader took these
  // as resolved 12, shard 1, ts 1 and pid 0 — the last one stitching a
  // shard's spans onto the supervisor's own track.
  using Swap = std::pair<std::string, std::string>;
  const auto swap = [](std::string line, const std::string& from,
                       const std::string& to) {
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? line : line.replace(at, from.size(), to);
  };
  Heartbeat hb;
  hb.shard = 1;
  hb.phase = "topoff";
  hb.resolved = 12;
  const std::string beat = heartbeat_json(hb);
  Heartbeat back;
  ASSERT_TRUE(parse_heartbeat(beat, back));
  for (const auto& [from, to] : std::vector<Swap>{
           {"\"resolved\":12", "\"resolved\":12abc"},
           {"\"shard\":1", "\"shard\":4294967297"},
           {"\"shard\":1", "\"shard\":-1"},
           {"\"resolved\":12", "\"resolved\":4294967296"},
           {"\"resolved\":12", "\"resolved\":99999999999999999999"},
           {"\"coverage\":0.000000", "\"coverage\":nan"},
           {"\"coverage\":0.000000", "\"coverage\":1e999"},
       }) {
    EXPECT_FALSE(parse_heartbeat(swap(beat, from, to), back)) << to;
  }

  const std::string event =
      "{\"name\":\"x\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":0}";
  TraceEvent ev;
  ASSERT_TRUE(parse_event_line(event, ev));
  for (const auto& [from, to] : std::vector<Swap>{
           {"\"ts\":5", "\"ts\":1e3"},
           {"\"pid\":1", "\"pid\":4294967296"},
           {"\"tid\":0", "\"tid\":-2147483649"},
           {"\"ts\":5", "\"ts\":5.0"},
       }) {
    EXPECT_FALSE(parse_event_line(swap(event, from, to), ev)) << to;
  }
}

TEST(Ndjson, SeededMutationsNeverCrashAndRoundTrip) {
  // Hostile lines: fixed-seed mutants of real heartbeats and trace-fragment
  // events. Nothing may crash (the ASan job runs this), and whatever a
  // reader accepts must survive its writer: re-serialized, it parses back
  // to the same values (doubles to the writer's printed precision).
  util::Prng prng(0x0b5f022);
  const std::string specials = "{}[]:,\"\\ -.e0123456789";

  std::vector<std::string> beats;
  for (const char* phase : {"prepass", "topoff", "done"}) {
    Heartbeat hb;
    hb.shard = static_cast<int>(beats.size()) * 3;
    hb.phase = phase;
    hb.resolved = 120;
    hb.assigned = 500;
    hb.detected = 100;
    hb.aborted = 2;
    hb.coverage = 0.2;
    hb.ckpt_seq = 7;
    hb.elapsed_s = 1.5;
    hb.ts_us = 1234567890123456;
    beats.push_back(heartbeat_json(hb));
  }
  int accepted = 0;
  for (int m = 0; m < 3000; ++m) {
    const std::string text =
        testing_mutation::mutate(beats[m % beats.size()], prng, specials);
    Heartbeat a;
    if (!parse_heartbeat(text, a)) continue;
    ++accepted;
    const std::string again = heartbeat_json(a);
    Heartbeat b;
    ASSERT_TRUE(parse_heartbeat(again, b)) << text << " -> " << again;
    EXPECT_EQ(a.shard, b.shard) << text;
    EXPECT_EQ(a.phase, b.phase) << text;
    EXPECT_EQ(a.resolved, b.resolved) << text;
    EXPECT_EQ(a.assigned, b.assigned) << text;
    EXPECT_EQ(a.detected, b.detected) << text;
    EXPECT_EQ(a.aborted, b.aborted) << text;
    EXPECT_NEAR(a.coverage, b.coverage, 1e-6) << text;
    EXPECT_EQ(a.ckpt_seq, b.ckpt_seq) << text;
    EXPECT_NEAR(a.elapsed_s, b.elapsed_s, 1e-3) << text;
    EXPECT_EQ(a.ts_us, b.ts_us) << text;
  }
  EXPECT_GT(accepted, 0);

  std::vector<std::string> lines;
  {
    TraceEvent ev;
    ev.name = "topoff";
    ev.cat = "shard";
    ev.ph = 'B';
    ev.ts_us = 1700000000123456;
    ev.pid = 3;
    ev.tid = 1;
    lines.push_back(event_json(ev));
    ev.ph = 'E';
    lines.push_back(event_json(ev));
    ev.ph = 'C';
    ev.name = "resolved";
    ev.args = {{"faults", 17}, {"aborted", -2}};
    lines.push_back(event_json(ev));
    ev.ph = 'M';
    ev.name = "process_name";
    ev.args.clear();
    ev.arg_name = "shard 2";
    lines.push_back(event_json(ev));
  }
  accepted = 0;
  for (int m = 0; m < 3000; ++m) {
    const std::string text =
        testing_mutation::mutate(lines[m % lines.size()], prng, specials);
    TraceEvent a;
    if (!parse_event_line(text, a)) continue;
    ++accepted;
    const std::string again = event_json(a);
    TraceEvent b;
    ASSERT_TRUE(parse_event_line(again, b)) << text << " -> " << again;
    EXPECT_EQ(a.name, b.name) << text;
    EXPECT_EQ(a.cat, b.cat) << text;
    EXPECT_EQ(a.ph, b.ph) << text;
    EXPECT_EQ(a.ts_us, b.ts_us) << text;
    EXPECT_EQ(a.pid, b.pid) << text;
    EXPECT_EQ(a.tid, b.tid) << text;
    // The writer renders a metadata event's string payload and every other
    // event's numeric args.
    if (a.ph == 'M') {
      EXPECT_EQ(a.arg_name, b.arg_name) << text;
    } else {
      EXPECT_EQ(a.args, b.args) << text;
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(Progress, WriterAppendsAndLastLineWins) {
  const fs::path dir = fs::temp_directory_path() / "obd_obs_test";
  fs::create_directories(dir);
  const std::string path = progress_path(dir.string(), 5);
  std::remove(path.c_str());
  EXPECT_EQ(file_size_or_negative(path), -1);

  {
    ProgressWriter w(path, /*interval_s=*/0.0);
    ASSERT_TRUE(w.active());
    Heartbeat hb;
    hb.shard = 5;
    for (int i = 1; i <= 3; ++i) {
      hb.phase = i == 3 ? "done" : "topoff";
      hb.resolved = i * 10;
      w.emit(hb);
    }
  }
  EXPECT_GT(file_size_or_negative(path), 0);
  Heartbeat last;
  ASSERT_TRUE(read_last_heartbeat(path, last));
  EXPECT_EQ(last.phase, "done");
  EXPECT_EQ(last.resolved, 30);
  std::remove(path.c_str());
}

TEST(Progress, EtaEstimate) {
  EXPECT_LT(eta_seconds(0, 100, 5.0), 0.0);   // no rate yet
  EXPECT_EQ(eta_seconds(100, 100, 5.0), 0.0); // done
  EXPECT_NEAR(eta_seconds(50, 100, 10.0), 10.0, 1e-9);
}

TEST(Log, LevelGatesOutput) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug));
  set_log_level(prev);
}

TEST(CheckpointV3, SatDetailRoundTrips) {
  using namespace obd::flow;
  ShardState s;
  s.circuit = "obs-v3";
  s.options_fp = 0x1234;
  s.shard_index = 0;
  s.shard_count = 1;
  s.n_reps_total = 4;
  s.pool_size = 0;
  s.phase = ShardPhase::kPodemPartial;
  s.status.assign(4, FaultStatus::kPending);
  s.sat_conflicts = 1000;
  s.sat_decisions = 2000;
  s.sat_restarts = 30;
  s.sat_hist[0] = 1;
  s.sat_hist[5] = 7;
  s.sat_hist[31] = 2;

  const fs::path dir = fs::temp_directory_path() / "obd_obs_test";
  fs::create_directories(dir);
  const std::string path = (dir / "v3.ckpt").string();
  std::string err;
  ASSERT_TRUE(save_checkpoint(path, s, &err)) << err;
  ShardState back;
  ASSERT_TRUE(load_checkpoint(path, &back, &err)) << err;
  EXPECT_EQ(back.sat_conflicts, 1000);
  EXPECT_EQ(back.sat_decisions, 2000);
  EXPECT_EQ(back.sat_restarts, 30);
  EXPECT_EQ(back.sat_hist, s.sat_hist);
  std::remove(path.c_str());
}

// The hard invariant: instrumentation (metrics always on, tracing on/off)
// never perturbs the detection matrix, at any thread count — and the merged
// metric totals of a matrix build are themselves thread-invariant.
TEST(Determinism, MatrixIdenticalWithTracingOnOffAcrossThreads) {
  using namespace obd::atpg;
  const logic::Circuit c = logic::array_multiplier(6);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 256, 0x0b5eed);

  FaultSimScheduler ref(c, {1});
  const DetectionMatrix base = ref.matrix_obd(tests, faults);
  const Sheet ref_metrics = ref.merged_metrics();
  const std::vector<MetricValue> ref_snap = snapshot(ref_metrics);
  EXPECT_FALSE(ref_snap.empty());

  for (const bool traced : {false, true}) {
    if (traced) Recorder::instance().enable(0, "determinism-test");
    for (const int threads : {1, 2, 4}) {
      FaultSimScheduler sched(c, {threads});
      const DetectionMatrix m = sched.matrix_obd(tests, faults);
      EXPECT_EQ(m.rows, base.rows) << "threads=" << threads
                                   << " traced=" << traced;
      EXPECT_EQ(m.covered_count, base.covered_count);
      // Matrix builds partition work without dropping, so the merged
      // counters are exactly the single-engine totals at any width.
      const std::vector<MetricValue> snap = snapshot(sched.merged_metrics());
      ASSERT_EQ(snap.size(), ref_snap.size());
      for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].name, ref_snap[i].name);
        EXPECT_EQ(snap[i].value, ref_snap[i].value)
            << snap[i].name << " threads=" << threads << " traced=" << traced;
      }
    }
    if (traced) {
      std::vector<std::string> problems;
      EXPECT_TRUE(validate_events(Recorder::instance().events_copy(),
                                  &problems))
          << (problems.empty() ? "" : problems.front());
      Recorder::instance().disable();
      Recorder::instance().clear();
    }
  }
}

}  // namespace
}  // namespace obd::obs

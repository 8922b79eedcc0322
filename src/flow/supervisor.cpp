#include "flow/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "flow/campaign_detail.hpp"
#include "flow/checkpoint.hpp"
#include "flow/inject.hpp"
#include "obs/log.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OBD_POSIX_SPAWN 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace obd::flow {
namespace {

using namespace obd::atpg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Longest wait between two attempts of one shard.
constexpr double kBackoffCapS = 5.0;

double backoff_seconds(const SupervisorOptions& sup, int retry) {
  double d = sup.backoff_base_s;
  for (int k = 1; k < retry; ++k) d *= 2.0;
  return std::min(d, kBackoffCapS);
}

void remove_checkpoint(const std::string& dir, int shard) {
  std::error_code ec;
  const std::string p = checkpoint_path(dir, shard);
  std::filesystem::remove(p, ec);
  std::filesystem::remove(p + ".tmp", ec);
}

/// One {"event":"status",...} NDJSON line on stderr, aggregated from the
/// latest heartbeat of every shard. Machine-parseable: CI and wrappers can
/// tail stderr for live coverage and the ETA.
void emit_status_line(const SupervisorOptions& sup, Clock::time_point t0) {
  long long resolved = 0, assigned = 0, detected = 0;
  int reporting = 0, done = 0;
  for (int i = 0; i < sup.shards; ++i) {
    obs::Heartbeat hb;
    if (!obs::read_last_heartbeat(obs::progress_path(sup.checkpoint_dir, i),
                                  hb))
      continue;
    ++reporting;
    resolved += hb.resolved;
    assigned += hb.assigned;
    detected += hb.detected;
    if (hb.phase == "done") ++done;
  }
  const double elapsed = seconds_since(t0);
  const double eta = obs::eta_seconds(resolved, assigned, elapsed);
  std::fprintf(stderr,
               "{\"event\":\"status\",\"shards\":%d,\"reporting\":%d,"
               "\"done\":%d,\"resolved\":%lld,\"assigned\":%lld,"
               "\"detected\":%lld,\"coverage\":%.6f,\"elapsed_s\":%.3f,"
               "\"eta_s\":%.3f}\n",
               sup.shards, reporting, done, resolved, assigned, detected,
               assigned > 0 ? static_cast<double>(detected) /
                                  static_cast<double>(assigned)
                            : 0.0,
               elapsed, eta);
}

/// Parses the NDJSON trace fragments the shard children wrote and appends
/// their events to the global recorder: one stitched multi-process trace.
void stitch_trace_fragments(const SupervisorOptions& sup) {
  if (!obs::tracing_on()) return;
  obs::Recorder& rec = obs::Recorder::instance();
  for (int i = 0; i < sup.shards; ++i) {
    const std::string path = trace_fragment_path(sup.checkpoint_dir, i);
    std::ifstream in(path);
    if (!in) continue;
    std::size_t appended = 0, skipped = 0;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      obs::TraceEvent ev;
      if (parse_event_line(line, ev)) {
        rec.append(std::move(ev));
        ++appended;
      } else {
        ++skipped;
      }
    }
    if (skipped > 0)
      obs::logf(obs::LogLevel::kWarn,
                "trace fragment %s: skipped %zu malformed line(s)",
                path.c_str(), skipped);
    obs::logf(obs::LogLevel::kDebug, "stitched %zu trace event(s) from %s",
              appended, path.c_str());
  }
}

#ifdef OBD_POSIX_SPAWN

/// Forks + execs one shard attempt. The injection spec and attempt number
/// travel via environment so no argv quoting is needed.
pid_t spawn_shard(const SupervisorOptions& sup, const CampaignOptions& opt,
                  int shard, int attempt) {
  std::vector<std::string> args = {
      sup.child_exe,
      sup.circuit_path,
      "--quiet",
      "--shard",
      std::to_string(shard) + "/" + std::to_string(sup.shards),
      "--checkpoint-dir",
      sup.checkpoint_dir,
      "--resume",
      "--model",
      to_string(opt.model),
      "--scan-style",
      scan_style_name(opt.scan_style),
      "--random",
      std::to_string(opt.random_patterns),
      "--seed",
      std::to_string(opt.seed),
      "--backtracks",
      std::to_string(opt.max_backtracks),
      "--threads",
      std::to_string(opt.sim.threads),
  };
  if (opt.podem_time_budget_s > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", opt.podem_time_budget_s);
    args.push_back("--podem-time");
    args.push_back(buf);
  }
  if (opt.sat_escalate) {
    args.push_back("--sat-escalate");
    args.push_back("--sat-conflict-budget");
    args.push_back(std::to_string(opt.sat_conflict_budget));
  }
  if (sup.trace) {
    args.push_back("--trace");
    args.push_back(trace_fragment_path(sup.checkpoint_dir, shard));
  }
  if (sup.progress) {
    args.push_back("--progress");
    args.push_back("--progress-interval");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", sup.progress_interval_s);
    args.push_back(buf);
  }

  const pid_t pid = fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)

  if (!sup.inject_spec.empty())
    setenv("FLOW_FAULT_INJECT", sup.inject_spec.c_str(), 1);
  setenv("FLOW_SHARD_ATTEMPT", std::to_string(attempt).c_str(), 1);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  execv(sup.child_exe.c_str(), argv.data());
  std::_Exit(127);  // exec failed
}

#endif  // OBD_POSIX_SPAWN

}  // namespace

std::string trace_fragment_path(const std::string& checkpoint_dir,
                                int shard) {
  return checkpoint_dir + "/trace-shard-" + std::to_string(shard) + ".ndjson";
}

const char* to_string(ShardOutcome o) {
  switch (o) {
    case ShardOutcome::kClean: return "clean";
    case ShardOutcome::kCrash: return "crash";
    case ShardOutcome::kTimeout: return "timeout";
    case ShardOutcome::kCorrupt: return "corrupt-output";
    case ShardOutcome::kInterrupted: return "interrupted";
  }
  return "?";
}

SupervisorResult run_supervised_campaign(const logic::SequentialCircuit& seq,
                                         const CampaignOptions& opt,
                                         const SupervisorOptions& sup) {
  SupervisorResult res;
  CampaignReport& r = res.report;
  detail::init_report(seq, opt, r);

  if (sup.shards < 1) {
    r.error = "--shards needs a positive shard count";
    return res;
  }
  if (sup.checkpoint_dir.empty()) {
    r.error = "sharded campaigns need --checkpoint-dir";
    return res;
  }
  if (opt.ndetect > 0) {
    r.error = "--ndetect is not supported with sharded campaigns";
    return res;
  }
#ifndef OBD_POSIX_SPAWN
  r.error = "sharded campaigns need a POSIX platform (fork/exec)";
  return res;
#endif
  if (sup.child_exe.empty() || sup.circuit_path.empty()) {
    r.error = "shard supervision needs child_exe + circuit_path";
    return res;
  }
  // Parsed once, before any child starts: a malformed spec would otherwise
  // kill every attempt and end in quarantine instead of an error.
  if (std::string ierr; !FaultInjector().configure(sup.inject_spec, &ierr)) {
    r.error = "bad fault-injection spec: " + ierr;
    return res;
  }

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  detail::fill_structure(ctx, r);
  if (!ctx.error.empty()) {
    r.error = ctx.error;
    return res;
  }

  std::error_code ec;
  std::filesystem::create_directories(sup.checkpoint_dir, ec);
  if (ec) {
    r.error = "cannot create checkpoint dir '" + sup.checkpoint_dir +
              "': " + ec.message();
    return res;
  }
  if (!sup.resume) {
    for (int i = 0; i < sup.shards; ++i) {
      remove_checkpoint(sup.checkpoint_dir, i);
      std::error_code ec2;
      std::filesystem::remove(obs::progress_path(sup.checkpoint_dir, i), ec2);
      std::filesystem::remove(trace_fragment_path(sup.checkpoint_dir, i), ec2);
    }
  }

  const std::string circuit = seq.core().name();
  const auto shard_count = static_cast<std::uint32_t>(sup.shards);

  std::vector<ShardState> states(sup.shards);
  std::vector<char> clean(sup.shards, 0);

  /// Exit-0 is not success until the committed checkpoint survives full
  /// validation and is a completed shard — the corrupt-output gate.
  auto validate_shard = [&](int shard, std::string* why) {
    const std::string p = checkpoint_path(sup.checkpoint_dir, shard);
    ShardState s;
    if (!load_checkpoint(p, &s, why)) return false;
    if (!checkpoint_matches(s, opt, circuit, static_cast<std::uint32_t>(shard),
                            shard_count, ctx.n_reps, ctx.pool.size(), why))
      return false;
    if (s.phase != ShardPhase::kDone) {
      *why = "checkpoint is not a completed shard";
      return false;
    }
    states[shard] = std::move(s);
    return true;
  };

#ifdef OBD_POSIX_SPAWN
  struct Pending {
    int shard;
    int attempt;
    Clock::time_point eligible;
  };
  struct Running {
    pid_t pid;
    int shard;
    int attempt;
    Clock::time_point deadline;
    bool has_deadline;
    bool watchdog_killed;
    /// Heartbeat-file size when the current deadline was armed; growth
    /// past it proves the shard is alive and re-arms the deadline.
    long long progress_size;
  };
  std::vector<Pending> pending;
  std::vector<Running> running;
  bool stopping = false;
  const auto t_campaign = Clock::now();
  auto next_status = t_campaign + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          sup.progress_interval_s));
  for (int i = 0; i < sup.shards; ++i)
    pending.push_back({i, 0, Clock::now()});
  const std::size_t jobs =
      static_cast<std::size_t>(sup.jobs > 0 ? sup.jobs : sup.shards);

  auto handle_failure = [&](int shard, int attempt, ShardOutcome outcome,
                            std::string what) {
    res.attempts.push_back({shard, attempt, outcome, std::move(what)});
    if (outcome == ShardOutcome::kCorrupt)
      remove_checkpoint(sup.checkpoint_dir, shard);
    if (stopping) return;
    if (attempt >= sup.max_retries) {
      obs::logf(obs::LogLevel::kWarn,
                "shard %d quarantined after %d attempt(s)", shard,
                attempt + 1);
      res.quarantined.push_back(shard);
      return;
    }
    ++res.retries;
    obs::logf(obs::LogLevel::kInfo,
              "shard %d attempt %d failed (%s); retrying in %.2fs", shard,
              attempt, to_string(outcome), backoff_seconds(sup, attempt + 1));
    pending.push_back(
        {shard, attempt + 1,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                backoff_seconds(sup, attempt + 1)))});
  };

  while (!pending.empty() || !running.empty()) {
    if (!stopping && sup.stop && *sup.stop) {
      // Graceful stop: children checkpoint on SIGTERM and exit 75. A
      // 10 s grace deadline escalates to SIGKILL — no hangs.
      stopping = true;
      res.interrupted = true;
      pending.clear();
      for (Running& c : running) {
        kill(c.pid, SIGTERM);
        c.deadline = Clock::now() + std::chrono::seconds(10);
        c.has_deadline = true;
      }
    }

    if (!stopping) {
      const auto now = Clock::now();
      for (auto it = pending.begin();
           it != pending.end() && running.size() < jobs;) {
        if (it->eligible > now) {
          ++it;
          continue;
        }
        const pid_t pid = spawn_shard(sup, opt, it->shard, it->attempt);
        if (pid < 0) {
          const int shard = it->shard, attempt = it->attempt;
          it = pending.erase(it);
          handle_failure(shard, attempt, ShardOutcome::kCrash,
                         "fork failed");
          continue;
        }
        Running c;
        c.pid = pid;
        c.shard = it->shard;
        c.attempt = it->attempt;
        c.has_deadline = sup.shard_timeout_s > 0.0;
        c.watchdog_killed = false;
        c.progress_size = sup.progress
                              ? obs::file_size_or_negative(obs::progress_path(
                                    sup.checkpoint_dir, it->shard))
                              : -1;
        if (c.has_deadline)
          c.deadline = now + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     sup.shard_timeout_s));
        running.push_back(c);
        it = pending.erase(it);
      }
    }

    for (auto it = running.begin(); it != running.end();) {
      if (it->has_deadline && !it->watchdog_killed &&
          Clock::now() > it->deadline) {
        // Liveness check before the kill: a healthy-but-slow shard keeps
        // appending heartbeats, so a grown progress file re-arms the
        // deadline instead of SIGKILLing real work (stopping-mode grace
        // deadlines stay hard — those children were already told to exit).
        const long long sz =
            sup.progress && !stopping
                ? obs::file_size_or_negative(
                      obs::progress_path(sup.checkpoint_dir, it->shard))
                : -1;
        if (sz > it->progress_size) {
          it->progress_size = sz;
          it->deadline =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     sup.shard_timeout_s));
          obs::logf(obs::LogLevel::kInfo,
                    "shard %d past its deadline but heartbeating; deadline "
                    "extended",
                    it->shard);
        } else {
          kill(it->pid, SIGKILL);
          it->watchdog_killed = true;
        }
      }
      int st = 0;
      const pid_t w = waitpid(it->pid, &st, WNOHANG);
      if (w != it->pid) {
        ++it;
        continue;
      }
      const int shard = it->shard;
      const int attempt = it->attempt;
      const bool timed_out = it->watchdog_killed && !stopping;
      it = running.erase(it);

      if (WIFEXITED(st)) {
        const int code = WEXITSTATUS(st);
        if (code == 0) {
          std::string why;
          if (validate_shard(shard, &why)) {
            res.attempts.push_back(
                {shard, attempt, ShardOutcome::kClean, ""});
            clean[shard] = 1;
          } else {
            handle_failure(shard, attempt, ShardOutcome::kCorrupt, why);
          }
        } else if (code == 75) {
          // EX_TEMPFAIL: the child checkpointed and stopped on a
          // signal. Retryable unless we are the ones stopping it.
          if (stopping)
            res.attempts.push_back({shard, attempt,
                                    ShardOutcome::kInterrupted, ""});
          else
            handle_failure(shard, attempt, ShardOutcome::kInterrupted,
                           "child interrupted");
        } else if (code == 71) {
          handle_failure(shard, attempt, ShardOutcome::kCorrupt,
                         "child rejected its resume checkpoint");
        } else {
          handle_failure(shard, attempt, ShardOutcome::kCrash,
                         "exit code " + std::to_string(code));
        }
      } else if (WIFSIGNALED(st)) {
        const int sig = WTERMSIG(st);
        handle_failure(shard, attempt,
                       timed_out ? ShardOutcome::kTimeout
                                 : ShardOutcome::kCrash,
                       "signal " + std::to_string(sig));
      }
    }

    if (sup.progress && Clock::now() >= next_status) {
      emit_status_line(sup, t_campaign);
      next_status += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              std::max(0.05, sup.progress_interval_s)));
    }

    if (pending.empty() && running.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (sup.progress) emit_status_line(sup, t_campaign);
  stitch_trace_fragments(sup);
#endif  // OBD_POSIX_SPAWN

  if (res.interrupted) {
    r.error = "campaign interrupted; shard checkpoints preserved in '" +
              sup.checkpoint_dir + "' — rerun with --resume";
    return res;
  }

  std::sort(res.quarantined.begin(), res.quarantined.end());
  r.shards = sup.shards;
  r.shard_retries = res.retries;
  r.quarantined_shards = res.quarantined;
  r.partial = !res.quarantined.empty();

  // Quarantined shards contribute no statuses and no tests.
  std::vector<const ShardState*> done;
  for (int i = 0; i < sup.shards; ++i)
    if (clean[i]) done.push_back(&states[i]);
  // total covers collapse plus the merge, not the shards' own runs.
  const auto t_merge = Clock::now();
  FaultSimScheduler sched(*ctx.view, opt.sim);
  detail::build_report(ctx, opt, sched, done, nullptr, r);
  r.time.total_s = seconds_since(t_merge) + ctx.collapse_s;
  return res;
}

}  // namespace obd::flow

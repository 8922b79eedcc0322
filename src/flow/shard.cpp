#include "flow/shard.hpp"

#include <chrono>
#include <filesystem>

#include "flow/campaign_detail.hpp"
#include "flow/inject.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;

ShardRunResult fail(ShardRunStatus status, std::string error) {
  ShardRunResult r;
  r.status = status;
  r.error = std::move(error);
  return r;
}

/// Snapshot of a shard's fault statuses for a heartbeat record. A fault is
/// "resolved" once it left kPending (kSatUnknown counts: the budget was
/// spent even though resume may reopen it).
obs::Heartbeat make_heartbeat(const ShardState& s, const ShardRunOptions& sopt,
                              const char* phase, long long ckpt_seq,
                              std::chrono::steady_clock::time_point t0) {
  obs::Heartbeat hb;
  hb.shard = static_cast<int>(sopt.shard_index);
  hb.phase = phase;
  hb.assigned = static_cast<long long>(s.status.size());
  for (const FaultStatus st : s.status) {
    if (st != FaultStatus::kPending) ++hb.resolved;
    if (st == FaultStatus::kRandomDetected || st == FaultStatus::kTestFound ||
        st == FaultStatus::kSatCube)
      ++hb.detected;
    else if (st == FaultStatus::kAbortedBacktracks ||
             st == FaultStatus::kAbortedTime || st == FaultStatus::kSatUnknown)
      ++hb.aborted;
  }
  hb.coverage = hb.assigned > 0
                    ? static_cast<double>(hb.detected) /
                          static_cast<double>(hb.assigned)
                    : 0.0;
  hb.ckpt_seq = ckpt_seq;
  hb.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  hb.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  return hb;
}

}  // namespace

ShardRunResult run_campaign_shard(const logic::SequentialCircuit& seq,
                                  const CampaignOptions& opt,
                                  const ShardRunOptions& sopt) {
  FaultInjector& inj = FaultInjector::instance();
  inj.visit(CrashPoint::kShardStart);  // delay entries stall here

  if (sopt.checkpoint_dir.empty())
    return fail(ShardRunStatus::kError, "shard mode needs a checkpoint dir");
  if (sopt.shard_count == 0 || sopt.shard_index >= sopt.shard_count)
    return fail(ShardRunStatus::kError,
                "invalid shard " + std::to_string(sopt.shard_index) + "/" +
                    std::to_string(sopt.shard_count));
  if (opt.ndetect > 0)
    return fail(ShardRunStatus::kError,
                "--ndetect is a whole-campaign construct; not available in "
                "shard mode");

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  if (!ctx.error.empty()) return fail(ShardRunStatus::kError, ctx.error);

  const std::string circuit = seq.core().name();
  const std::string path =
      checkpoint_path(sopt.checkpoint_dir, static_cast<int>(sopt.shard_index));

  ShardState s;
  std::string err;
  bool have_state = false;
  if (sopt.resume && std::filesystem::exists(path)) {
    if (!load_checkpoint(path, &s, &err))
      return fail(ShardRunStatus::kBadCheckpoint, path + ": " + err);
    if (!checkpoint_matches(s, opt, circuit, sopt.shard_index,
                            sopt.shard_count, ctx.n_reps, ctx.pool.size(),
                            &err))
      return fail(ShardRunStatus::kBadCheckpoint, path + ": " + err);
    have_state = true;
  }

  const auto t0 = std::chrono::steady_clock::now();
  long long ckpt_seq = 0;
  obs::ProgressWriter progress(sopt.progress_path, sopt.progress_interval_s);
  auto flush = [&](ShardPhase phase) {
    s.phase = phase;
    if (!save_checkpoint(path, s, &err)) return false;
    ++ckpt_seq;
    return true;
  };

  if (!have_state) {
    FaultSimScheduler sched(*ctx.view, opt.sim);
    s = detail::start_partition(ctx, sched, sopt.shard_index,
                                sopt.shard_count);
    s.circuit = circuit;
    s.options_fp = options_fingerprint(opt, circuit, sopt.shard_count);
    s.prng_state = util::Prng(opt.seed).state();
    if (!flush(ShardPhase::kPrepassDone))
      return fail(ShardRunStatus::kError, path + ": " + err);
    if (progress.active())
      progress.emit(make_heartbeat(s, sopt, "prepass", ckpt_seq, t0));
  } else {
    // Re-attempt time-budget aborts: they are load-dependent, not proofs.
    // With SAT escalation enabled, backtrack aborts (and stale sat-unknown
    // verdicts) also reopen — straight to the SAT backend, no PODEM redo —
    // so a PODEM-only checkpoint resumes into a provable-coverage run.
    bool reopened = false;
    for (FaultStatus& st : s.status) {
      if (st == FaultStatus::kAbortedTime) {
        st = FaultStatus::kPending;
        reopened = true;
      } else if (opt.sat_escalate && (st == FaultStatus::kAbortedBacktracks ||
                                      st == FaultStatus::kSatUnknown)) {
        st = FaultStatus::kSatUnknown;  // resolve_fault: SAT-only re-attempt
        reopened = true;
      }
    }
    if (!reopened && s.phase == ShardPhase::kDone) {
      ShardRunResult done;
      done.status = ShardRunStatus::kDone;
      done.state = std::move(s);
      return done;
    }
  }

  // Deterministic top-off over the assigned survivors, committing a
  // checkpoint every kCheckpointEvery results and on the stop flag. Shards
  // record no metrics, so the effort sheet is scratch.
  obs::Span topoff_span("topoff");
  obs::Sheet effort;
  int since_flush = 0;
  for (std::uint32_t j = 0; j < s.status.size(); ++j) {
    if (sopt.stop && *sopt.stop) {
      if (!flush(ShardPhase::kPodemPartial))
        return fail(ShardRunStatus::kError, path + ": " + err);
      ShardRunResult out;
      out.status = ShardRunStatus::kInterrupted;
      out.error = "interrupted; progress checkpointed to " + path;
      out.state = std::move(s);
      return out;
    }
    const FaultStatus st = s.status[j];
    if (st != FaultStatus::kPending &&
        !(opt.sat_escalate && st == FaultStatus::kSatUnknown))
      continue;
    detail::resolve_fault(ctx, opt, s, j, effort);
    if (++since_flush >= kCheckpointEvery) {
      if (!flush(ShardPhase::kPodemPartial))
        return fail(ShardRunStatus::kError, path + ": " + err);
      since_flush = 0;
    }
    if (progress.active())
      progress.maybe_emit(make_heartbeat(s, sopt, "topoff", ckpt_seq, t0));
  }
  topoff_span.close();

  if (!flush(ShardPhase::kDone))
    return fail(ShardRunStatus::kError, path + ": " + err);
  if (progress.active())
    progress.emit(make_heartbeat(s, sopt, "done", ckpt_seq, t0));

  ShardRunResult out;
  out.status = ShardRunStatus::kDone;
  out.state = std::move(s);
  return out;
}

}  // namespace obd::flow

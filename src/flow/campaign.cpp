#include "flow/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "flow/campaign_detail.hpp"
#include "obs/minijson.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Campaign-level metric ids (the scheduler's engine metrics are merged in
/// separately via FaultSimScheduler::merged_metrics).
struct FlowMetricIds {
  obs::MetricId podem_found;
  obs::MetricId podem_untestable;
  obs::MetricId podem_aborted;
  obs::MetricId podem_implications;
  obs::MetricId podem_backtracks;
  obs::MetricId podem_implications_per_fault;
  obs::MetricId sat_conflicts;
  obs::MetricId sat_decisions;
  obs::MetricId sat_restarts;
  obs::MetricId sat_conflicts_per_fault;
  obs::MetricId sat_inc_pairs;
  obs::MetricId sat_inc_cone_encodes;
  obs::MetricId sat_inc_cone_hits;
  obs::MetricId sat_inc_refutes;
  obs::MetricId sat_inc_fresh;
  obs::MetricId sat_inc_vars_shared;
  obs::MetricId sat_inc_clauses_kept;
  obs::MetricId ndetect_implications;
  obs::MetricId ndetect_backtracks;
  static const FlowMetricIds& get() {
    static const FlowMetricIds ids = [] {
      FlowMetricIds m;
      m.podem_found = obs::counter("atpg.podem_found");
      m.podem_untestable = obs::counter("atpg.podem_untestable");
      m.podem_aborted = obs::counter("atpg.podem_aborted");
      m.podem_implications = obs::counter("atpg.podem_implications");
      m.podem_backtracks = obs::counter("atpg.podem_backtracks");
      m.podem_implications_per_fault =
          obs::histogram("atpg.podem_implications_per_fault");
      m.sat_conflicts = obs::counter("sat.conflicts");
      m.sat_decisions = obs::counter("sat.decisions");
      m.sat_restarts = obs::counter("sat.restarts");
      m.sat_conflicts_per_fault = obs::histogram("sat.conflicts_per_fault");
      m.sat_inc_pairs = obs::counter("sat.incremental_pairs");
      m.sat_inc_cone_encodes = obs::counter("sat.cone_encodes");
      m.sat_inc_cone_hits = obs::counter("sat.cone_hits");
      m.sat_inc_refutes = obs::counter("sat.incremental_refutes");
      m.sat_inc_fresh = obs::counter("sat.fresh_fallbacks");
      m.sat_inc_vars_shared = obs::counter("sat.vars_shared");
      m.sat_inc_clauses_kept = obs::counter("sat.clauses_kept");
      m.ndetect_implications = obs::counter("ndetect.implications");
      m.ndetect_backtracks = obs::counter("ndetect.backtracks");
      return m;
    }();
    return ids;
  }
};

/// Materializes a representative subset; empty subset = the full list.
template <typename Fault>
std::vector<Fault> select_reps(const std::vector<Fault>& reps,
                               const detail::RepSubset& subset) {
  if (subset.empty()) return reps;
  std::vector<Fault> out;
  out.reserve(subset.size());
  for (const std::uint32_t i : subset) out.push_back(reps[i]);
  return out;
}

/// Keeps det_tests sorted by local_index (resume can revisit a
/// time-budget abort whose index precedes already-committed tests).
void insert_det_test(std::vector<ShardDetTest>& det, std::uint32_t local,
                     const TwoVectorTest& test) {
  const auto pos = std::lower_bound(
      det.begin(), det.end(), local,
      [](const ShardDetTest& d, std::uint32_t l) { return d.local_index < l; });
  det.insert(pos, ShardDetTest{local, test});
}

// Per-fault-type scheduler calls, so one template binds every model's
// context hooks. Stuck-at tests apply a single vector (v2).

std::vector<logic::InputVec> patterns_of(const std::vector<TwoVectorTest>& ts) {
  std::vector<logic::InputVec> p(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) p[i] = ts[i].v2;
  return p;
}

FaultSimEngine::Campaign sim_prepass(FaultSimScheduler& s,
                                     const std::vector<TwoVectorTest>& ts,
                                     const std::vector<StuckFault>& f) {
  return s.campaign_stuck(patterns_of(ts), f);
}
FaultSimEngine::Campaign sim_prepass(FaultSimScheduler& s,
                                     const std::vector<TwoVectorTest>& ts,
                                     const std::vector<TransitionFault>& f) {
  return s.campaign_transition(ts, f);
}
FaultSimEngine::Campaign sim_prepass(FaultSimScheduler& s,
                                     const std::vector<TwoVectorTest>& ts,
                                     const std::vector<ObdFaultSite>& f) {
  return s.campaign_obd(ts, f);
}

DetectionMatrix sim_matrix(FaultSimScheduler& s,
                           const std::vector<TwoVectorTest>& ts,
                           const std::vector<StuckFault>& f) {
  return s.matrix_stuck(patterns_of(ts), f);
}
DetectionMatrix sim_matrix(FaultSimScheduler& s,
                           const std::vector<TwoVectorTest>& ts,
                           const std::vector<TransitionFault>& f) {
  return s.matrix_transition(ts, f);
}
DetectionMatrix sim_matrix(FaultSimScheduler& s,
                           const std::vector<TwoVectorTest>& ts,
                           const std::vector<ObdFaultSite>& f) {
  return s.matrix_obd(ts, f);
}

/// Typed per-model state referenced by the context closures. shared_ptr
/// capture keeps a context copyable and self-contained.
template <typename Fault>
struct ModelData {
  std::shared_ptr<const logic::Circuit> view;  // the context's view
  std::vector<Fault> reps;
  PodemOptions popt;
  /// Lazily constructed on the first escalation; one persistent solver
  /// serves the whole campaign (or shard). Declared after `view` so the
  /// session's circuit reference outlives it.
  std::shared_ptr<sat::SatSession> session;
};

/// Binds the model hooks of `ctx` over the collapsed representatives.
template <typename Fault>
std::shared_ptr<ModelData<Fault>> bind_model(detail::CampaignContext& ctx,
                                             std::vector<Fault> reps,
                                             const CampaignOptions& opt) {
  auto data = std::make_shared<ModelData<Fault>>();
  data->view = ctx.view;
  data->reps = std::move(reps);
  data->popt = ctx.popt;
  ctx.n_reps = data->reps.size();
  ctx.prepass = [data](FaultSimScheduler& s,
                       const std::vector<TwoVectorTest>& ts,
                       const detail::RepSubset& subset) {
    return sim_prepass(s, ts, select_reps(data->reps, subset));
  };
  ctx.matrix = [data](FaultSimScheduler& s,
                      const std::vector<TwoVectorTest>& ts,
                      const detail::RepSubset& subset) {
    return sim_matrix(s, ts, select_reps(data->reps, subset));
  };
  ctx.generate = [data](std::uint32_t i) {
    return generate_test(*data->view, goals_of(*data->view, data->reps[i]),
                         data->popt);
  };
  sat::SatAtpgOptions satopt;
  satopt.conflict_budget = opt.sat_conflict_budget;
  ctx.escalate = [data, satopt](std::uint32_t i) {
    if (!data->session)
      data->session = std::make_shared<sat::SatSession>(*data->view, satopt);
    return data->session->generate(goals_of(*data->view, data->reps[i]));
  };
  ctx.escalate_stats = [data]() -> const sat::SatSessionStats* {
    return data->session ? &data->session->stats() : nullptr;
  };
  ctx.rep_name = [data](std::uint32_t i) {
    return fault_name(*data->view, data->reps[i]);
  };
  return data;
}

/// Collapsed OBD representatives of `core` (timed into ctx.collapse_s).
std::vector<ObdFaultSite> collapse_obd(const logic::Circuit& core,
                                       detail::CampaignContext& ctx) {
  const obs::Span span("collapse");
  const auto t0 = Clock::now();
  const auto faults = enumerate_obd_faults(core);
  ctx.faults_total = faults.size();
  std::vector<ObdFaultSite> reps =
      collapse_obd_faults(core, faults).representatives;
  ctx.collapse_s = seconds_since(t0);
  return reps;
}

/// Names the first net `view` reads (a gate input or a PO) that is neither
/// a PI nor a gate output; "" when there is none. The fault simulator would
/// read such a net as 0 while the legacy simulators, Circuit::eval3 and
/// PODEM's backtrace never set it, so a campaign refuses it. A sequential
/// core's undriven present-state nets are PIs of its scan view.
std::string undriven_read_net(const logic::Circuit& view) {
  std::vector<std::uint8_t> is_pi(view.num_nets(), 0);
  for (NetId pi : view.inputs()) is_pi[static_cast<std::size_t>(pi)] = 1;
  const auto undriven = [&](NetId n) {
    return !is_pi[static_cast<std::size_t>(n)] && view.driver_of(n) < 0;
  };
  for (const auto& g : view.gates())
    for (NetId in : g.inputs)
      if (undriven(in))
        return "net '" + view.net_name(in) + "' is read by gate '" + g.name +
               "' but is neither a primary input nor driven";
  for (NetId po : view.outputs())
    if (undriven(po))
      return "primary output '" + view.net_name(po) +
             "' is neither a primary input nor driven";
  return "";
}

}  // namespace

namespace detail {

std::uint64_t hash_matrix(const DetectionMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, m.n_tests);
  h = fnv1a(h, m.n_faults);
  for (std::uint64_t w : m.rows) h = fnv1a(h, w);
  return h;
}

void fill_structure(const CampaignContext& ctx, CampaignReport& r) {
  if (!ctx.view) return;
  const logic::Circuit& view = *ctx.view;
  r.gates = view.num_gates();
  r.nets = view.num_nets();
  r.pis = view.inputs().size();
  r.pos = view.outputs().size();
  r.depth = view.depth();
}

void init_report(const logic::SequentialCircuit& seq,
                 const CampaignOptions& opt, CampaignReport& r) {
  r.model = opt.model;
  r.threads = opt.sim.threads;
  r.scan = !seq.flops().empty();
  r.flops = seq.flops().size();
  r.circuit = seq.core().name();
  if (r.scan) r.scan_style = to_string(opt.scan_style);
}

CampaignContext make_context(const logic::SequentialCircuit& seq,
                             const CampaignOptions& opt) {
  CampaignContext ctx;
  ctx.popt.max_backtracks = opt.max_backtracks;
  ctx.popt.time_budget_s = opt.podem_time_budget_s;
  const bool scan = !seq.flops().empty();

  if (scan && opt.scan_style != ScanMode::kEnhanced) {
    // Launch-on-capture: the two-frame scan ATPG generates machine-
    // consistent (state, PI) tests, and their scan-view images feed the
    // same prepass/matrix hooks as the enhanced path. matrix_obd on the
    // scan view matches verify_scan_obd_test exactly because the LOC state
    // coupling is already baked into each test's frame-2 state.
    const std::string style = scan_style_name(opt.scan_style);
    if (opt.model != FaultModel::kObd) {
      ctx.error = "--scan-style " + style + " requires the obd fault model";
      return ctx;
    }
    if (opt.ndetect > 0) {
      // n-detect growth builds unconstrained combinational tests, which
      // would violate the LOC state coupling — reject rather than silently
      // dropping the option.
      ctx.error = "--ndetect is not supported with --scan-style " + style;
      return ctx;
    }
    if (opt.sat_escalate) {
      // The SAT backend encodes unconstrained two-frame instances; it does
      // not model the LOC state coupling. Reject rather than emit cubes the
      // scan machinery cannot apply.
      ctx.error = "--sat-escalate is not supported with --scan-style " + style;
      return ctx;
    }
    const auto prim = std::make_shared<const logic::SequentialCircuit>(
        logic::decompose_composites(seq));
    ctx.view = std::make_shared<const logic::Circuit>(prim->scan_view());
    ctx.error = prim->validate();
    if (ctx.error.empty()) ctx.error = undriven_read_net(*ctx.view);
    if (!ctx.error.empty()) return ctx;
    // Core fault indices carry over: scan_view preserves gate order.
    auto data = bind_model(ctx, collapse_obd(prim->core(), ctx), opt);
    ctx.escalate = nullptr;
    // The generator builds the two-frame unroll once and references
    // *prim, which the closure keeps alive.
    ctx.generate = [data, prim,
                    gen = std::make_shared<const ScanObdGenerator>(
                        *prim, opt.scan_style)](std::uint32_t i) {
      const ScanObdResult sr = gen->generate(data->reps[i], data->popt);
      TwoFrameResult t;
      t.status = sr.status;
      t.reason = sr.reason;
      if (sr.status == PodemStatus::kFound)
        t.test = scan_view_vectors(*prim, sr.test);
      t.backtracks = sr.backtracks;
      t.implications = sr.implications;
      return t;
    };
    if (opt.random_patterns > 0)
      for (const ScanObdTest& t :
           random_broadside_tests(*prim, *ctx.view, opt.scan_style,
                                  opt.random_patterns, opt.seed))
        ctx.pool.push_back(scan_view_vectors(*prim, t));
    return ctx;
  }

  // Full-scan application: flops become pseudo-PIs/POs and every test is a
  // plain (two-)vector on the view. InputVec test vectors carry any width,
  // so wide netlists and long scan chains need no special casing.
  logic::Circuit lowered = scan ? seq.scan_view() : seq.core();
  if (opt.model == FaultModel::kObd)
    lowered = logic::decompose_composites(lowered);
  ctx.view = std::make_shared<const logic::Circuit>(std::move(lowered));
  const logic::Circuit& view = *ctx.view;
  ctx.error = view.validate();
  if (ctx.error.empty()) ctx.error = undriven_read_net(view);
  if (!ctx.error.empty()) return ctx;

  if (opt.random_patterns > 0) {
    ctx.pool = random_pairs(static_cast<int>(view.inputs().size()),
                            opt.random_patterns, opt.seed);
    if (opt.model == FaultModel::kStuck)
      for (auto& t : ctx.pool) t.v1 = t.v2;  // single-vector application
  }

  if (opt.model == FaultModel::kStuck) {
    const obs::Span span("collapse");
    const auto t0 = Clock::now();
    const auto faults = enumerate_stuck_faults(view);
    ctx.faults_total = faults.size();
    auto reps = collapse_stuck_faults(view, faults).representatives;
    ctx.collapse_s = seconds_since(t0);
    bind_model(ctx, std::move(reps), opt);
  } else if (opt.model == FaultModel::kTransition) {
    auto reps = enumerate_transition_faults(view);
    ctx.faults_total = reps.size();  // no structural collapse
    bind_model(ctx, std::move(reps), opt);
  } else {
    auto data = bind_model(ctx, collapse_obd(view, ctx), opt);
    ctx.ndetect = [data](const CampaignOptions& o,
                         const std::vector<FaultStatus>& status,
                         obs::Sheet& effort, CampaignReport& r) {
      if (data->reps.empty()) return;
      const obs::Span span("ndetect");
      const auto t1 = Clock::now();
      NDetectOptions nopt;
      nopt.n = o.ndetect;
      nopt.random_pool = o.ndetect_random_pool;
      nopt.seed = o.seed;
      nopt.podem = data->popt;
      nopt.sim = o.sim;
      // SAT-proven-untestable representatives can never reach n
      // detections; growing toward them wastes the whole random pool.
      std::vector<ObdFaultSite> targets;
      targets.reserve(data->reps.size());
      for (std::size_t i = 0; i < data->reps.size(); ++i)
        if (status[i] != FaultStatus::kSatUntestable)
          targets.push_back(data->reps[i]);
      r.ndetect_pruned_untestable =
          static_cast<int>(data->reps.size() - targets.size());
      const NDetectResult nd = build_ndetect_set(*data->view, targets, nopt);
      r.ndetect_tests = static_cast<int>(nd.tests.size());
      r.ndetect_satisfied = nd.satisfied;
      // Its pool simulation counts as simulation work (the cone table is
      // the campaign's own); its PODEM search stays out of atpg.podem_*.
      const EngineMetricIds& sim = EngineMetricIds::get();
      effort.add(sim.propagations, nd.sim.propagations);
      effort.add(sim.frontier_events, nd.sim.frontier_events);
      effort.add(sim.frontier_gate_evals, nd.sim.frontier_gate_evals);
      effort.add(sim.frontier_early_exits, nd.sim.frontier_early_exits);
      const FlowMetricIds& mids = FlowMetricIds::get();
      effort.add(mids.ndetect_implications, nd.implications);
      effort.add(mids.ndetect_backtracks, nd.backtracks);
      r.time.ndetect_s = seconds_since(t1);
    };
  }
  return ctx;
}

ShardState start_partition(const CampaignContext& ctx, FaultSimScheduler& sched,
                           std::uint32_t shard_index,
                           std::uint32_t shard_count) {
  ShardState s;
  s.shard_index = shard_index;
  s.shard_count = shard_count;
  s.n_reps_total = ctx.n_reps;
  s.pool_size = ctx.pool.size();
  const std::size_t assigned =
      ShardState::assigned_count(ctx.n_reps, shard_index, shard_count);
  s.status.assign(assigned, FaultStatus::kPending);
  if (ctx.pool.empty() || assigned == 0) return s;

  // first_test[j] is the value the one-shot campaign computes for this
  // fault, so the useful-test marks merge losslessly across partitions.
  const obs::Span span("prepass");
  RepSubset subset;  // empty = every representative
  if (shard_count > 1)
    for (std::size_t j = 0; j < assigned; ++j)
      subset.push_back(shard_index +
                       static_cast<std::uint32_t>(j) * shard_count);
  const FaultSimEngine::Campaign campaign =
      ctx.prepass(sched, ctx.pool, subset);
  s.fault_block_evals = campaign.fault_block_evals;
  const PrepassMarks marks = mark_first_detections(campaign, ctx.pool.size());
  for (std::size_t j = 0; j < assigned; ++j)
    if (marks.skip[j]) s.status[j] = FaultStatus::kRandomDetected;
  for (std::size_t t = 0; t < ctx.pool.size(); ++t)
    if (marks.useful[t]) s.useful_pool.push_back(static_cast<std::uint32_t>(t));
  return s;
}

double resolve_fault(const CampaignContext& ctx, const CampaignOptions& opt,
                     ShardState& s, std::uint32_t local, obs::Sheet& effort) {
  const FlowMetricIds& mids = FlowMetricIds::get();
  const std::uint32_t global = s.shard_index + local * s.shard_count;
  FaultStatus& st = s.status[local];
  if (st == FaultStatus::kPending) {
    const TwoFrameResult res = ctx.generate(global);
    // Search effort: deterministic counts with no times, so a fixed
    // configuration always reports the same values.
    effort.add(mids.podem_implications, res.implications);
    effort.add(mids.podem_backtracks, res.backtracks);
    effort.observe(mids.podem_implications_per_fault,
                   static_cast<std::uint64_t>(res.implications));
    switch (res.status) {
      case PodemStatus::kFound:
        st = FaultStatus::kTestFound;
        insert_det_test(s.det_tests, local, res.test);
        effort.add(mids.podem_found);
        return 0.0;
      case PodemStatus::kUntestable:
        st = FaultStatus::kUntestable;
        effort.add(mids.podem_untestable);
        return 0.0;
      case PodemStatus::kAborted:
        effort.add(mids.podem_aborted);
        // Time aborts are load-dependent, not verdicts: they are
        // re-attempted on resume instead of escalated.
        if (res.reason == AbortReason::kTime) {
          st = FaultStatus::kAbortedTime;
          return 0.0;
        }
        st = FaultStatus::kAbortedBacktracks;
        if (!opt.sat_escalate) return 0.0;
        break;
    }
  }

  // Inline SAT escalation: the cube (or proof) lands at the fault's own
  // position, where a PODEM test would have, so escalation preserves the
  // cross-thread/shard determinism contract.
  const auto t0 = Clock::now();
  const obs::Span span("sat-escalate");
  const sat::SatAtpgResult sr = ctx.escalate(global);
  s.sat_conflicts += sr.conflicts;
  s.sat_decisions += sr.decisions;
  s.sat_restarts += sr.restarts;
  ++s.sat_hist[static_cast<std::size_t>(
      obs::log2_bucket(static_cast<std::uint64_t>(sr.conflicts)))];
  effort.add(mids.sat_conflicts, sr.conflicts);
  effort.add(mids.sat_decisions, sr.decisions);
  effort.add(mids.sat_restarts, sr.restarts);
  effort.observe(mids.sat_conflicts_per_fault,
                 static_cast<std::uint64_t>(sr.conflicts));
  switch (sr.verdict) {
    case sat::SatVerdict::kCube:
      st = FaultStatus::kSatCube;
      insert_det_test(s.det_tests, local, sr.cube.concrete());
      break;
    case sat::SatVerdict::kUntestable:
      st = FaultStatus::kSatUntestable;
      break;
    case sat::SatVerdict::kUnknown:
      st = FaultStatus::kSatUnknown;
      break;
  }
  return seconds_since(t0);
}

void build_report(const CampaignContext& ctx, const CampaignOptions& opt,
                  FaultSimScheduler& sched,
                  const std::vector<const ShardState*>& states,
                  const obs::Sheet* effort, CampaignReport& r) {
  r.faults_total = ctx.faults_total;
  r.faults_collapsed = ctx.n_reps;
  r.time.collapse_s = ctx.collapse_s;
  if (ctx.n_reps == 0) {
    r.coverage = 1.0;
    r.provable_coverage = 1.0;
    return;
  }

  // Pool tests that first-detected a fault in any partition, in pool
  // order: the union reproduces the one-shot prepass test list.
  std::vector<std::uint32_t> useful;
  for (const ShardState* s : states)
    useful.insert(useful.end(), s->useful_pool.begin(), s->useful_pool.end());
  std::sort(useful.begin(), useful.end());
  useful.erase(std::unique(useful.begin(), useful.end()), useful.end());

  // Top-off tests back in global representative order.
  struct DetEntry {
    std::uint64_t global;
    TwoVectorTest test;
  };
  std::vector<DetEntry> det;
  for (const ShardState* s : states)
    for (const ShardDetTest& d : s->det_tests)
      det.push_back({s->shard_index + static_cast<std::uint64_t>(
                                          d.local_index) * s->shard_count,
                     d.test});
  std::sort(det.begin(), det.end(),
            [](const DetEntry& a, const DetEntry& b) {
              return a.global < b.global;
            });

  std::vector<TwoVectorTest> tests;
  tests.reserve(useful.size() + det.size());
  for (const std::uint32_t t : useful) tests.push_back(ctx.pool[t]);
  for (const DetEntry& d : det) tests.push_back(d.test);
  r.tests_random = static_cast<int>(useful.size());
  r.tests_deterministic = static_cast<int>(det.size());

  std::vector<std::uint64_t> aborted_globals;
  for (const ShardState* s : states) {
    r.fault_block_evals += s->fault_block_evals;
    r.sat_conflicts += s->sat_conflicts;
    r.sat_decisions += s->sat_decisions;
    r.sat_restarts += s->sat_restarts;
    for (std::size_t k = 0; k < s->sat_hist.size(); ++k)
      r.sat_conflicts_hist[k] += s->sat_hist[k];
    for (std::size_t j = 0; j < s->status.size(); ++j) {
      const auto record_abort = [&] {
        ++r.aborted;
        aborted_globals.push_back(s->shard_index + j * s->shard_count);
      };
      switch (s->status[j]) {
        case FaultStatus::kUntestable: ++r.untestable; break;
        case FaultStatus::kAbortedBacktracks:
          record_abort();
          ++r.aborted_backtracks;
          break;
        case FaultStatus::kAbortedTime:
          record_abort();
          ++r.aborted_time;
          break;
        case FaultStatus::kSatCube: ++r.sat_detected; break;
        case FaultStatus::kSatUntestable: ++r.sat_untestable; break;
        case FaultStatus::kSatUnknown:
          // Budget-exhausted escalation: still an unresolved backtrack
          // abort from the campaign's point of view.
          ++r.sat_unknown;
          record_abort();
          ++r.aborted_backtracks;
          break;
        default: break;
      }
    }
  }
  // Shards visit faults in shard-major order; canonicalize to ascending
  // representative order.
  std::sort(aborted_globals.begin(), aborted_globals.end());
  for (const std::uint64_t g : aborted_globals)
    r.aborted_faults.push_back(ctx.rep_name(static_cast<std::uint32_t>(g)));

  // Incremental-session totals: only the process that escalated holds a
  // session (a merge's context never escalates, so it reports zeros).
  // Deterministic per configuration: escalation order and the persistent
  // solver are both deterministic.
  const sat::SatSessionStats* ss = ctx.escalate_stats();
  if (ss) {
    r.sat_pairs = ss->pairs_total;
    r.sat_cone_encodes = ss->cone_encodes;
    r.sat_cone_hits = ss->cone_hits;
    r.sat_unobservable_hits = ss->unobservable_hits;
    r.sat_session_refutes = ss->incremental_refutes;
    r.sat_fresh_fallbacks = ss->fresh_fallbacks;
    r.sat_vars_shared = ss->vars_shared;
    r.sat_clauses_kept = ss->clauses_kept;
  }

  // Detection matrix over the final set: recounts every detection (the
  // prepass only tracked first hits) and is the cross-run witness.
  const auto t0 = Clock::now();
  obs::Span matrix_span("matrix");
  const DetectionMatrix m = ctx.matrix(sched, tests, {});
  matrix_span.close();
  r.detected = m.covered_count;
  r.matrix_hash = hash_matrix(m);
  r.time.matrix_s = seconds_since(t0);
  r.tests_final = static_cast<int>(tests.size());
  if (opt.compact && !tests.empty()) {
    const obs::Span span("compact");
    const auto t1 = Clock::now();
    r.tests_final = static_cast<int>(greedy_cover(m).size());
    r.time.compact_s = seconds_since(t1);
  }

  // The sim fields read the sheet metrics.sim.* come from, so simulation
  // work on the effort sheet (the n-detect pool) counts in both.
  obs::Sheet merged = sched.merged_metrics();
  if (effort) merged.merge_from(*effort);
  const EngineMetricIds& sim = EngineMetricIds::get();
  r.cone_peak_bytes =
      static_cast<std::size_t>(merged.value(sim.cone_peak_bytes));
  r.propagations = merged.value(sim.propagations);
  r.frontier_events = merged.value(sim.frontier_events);
  r.frontier_gate_evals = merged.value(sim.frontier_gate_evals);
  r.frontier_early_exits = merged.value(sim.frontier_early_exits);
  if (effort) {
    if (ss) {
      const FlowMetricIds& mids = FlowMetricIds::get();
      merged.add(mids.sat_inc_pairs, ss->pairs_total);
      merged.add(mids.sat_inc_cone_encodes, ss->cone_encodes);
      merged.add(mids.sat_inc_cone_hits, ss->cone_hits);
      merged.add(mids.sat_inc_refutes, ss->incremental_refutes);
      merged.add(mids.sat_inc_fresh, ss->fresh_fallbacks);
      merged.add(mids.sat_inc_vars_shared, ss->vars_shared);
      merged.add(mids.sat_inc_clauses_kept, ss->clauses_kept);
    }
    r.metrics = obs::snapshot(merged);
  }

  r.coverage = static_cast<double>(r.detected) /
               static_cast<double>(ctx.n_reps);
  const std::size_t provable =
      ctx.n_reps - static_cast<std::size_t>(r.untestable + r.sat_untestable);
  r.provable_coverage =
      provable == 0 ? 1.0
                    : static_cast<double>(r.detected) /
                          static_cast<double>(provable);
}

}  // namespace detail

const char* to_string(FaultModel m) {
  switch (m) {
    case FaultModel::kStuck: return "stuck";
    case FaultModel::kTransition: return "transition";
    case FaultModel::kObd: return "obd";
  }
  return "?";
}

bool fault_model_from_string(const std::string& s, FaultModel& out) {
  if (s == "stuck") out = FaultModel::kStuck;
  else if (s == "transition") out = FaultModel::kTransition;
  else if (s == "obd") out = FaultModel::kObd;
  else return false;
  return true;
}

bool scan_style_from_string(const std::string& s, atpg::ScanMode& out) {
  if (s == "enhanced") out = ScanMode::kEnhanced;
  else if (s == "loc") out = ScanMode::kLaunchOnCapture;
  else if (s == "loc-held") out = ScanMode::kLaunchOnCaptureHeldPi;
  else return false;
  return true;
}

const char* scan_style_name(atpg::ScanMode m) {
  switch (m) {
    case ScanMode::kEnhanced: return "enhanced";
    case ScanMode::kLaunchOnCapture: return "loc";
    case ScanMode::kLaunchOnCaptureHeldPi: return "loc-held";
  }
  return "?";
}

CampaignReport run_campaign(const logic::SequentialCircuit& seq,
                            const CampaignOptions& opt) {
  CampaignReport r;
  detail::init_report(seq, opt, r);
  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  detail::fill_structure(ctx, r);
  if (!ctx.error.empty()) {
    r.error = ctx.error;
    return r;
  }

  // The in-memory partition 0 of 1: a sharded run's prepass, per-fault
  // resolution and report builder, with one scheduler for the prepass and
  // the matrix. Building the scheduler (its first engine and the circuit's
  // stem and cone tables) counts in the prepass.
  const auto t_total = Clock::now();
  FaultSimScheduler sched(*ctx.view, opt.sim);
  ShardState s = detail::start_partition(ctx, sched, 0, 1);
  r.time.random_s = seconds_since(t_total);
  obs::Sheet effort;
  {
    const obs::Span span("topoff");
    const auto t1 = Clock::now();
    for (std::uint32_t i = 0; i < s.status.size(); ++i)
      if (s.status[i] == FaultStatus::kPending)
        r.time.sat_s += detail::resolve_fault(ctx, opt, s, i, effort);
    r.time.atpg_s = seconds_since(t1);
  }
  // n-detect growth reads the final statuses; its effort lands on the sheet
  // the report builder snapshots.
  if (opt.ndetect > 0 && ctx.ndetect) ctx.ndetect(opt, s.status, effort, r);
  detail::build_report(ctx, opt, sched, {&s}, &effort, r);
  // total == the sum of the reported phases.
  r.time.total_s = seconds_since(t_total) + ctx.collapse_s;
  return r;
}

CampaignReport run_campaign(const logic::Circuit& c,
                            const CampaignOptions& opt) {
  return run_campaign(logic::SequentialCircuit(c), opt);
}

namespace {

std::string json_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string report_json(const CampaignReport& r) {
  std::string j = "{\n";
  j += "  \"tool\": \"obd_atpg\",\n";
  // Circuit names, diagnostics and fault names may carry quotes,
  // backslashes or control characters (the .bench grammar barely restricts
  // net names).
  using obs::minijson::escape;
  if (!r.ok()) j += "  \"error\": \"" + escape(r.error) + "\",\n";
  j += "  \"circuit\": \"" + escape(r.circuit) + "\",\n";
  j += "  \"model\": \"" + std::string(to_string(r.model)) + "\",\n";
  j += "  \"structure\": {\"gates\": " + std::to_string(r.gates) +
       ", \"nets\": " + std::to_string(r.nets) +
       ", \"pis\": " + std::to_string(r.pis) +
       ", \"pos\": " + std::to_string(r.pos) +
       ", \"flops\": " + std::to_string(r.flops) +
       ", \"depth\": " + std::to_string(r.depth) +
       ", \"scan\": " + (r.scan ? "true" : "false") +
       ", \"scan_style\": \"" + escape(r.scan_style) + "\"},\n";
  j += "  \"faults\": {\"total\": " + std::to_string(r.faults_total) +
       ", \"collapsed\": " + std::to_string(r.faults_collapsed) +
       ", \"detected\": " + std::to_string(r.detected) +
       ", \"untestable\": " + std::to_string(r.untestable) +
       ", \"aborted\": " + std::to_string(r.aborted) +
       ", \"aborted_backtracks\": " + std::to_string(r.aborted_backtracks) +
       ", \"aborted_time\": " + std::to_string(r.aborted_time) +
       ", \"coverage\": " + json_num(r.coverage) +
       ",\n             \"sat_detected\": " + std::to_string(r.sat_detected) +
       ", \"sat_untestable\": " + std::to_string(r.sat_untestable) +
       ", \"sat_unknown\": " + std::to_string(r.sat_unknown) +
       ", \"sat_conflicts\": " + std::to_string(r.sat_conflicts) +
       ", \"proven_untestable\": " +
       std::to_string(r.untestable + r.sat_untestable) +
       ", \"provable_coverage\": " + json_num(r.provable_coverage) + "},\n";
  j += "  \"aborted_faults\": [";
  for (std::size_t i = 0; i < r.aborted_faults.size(); ++i) {
    if (i > 0) j += ", ";
    j += "\"" + escape(r.aborted_faults[i]) + "\"";
  }
  j += "],\n";
  j += "  \"tests\": {\"random\": " + std::to_string(r.tests_random) +
       ", \"deterministic\": " + std::to_string(r.tests_deterministic) +
       ", \"final\": " + std::to_string(r.tests_final) +
       ", \"ndetect\": " + std::to_string(r.ndetect_tests) +
       ", \"ndetect_satisfied\": " + std::to_string(r.ndetect_satisfied) +
       ", \"ndetect_pruned_untestable\": " +
       std::to_string(r.ndetect_pruned_untestable) + "},\n";
  if (r.shards > 0) {
    j += "  \"shards\": {\"count\": " + std::to_string(r.shards) +
         ", \"retries\": " + std::to_string(r.shard_retries) +
         ", \"partial\": " + (r.partial ? "true" : "false") +
         ", \"quarantined\": [";
    for (std::size_t i = 0; i < r.quarantined_shards.size(); ++i) {
      if (i > 0) j += ", ";
      j += std::to_string(r.quarantined_shards[i]);
    }
    j += "]},\n";
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llx",
                static_cast<unsigned long long>(r.matrix_hash));
  j += "  \"sim\": {\"threads\": " + std::to_string(r.threads) +
       ", \"fault_block_evals\": " + std::to_string(r.fault_block_evals) +
       ", \"matrix_hash\": \"" + hash +
       "\",\n          \"cone_peak_bytes\": " +
       std::to_string(r.cone_peak_bytes) +
       ", \"propagations\": " + std::to_string(r.propagations) +
       ", \"frontier_events\": " + std::to_string(r.frontier_events) +
       ", \"frontier_gate_evals\": " + std::to_string(r.frontier_gate_evals) +
       ", \"frontier_early_exits\": " +
       std::to_string(r.frontier_early_exits) + "},\n";
  // SAT escalation detail: effort totals plus the per-fault conflict
  // histogram (log2 buckets, trailing zeroes trimmed).
  if (r.sat_detected + r.sat_untestable + r.sat_unknown > 0) {
    int hi = obs::kHistBuckets;
    while (hi > 0 && r.sat_conflicts_hist[static_cast<std::size_t>(hi - 1)] == 0)
      --hi;
    j += "  \"sat_escalation\": {\"conflicts\": " +
         std::to_string(r.sat_conflicts) +
         ", \"decisions\": " + std::to_string(r.sat_decisions) +
         ", \"restarts\": " + std::to_string(r.sat_restarts) +
         ", \"conflicts_per_fault_log2\": [";
    for (int b = 0; b < hi; ++b) {
      if (b > 0) j += ", ";
      j += std::to_string(r.sat_conflicts_hist[static_cast<std::size_t>(b)]);
    }
    j += "]";
    // Incremental-session detail (one-shot runs; a sharded merge reports
    // zeros — sessions are process-local).
    if (r.sat_pairs > 0) {
      j += ",\n                     \"incremental\": {\"pairs\": " +
           std::to_string(r.sat_pairs) +
           ", \"cone_encodes\": " + std::to_string(r.sat_cone_encodes) +
           ", \"cone_hits\": " + std::to_string(r.sat_cone_hits) +
           ", \"unobservable_hits\": " +
           std::to_string(r.sat_unobservable_hits) +
           ", \"incremental_refutes\": " +
           std::to_string(r.sat_session_refutes) +
           ", \"fresh_fallbacks\": " + std::to_string(r.sat_fresh_fallbacks) +
           ", \"vars_shared\": " + std::to_string(r.sat_vars_shared) +
           ", \"clauses_kept\": " + std::to_string(r.sat_clauses_kept) + "}";
    }
    j += "},\n";
  }
  // Every metric the run touched, self-describing (kind-tagged), sorted by
  // name. Deterministic: the prepass counters are the same at any thread
  // count; the matrix's sim counters follow its block width, which the
  // thread count can change.
  if (!r.metrics.empty()) {
    j += "  \"metrics\": {";
    bool first = true;
    for (const obs::MetricValue& m : r.metrics) {
      if (!first) j += ",";
      first = false;
      j += "\n    \"" + escape(m.name) + "\": ";
      if (m.kind == obs::MetricKind::kHistogram) {
        int hi = obs::kHistBuckets;
        while (hi > 0 && m.hist.buckets[static_cast<std::size_t>(hi - 1)] == 0)
          --hi;
        j += "{\"count\": " + std::to_string(m.hist.count) +
             ", \"sum\": " + std::to_string(m.hist.sum) +
             ", \"max\": " + std::to_string(m.hist.max) +
             ", \"log2_buckets\": [";
        for (int b = 0; b < hi; ++b) {
          if (b > 0) j += ", ";
          j += std::to_string(m.hist.buckets[static_cast<std::size_t>(b)]);
        }
        j += "]}";
      } else {
        j += std::to_string(m.value);
      }
    }
    j += "\n  },\n";
  }
  // Wall-clock phase durations. Timing-dependent by nature: these are the
  // only fields expected to differ between otherwise identical runs, which
  // is why they live in their own object, outside everything fingerprinted
  // or byte-compared. topoff is the deterministic search minus its SAT
  // share.
  const double topoff_s = std::max(0.0, r.time.atpg_s - r.time.sat_s);
  j += "  \"timing\": {\"parse\": " + json_num(r.time.parse_s) +
       ", \"collapse\": " + json_num(r.time.collapse_s) +
       ", \"prepass\": " + json_num(r.time.random_s) +
       ", \"topoff\": " + json_num(topoff_s) +
       ", \"sat\": " + json_num(r.time.sat_s) +
       ", \"matrix\": " + json_num(r.time.matrix_s) +
       ", \"compact\": " + json_num(r.time.compact_s) +
       ", \"ndetect\": " + json_num(r.time.ndetect_s) +
       ", \"total\": " + json_num(r.time.total_s) + "}\n";
  j += "}\n";
  return j;
}

void print_report(const CampaignReport& r) {
  if (!r.ok()) {
    std::printf("error: %s\n", r.error.c_str());
    return;
  }
  util::AsciiTable t(r.circuit + " · " + to_string(r.model) + " campaign" +
                     (r.partial ? " (PARTIAL)" : ""));
  t.set_header({"metric", "value"});
  t.add_row({"gates / nets / depth", std::to_string(r.gates) + " / " +
                                         std::to_string(r.nets) + " / " +
                                         std::to_string(r.depth)});
  t.add_row({"PIs / POs / flops", std::to_string(r.pis) + " / " +
                                      std::to_string(r.pos) + " / " +
                                      std::to_string(r.flops) +
                                      (r.scan ? " (" + r.scan_style + ")"
                                              : "")});
  t.add_row({"faults (total -> collapsed)", std::to_string(r.faults_total) +
                                                " -> " +
                                                std::to_string(r.faults_collapsed)});
  t.add_row({"detected / untestable / aborted",
             std::to_string(r.detected) + " / " + std::to_string(r.untestable) +
                 " / " + std::to_string(r.aborted) +
                 (r.aborted > 0
                      ? "  (backtracks " + std::to_string(r.aborted_backtracks) +
                            ", time " + std::to_string(r.aborted_time) + ")"
                      : "")});
  if (r.sat_detected + r.sat_untestable + r.sat_unknown > 0) {
    t.add_row({"SAT cubes / proofs / unknown",
               std::to_string(r.sat_detected) + " / " +
                   std::to_string(r.sat_untestable) + " / " +
                   std::to_string(r.sat_unknown)});
    t.add_row({"SAT conflicts / decisions / restarts",
               std::to_string(r.sat_conflicts) + " / " +
                   std::to_string(r.sat_decisions) + " / " +
                   std::to_string(r.sat_restarts)});
    if (r.sat_pairs > 0)
      t.add_row({"SAT incremental refutes / fresh",
                 std::to_string(r.sat_session_refutes) + " / " +
                     std::to_string(r.sat_fresh_fallbacks) + "  (cones " +
                     std::to_string(r.sat_cone_encodes) + " encoded, " +
                     std::to_string(r.sat_cone_hits) + " reused)"});
    // Compact per-fault hardness profile: "b3:12" = 12 escalated faults
    // needed [4, 8) conflicts.
    std::string hist;
    for (int b = 0; b < obs::kHistBuckets; ++b) {
      const std::uint64_t n = r.sat_conflicts_hist[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!hist.empty()) hist += "  ";
      hist += "b" + std::to_string(b) + ":" + std::to_string(n);
    }
    if (!hist.empty())
      t.add_row({"SAT conflicts/fault (log2 buckets)", hist});
  }
  t.add_row({"coverage (collapsed)",
             util::format_g(100.0 * r.coverage, 4) + "%"});
  t.add_row({"provable coverage",
             util::format_g(100.0 * r.provable_coverage, 4) + "%  (" +
                 std::to_string(r.untestable + r.sat_untestable) +
                 " proven untestable)"});
  t.add_row({"tests random / determ / final",
             std::to_string(r.tests_random) + " / " +
                 std::to_string(r.tests_deterministic) + " / " +
                 std::to_string(r.tests_final)});
  if (r.ndetect_tests > 0)
    t.add_row({"n-detect tests / satisfied",
               std::to_string(r.ndetect_tests) + " / " +
                   std::to_string(r.ndetect_satisfied)});
  if (r.shards > 0) {
    std::string q;
    for (const int s : r.quarantined_shards)
      q += (q.empty() ? "" : ", ") + std::to_string(s);
    t.add_row({"shards / retries",
               std::to_string(r.shards) + " / " +
                   std::to_string(r.shard_retries) +
                   (q.empty() ? "" : "  (quarantined: " + q + ")")});
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llx",
                static_cast<unsigned long long>(r.matrix_hash));
  t.add_row({"matrix hash", hash});
  t.add_row({"threads", std::to_string(r.threads)});
  if (r.propagations > 0)
    t.add_row({"frontier evals / early exits",
               std::to_string(r.frontier_gate_evals) + " / " +
                   std::to_string(r.frontier_early_exits)});
  {
    std::string phases =
        "collapse " + util::format_g(r.time.collapse_s, 3) + ", prepass " +
        util::format_g(r.time.random_s, 3) + ", topoff " +
        util::format_g(std::max(0.0, r.time.atpg_s - r.time.sat_s), 3);
    if (r.time.sat_s > 0.0)
      phases += ", sat " + util::format_g(r.time.sat_s, 3);
    phases += ", matrix " + util::format_g(r.time.matrix_s, 3);
    if (r.time.compact_s > 0.0)
      phases += ", compact " + util::format_g(r.time.compact_s, 3);
    if (r.time.ndetect_s > 0.0)
      phases += ", ndetect " + util::format_g(r.time.ndetect_s, 3);
    t.add_row({"wall clock",
               util::format_g(r.time.total_s, 3) + " s  (" + phases + ")"});
  }
  t.print();
}

}  // namespace obd::flow

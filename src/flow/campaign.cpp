#include "flow/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "flow/campaign_detail.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"
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
  obs::MetricId seeded_tests;
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
      m.seeded_tests = obs::counter("atpg.seeded_tests");
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

/// Launch-on-capture scan campaign (OBD model): the two-frame scan ATPG
/// generates machine-consistent (state, PI) tests, whose scan-view images
/// then feed the same matrix/compaction tail as the enhanced path. The
/// gross-delay semantics of matrix_obd on the scan view match
/// verify_scan_obd_test exactly because the LOC state coupling is already
/// baked into each test's frame-2 state.
void drive_loc_scan(const logic::SequentialCircuit& seq,
                    const CampaignOptions& opt, CampaignReport& r) {
  const auto t_total = Clock::now();
  const logic::SequentialCircuit prim = logic::decompose_composites(seq);
  const logic::Circuit view = prim.scan_view();
  detail::fill_structure(view, r);
  const std::string diag = prim.validate();
  if (!diag.empty()) {
    r.error = diag;
    return;
  }

  obs::Span collapse_span("collapse");
  const auto t0 = Clock::now();
  auto faults = enumerate_obd_faults(prim.core());
  r.faults_total = faults.size();
  const CollapsedFaults collapsed = collapse_obd_faults(prim.core(), faults);
  const std::vector<ObdFaultSite>& reps = collapsed.representatives;
  r.faults_collapsed = reps.size();
  r.time.collapse_s = seconds_since(t0);
  collapse_span.close();
  if (reps.empty()) {
    r.coverage = 1.0;
    r.provable_coverage = 1.0;
    r.time.total_s = seconds_since(t_total);
    return;
  }

  PodemOptions popt;
  popt.max_backtracks = opt.max_backtracks;
  popt.time_budget_s = opt.podem_time_budget_s;
  popt.sim = opt.sim;
  popt.random_phase = opt.random_patterns;
  popt.random_phase_seed = opt.seed;

  const auto t1 = Clock::now();
  const ScanCampaign sc = run_scan_obd_atpg(prim, reps, opt.scan_style, popt);
  r.tests_random = sc.random_tests;
  r.tests_deterministic = sc.found - sc.random_found;
  r.untestable = sc.untestable;
  r.aborted = sc.aborted;
  r.fault_block_evals = sc.fault_block_evals;
  r.time.random_s = sc.random_seconds;
  r.time.atpg_s = seconds_since(t1) - sc.random_seconds;

  // Matrix + compaction over the scan-view images of the LOC tests.
  std::vector<TwoVectorTest> vectors;
  vectors.reserve(sc.tests.size());
  for (const ScanObdTest& t : sc.tests)
    vectors.push_back(scan_view_vectors(prim, t));
  FaultSimScheduler sched(view, opt.sim);
  detail::matrix_and_compact(opt, vectors.size(),
                             [&] { return sched.matrix_obd(vectors, reps); },
                             r);
  detail::fill_sim_stats(sched, r);
  r.metrics = obs::snapshot(sched.merged_metrics());
  r.coverage =
      static_cast<double>(r.detected) / static_cast<double>(reps.size());
  const std::size_t provable =
      reps.size() - static_cast<std::size_t>(r.untestable);
  r.provable_coverage =
      provable == 0 ? 1.0
                    : static_cast<double>(r.detected) /
                          static_cast<double>(provable);
  r.time.total_s = seconds_since(t_total);
}

/// Shared campaign skeleton over the model context: prepass, deterministic
/// top-off, matrix, compaction. The one-shot counterpart of the shard
/// executor — both call the same ctx hooks, so a sharded merge reproducing
/// this path bit-for-bit is structural, not coincidental.
/// Deterministic random completion of a SAT cube's don't-care bits. Stuck
/// campaigns keep the single-vector convention (v1 == v2); two-frame ones
/// fill each frame independently.
TwoVectorTest fill_cube(const XTwoVectorTest& cube, std::size_t n_pi,
                        FaultModel model, util::Prng& prng) {
  TwoVectorTest t = cube.concrete();
  for (std::size_t b = 0; b < n_pi; ++b)
    if (!cube.v2.care_mask.bit(b)) t.v2.set_bit(b, prng.next_bool());
  if (model == FaultModel::kStuck) {
    t.v1 = t.v2;
    return t;
  }
  for (std::size_t b = 0; b < n_pi; ++b)
    if (!cube.v1.care_mask.bit(b)) t.v1.set_bit(b, prng.next_bool());
  return t;
}

void drive_ctx(const detail::CampaignContext& ctx, const CampaignOptions& opt,
               CampaignReport& r,
               detail::RepSubset* sat_untestable_out = nullptr) {
  const auto t_total = Clock::now();
  r.faults_total = ctx.faults_total;
  r.faults_collapsed = ctx.n_reps;
  if (ctx.n_reps == 0) {
    r.coverage = 1.0;
    r.provable_coverage = 1.0;
    r.time.total_s = seconds_since(t_total);
    return;
  }

  FaultSimScheduler sched(ctx.view, opt.sim);
  std::vector<TwoVectorTest> tests;
  std::vector<std::uint8_t> skip(ctx.n_reps, 0);

  // Random-pattern fault-dropping prepass: detected faults skip the
  // deterministic search; each first-detecting pattern joins the set.
  if (opt.random_patterns > 0) {
    const obs::Span span("prepass");
    const auto t0 = Clock::now();
    const std::vector<TwoVectorTest> pool = detail::random_pool(ctx.view, opt);
    const FaultSimEngine::Campaign campaign = ctx.prepass(sched, pool, {});
    r.fault_block_evals = campaign.fault_block_evals;
    const PrepassMarks marks = mark_first_detections(campaign, pool.size());
    skip = marks.skip;
    for (std::size_t t = 0; t < pool.size(); ++t)
      if (marks.useful[t]) tests.push_back(pool[t]);
    r.tests_random = static_cast<int>(tests.size());
    r.time.random_s = seconds_since(t0);
  }

  // Deterministic top-off over the surviving representatives. Backtrack
  // aborts optionally escalate inline to the SAT backend — the cube (or
  // proof) lands at the same position a PODEM test would have, so
  // escalation preserves the cross-thread/shard determinism contract.
  obs::Sheet csheet;
  {
    const obs::Span span("topoff");
    const FlowMetricIds& mids = FlowMetricIds::get();
    const auto t0 = Clock::now();
    const auto record_abort = [&](std::uint32_t i, bool timed) {
      ++r.aborted;
      if (timed) ++r.aborted_time;
      else ++r.aborted_backtracks;
      if (ctx.rep_name) r.aborted_faults.push_back(ctx.rep_name(i));
    };
    std::vector<TwoVectorTest> seed_pool;
    for (std::uint32_t i = 0; i < ctx.n_reps; ++i) {
      if (skip[i]) continue;
      // SAT-cube seed pool: before paying for a PODEM search, try the
      // random completions of earlier escalation cubes — aborts cluster
      // structurally, so one hard fault's cube often covers its neighbors.
      if (!seed_pool.empty()) {
        const FaultSimEngine::Campaign sc = ctx.prepass(sched, seed_pool, {i});
        if (sc.first_test[0] >= 0) {
          tests.push_back(seed_pool[static_cast<std::size_t>(sc.first_test[0])]);
          ++r.seeded_tests;
          csheet.add(mids.seeded_tests);
          continue;
        }
      }
      const TwoFrameResult res = ctx.generate(i);
      // Search effort: deterministic counts with no times, so a fixed
      // configuration always reports the same values.
      csheet.add(mids.podem_implications, res.implications);
      csheet.add(mids.podem_backtracks, res.backtracks);
      csheet.observe(mids.podem_implications_per_fault,
                     static_cast<std::uint64_t>(res.implications));
      switch (res.status) {
        case PodemStatus::kFound:
          tests.push_back(res.test);
          ++r.tests_deterministic;
          csheet.add(mids.podem_found);
          break;
        case PodemStatus::kUntestable:
          ++r.untestable;
          csheet.add(mids.podem_untestable);
          break;
        case PodemStatus::kAborted: {
          const bool timed = res.reason == AbortReason::kTime;
          csheet.add(mids.podem_aborted);
          if (timed || !opt.sat_escalate || !ctx.escalate) {
            record_abort(i, timed);
            break;
          }
          const auto t_sat = Clock::now();
          const obs::Span sat_span("sat-escalate");
          const sat::SatAtpgResult sr = ctx.escalate(i);
          r.time.sat_s += seconds_since(t_sat);
          r.sat_conflicts += sr.conflicts;
          r.sat_decisions += sr.decisions;
          r.sat_restarts += sr.restarts;
          ++r.sat_conflicts_hist[static_cast<std::size_t>(
              obs::log2_bucket(static_cast<std::uint64_t>(sr.conflicts)))];
          csheet.add(mids.sat_conflicts, sr.conflicts);
          csheet.add(mids.sat_decisions, sr.decisions);
          csheet.add(mids.sat_restarts, sr.restarts);
          csheet.observe(mids.sat_conflicts_per_fault,
                         static_cast<std::uint64_t>(sr.conflicts));
          switch (sr.verdict) {
            case sat::SatVerdict::kCube:
              tests.push_back(sr.cube.concrete());
              ++r.sat_detected;
              if (opt.seed_sat_cubes) {
                util::Prng prng(opt.seed ^ (0x5eedc0beull + i));
                for (int k = 0; k < 4; ++k)
                  seed_pool.push_back(fill_cube(sr.cube,
                                                ctx.view.inputs().size(),
                                                opt.model, prng));
              }
              break;
            case sat::SatVerdict::kUntestable:
              ++r.sat_untestable;
              if (sat_untestable_out) sat_untestable_out->push_back(i);
              break;
            case sat::SatVerdict::kUnknown:
              ++r.sat_unknown;
              record_abort(i, false);
              break;
          }
          break;
        }
      }
    }
    // Incremental-session totals (nullptr when nothing escalated or the
    // session is off). Deterministic per configuration: escalation order
    // and the persistent solver are both deterministic.
    if (ctx.escalate_stats) {
      if (const sat::SatSessionStats* ss = ctx.escalate_stats()) {
        r.sat_pairs = ss->pairs_total;
        r.sat_cone_encodes = ss->cone_encodes;
        r.sat_cone_hits = ss->cone_hits;
        r.sat_unobservable_hits = ss->unobservable_hits;
        r.sat_incremental_refutes = ss->incremental_refutes;
        r.sat_fresh_fallbacks = ss->fresh_fallbacks;
        r.sat_vars_shared = ss->vars_shared;
        r.sat_clauses_kept = ss->clauses_kept;
        csheet.add(mids.sat_inc_pairs, ss->pairs_total);
        csheet.add(mids.sat_inc_cone_encodes, ss->cone_encodes);
        csheet.add(mids.sat_inc_cone_hits, ss->cone_hits);
        csheet.add(mids.sat_inc_refutes, ss->incremental_refutes);
        csheet.add(mids.sat_inc_fresh, ss->fresh_fallbacks);
        csheet.add(mids.sat_inc_vars_shared, ss->vars_shared);
        csheet.add(mids.sat_inc_clauses_kept, ss->clauses_kept);
      }
    }
    r.time.atpg_s = seconds_since(t0);
  }

  // Detection matrix over the final set: recounts every detection (the
  // prepass only tracked first hits) and is the cross-thread witness.
  detail::matrix_and_compact(opt, tests.size(),
                             [&] { return ctx.matrix(sched, tests, {}); }, r);
  detail::fill_sim_stats(sched, r);
  {
    obs::Sheet merged = sched.merged_metrics();
    merged.merge_from(csheet);
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
  r.time.total_s = seconds_since(t_total);
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

void fill_structure(const logic::Circuit& view, CampaignReport& r) {
  r.gates = view.num_gates();
  r.nets = view.num_nets();
  r.pis = view.inputs().size();
  r.pos = view.outputs().size();
  r.depth = view.depth();
}

void fill_sim_stats(const FaultSimScheduler& sched, CampaignReport& r) {
  const atpg::SimStats s = sched.stats();
  r.cone_evictions = s.cone_evictions;
  r.cone_resident = s.cone_resident;
  r.cone_peak_bytes = s.cone_peak_bytes;
  r.propagations = s.propagations;
  r.frontier_events = s.frontier_events;
  r.frontier_gate_evals = s.frontier_gate_evals;
  r.frontier_early_exits = s.frontier_early_exits;
}

void matrix_and_compact(const CampaignOptions& opt, std::size_t n_tests,
                        const std::function<DetectionMatrix()>& build,
                        CampaignReport& r) {
  const auto t0 = Clock::now();
  obs::Span matrix_span("matrix");
  const DetectionMatrix m = build();
  matrix_span.close();
  r.detected = m.covered_count;
  r.matrix_hash = hash_matrix(m);
  r.time.matrix_s = seconds_since(t0);
  r.tests_final = static_cast<int>(n_tests);
  if (opt.compact && n_tests > 0) {
    const obs::Span span("compact");
    const auto t1 = Clock::now();
    r.tests_final = static_cast<int>(greedy_cover(m).size());
    r.time.compact_s = seconds_since(t1);
  }
}

std::vector<TwoVectorTest> random_pool(const logic::Circuit& view,
                                       const CampaignOptions& opt) {
  if (opt.random_patterns <= 0) return {};
  std::vector<TwoVectorTest> pool = random_pairs(
      static_cast<int>(view.inputs().size()), opt.random_patterns, opt.seed);
  if (opt.model == FaultModel::kStuck)
    for (auto& t : pool) t.v1 = t.v2;  // single-vector application
  return pool;
}

void init_report(const logic::SequentialCircuit& seq,
                 const CampaignOptions& opt, CampaignReport& r) {
  r.model = opt.model;
  r.threads = opt.sim.threads;
  r.lanes = 64 * std::max(1, opt.sim.lane_words);
  r.packing = to_string(opt.sim.packing);
  r.scan = !seq.flops().empty();
  r.flops = seq.flops().size();
  r.circuit = seq.core().name();
}

namespace {

/// Typed per-model state referenced by the context closures. shared_ptr
/// capture keeps a context copyable and self-contained.
template <typename Fault>
struct ModelData {
  logic::Circuit view;
  std::vector<Fault> reps;
  PodemOptions popt;
  /// Lazily constructed on the first escalation when sat_incremental is
  /// on; one persistent solver serves the whole campaign (or shard).
  /// Declared after `view` so the session's circuit reference outlives it.
  std::shared_ptr<sat::SatSession> session;
};

}  // namespace

CampaignContext make_context(const logic::SequentialCircuit& seq,
                             const CampaignOptions& opt) {
  CampaignContext ctx;
  const bool scan = !seq.flops().empty();
  if (scan && opt.scan_style != ScanMode::kEnhanced) {
    ctx.error = "launch-on-capture scan styles use the dedicated scan "
                "driver, not the shared campaign context";
    return ctx;
  }

  // Full-scan application: flops become pseudo-PIs/POs and every test is a
  // plain (two-)vector on the view. InputVec test vectors carry any width,
  // so wide netlists and long scan chains need no special casing.
  ctx.view = scan ? seq.scan_view() : seq.core();
  if (opt.model == FaultModel::kObd)
    ctx.view = logic::decompose_composites(ctx.view);

  const std::string diag = ctx.view.validate();
  if (!diag.empty()) {
    ctx.error = diag;
    return ctx;
  }

  ctx.popt.max_backtracks = opt.max_backtracks;
  ctx.popt.time_budget_s = opt.podem_time_budget_s;
  ctx.popt.sim = opt.sim;

  sat::SatAtpgOptions satopt;
  satopt.conflict_budget = opt.sat_conflict_budget;

  if (opt.model == FaultModel::kStuck) {
    auto data = std::make_shared<ModelData<StuckFault>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    const obs::Span span("collapse");
    const auto t0 = Clock::now();
    const auto faults = enumerate_stuck_faults(data->view);
    ctx.faults_total = faults.size();
    data->reps = collapse_stuck_faults(data->view, faults).representatives;
    ctx.collapse_s = seconds_since(t0);
    ctx.n_reps = data->reps.size();
    auto patterns_of = [](const std::vector<TwoVectorTest>& ts) {
      std::vector<logic::InputVec> p(ts.size());
      for (std::size_t i = 0; i < ts.size(); ++i) p[i] = ts[i].v2;
      return p;
    };
    ctx.prepass = [data, patterns_of](FaultSimScheduler& s,
                                      const std::vector<TwoVectorTest>& ts,
                                      const RepSubset& subset) {
      return s.campaign_stuck(patterns_of(ts), select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      const PodemResult pr = podem_stuck_at(data->view, data->reps[i],
                                            data->popt);
      TwoFrameResult t;
      t.status = pr.status;
      t.reason = pr.reason;
      t.test = TwoVectorTest{pr.vector.bits, pr.vector.bits};
      t.backtracks = pr.backtracks;
      t.implications = pr.implications;
      return t;
    };
    ctx.matrix = [data, patterns_of](FaultSimScheduler& s,
                                     const std::vector<TwoVectorTest>& ts,
                                     const RepSubset& subset) {
      return s.matrix_stuck(patterns_of(ts), select_reps(data->reps, subset));
    };
    ctx.escalate = [data, satopt, inc = opt.sat_incremental](std::uint32_t i) {
      if (inc) {
        if (!data->session)
          data->session =
              std::make_shared<sat::SatSession>(data->view, satopt);
        return data->session->generate_stuck_test(data->reps[i]);
      }
      return sat::sat_generate_stuck_test(data->view, data->reps[i], satopt);
    };
    ctx.escalate_stats = [data]() -> const sat::SatSessionStats* {
      return data->session ? &data->session->stats() : nullptr;
    };
    ctx.rep_name = [data](std::uint32_t i) {
      return fault_name(data->view, data->reps[i]);
    };
  } else if (opt.model == FaultModel::kTransition) {
    auto data = std::make_shared<ModelData<TransitionFault>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    data->reps = enumerate_transition_faults(data->view);
    ctx.faults_total = data->reps.size();  // no structural collapse
    ctx.n_reps = data->reps.size();
    ctx.prepass = [data](FaultSimScheduler& s,
                         const std::vector<TwoVectorTest>& ts,
                         const RepSubset& subset) {
      return s.campaign_transition(ts, select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      return generate_transition_test(data->view, data->reps[i], data->popt);
    };
    ctx.matrix = [data](FaultSimScheduler& s,
                        const std::vector<TwoVectorTest>& ts,
                        const RepSubset& subset) {
      return s.matrix_transition(ts, select_reps(data->reps, subset));
    };
    ctx.escalate = [data, satopt, inc = opt.sat_incremental](std::uint32_t i) {
      if (inc) {
        if (!data->session)
          data->session =
              std::make_shared<sat::SatSession>(data->view, satopt);
        return data->session->generate_transition_test(data->reps[i]);
      }
      return sat::sat_generate_transition_test(data->view, data->reps[i],
                                               satopt);
    };
    ctx.escalate_stats = [data]() -> const sat::SatSessionStats* {
      return data->session ? &data->session->stats() : nullptr;
    };
    ctx.rep_name = [data](std::uint32_t i) {
      return fault_name(data->view, data->reps[i]);
    };
  } else {
    auto data = std::make_shared<ModelData<ObdFaultSite>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    const obs::Span span("collapse");
    const auto t0 = Clock::now();
    const auto faults = enumerate_obd_faults(data->view);
    ctx.faults_total = faults.size();
    data->reps = collapse_obd_faults(data->view, faults).representatives;
    ctx.collapse_s = seconds_since(t0);
    ctx.n_reps = data->reps.size();
    ctx.prepass = [data](FaultSimScheduler& s,
                         const std::vector<TwoVectorTest>& ts,
                         const RepSubset& subset) {
      return s.campaign_obd(ts, select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      return generate_obd_test(data->view, data->reps[i], data->popt);
    };
    ctx.matrix = [data](FaultSimScheduler& s,
                        const std::vector<TwoVectorTest>& ts,
                        const RepSubset& subset) {
      return s.matrix_obd(ts, select_reps(data->reps, subset));
    };
    ctx.escalate = [data, satopt, inc = opt.sat_incremental](std::uint32_t i) {
      if (inc) {
        if (!data->session)
          data->session =
              std::make_shared<sat::SatSession>(data->view, satopt);
        return data->session->generate_obd_test(data->reps[i]);
      }
      return sat::sat_generate_obd_test(data->view, data->reps[i], satopt);
    };
    ctx.escalate_stats = [data]() -> const sat::SatSessionStats* {
      return data->session ? &data->session->stats() : nullptr;
    };
    ctx.rep_name = [data](std::uint32_t i) {
      return fault_name(data->view, data->reps[i]);
    };
    ctx.ndetect = [data](const CampaignOptions& o,
                         const RepSubset& sat_untestable, CampaignReport& r) {
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
      const std::vector<ObdFaultSite>* reps = &data->reps;
      if (!sat_untestable.empty()) {
        std::vector<std::uint8_t> drop(data->reps.size(), 0);
        for (const std::uint32_t u : sat_untestable) drop[u] = 1;
        targets.reserve(data->reps.size() - sat_untestable.size());
        for (std::size_t i = 0; i < data->reps.size(); ++i)
          if (!drop[i]) targets.push_back(data->reps[i]);
        reps = &targets;
        r.ndetect_pruned_untestable =
            static_cast<int>(sat_untestable.size());
      }
      const NDetectResult nd = build_ndetect_set(data->view, *reps, nopt);
      r.ndetect_tests = static_cast<int>(nd.tests.size());
      r.ndetect_satisfied = nd.satisfied;
      r.time.ndetect_s = seconds_since(t1);
      r.time.total_s += r.time.ndetect_s;
    };
  }
  return ctx;
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

CampaignReport run_campaign(const logic::SequentialCircuit& seq,
                            const CampaignOptions& opt) {
  CampaignReport r;
  detail::init_report(seq, opt, r);

  // Launch-on-capture scan styles run the two-frame scan ATPG instead of
  // the enhanced-scan (any-pair) skeleton below.
  if (r.scan && opt.scan_style != ScanMode::kEnhanced) {
    r.scan_style = to_string(opt.scan_style);
    const std::string style =
        opt.scan_style == ScanMode::kLaunchOnCapture ? "loc" : "loc-held";
    if (opt.model != FaultModel::kObd) {
      r.error = "--scan-style " + style + " requires the obd fault model";
      return r;
    }
    if (opt.ndetect > 0) {
      // n-detect growth builds unconstrained combinational tests, which
      // would violate the LOC state coupling — reject rather than silently
      // dropping the option.
      r.error = "--ndetect is not supported with --scan-style " + style;
      return r;
    }
    if (opt.sat_escalate) {
      // The SAT backend encodes unconstrained two-frame instances; it does
      // not model the LOC state coupling. Reject rather than emit cubes the
      // scan machinery cannot apply.
      r.error = "--sat-escalate is not supported with --scan-style " + style;
      return r;
    }
    drive_loc_scan(seq, opt, r);
    return r;
  }
  if (r.scan) r.scan_style = to_string(ScanMode::kEnhanced);

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  detail::fill_structure(ctx.view, r);
  if (!ctx.error.empty()) {
    r.error = ctx.error;
    return r;
  }
  r.time.collapse_s = ctx.collapse_s;
  detail::RepSubset sat_untestable_reps;
  drive_ctx(ctx, opt, r, &sat_untestable_reps);
  if (opt.ndetect > 0 && ctx.ndetect) ctx.ndetect(opt, sat_untestable_reps, r);
  // drive_ctx only spans random..compact; fold in the enumerate+collapse
  // phase so total == sum of the reported phases.
  r.time.total_s += r.time.collapse_s;
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

/// JSON string escaping: circuit names and error diagnostics may carry
/// quotes, backslashes, or control characters (net names are barely
/// restricted by the .bench grammar).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string report_json(const CampaignReport& r) {
  std::string j = "{\n";
  j += "  \"tool\": \"obd_atpg\",\n";
  if (!r.ok()) j += "  \"error\": " + json_str(r.error) + ",\n";
  j += "  \"circuit\": " + json_str(r.circuit) + ",\n";
  j += "  \"model\": \"" + std::string(to_string(r.model)) + "\",\n";
  j += "  \"structure\": {\"gates\": " + std::to_string(r.gates) +
       ", \"nets\": " + std::to_string(r.nets) +
       ", \"pis\": " + std::to_string(r.pis) +
       ", \"pos\": " + std::to_string(r.pos) +
       ", \"flops\": " + std::to_string(r.flops) +
       ", \"depth\": " + std::to_string(r.depth) +
       ", \"scan\": " + (r.scan ? "true" : "false") +
       ", \"scan_style\": " + json_str(r.scan_style) + "},\n";
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
    j += json_str(r.aborted_faults[i]);
  }
  j += "],\n";
  j += "  \"tests\": {\"random\": " + std::to_string(r.tests_random) +
       ", \"deterministic\": " + std::to_string(r.tests_deterministic) +
       ", \"seeded\": " + std::to_string(r.seeded_tests) +
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
       ", \"lanes\": " + std::to_string(r.lanes) +
       ", \"packing\": \"" + r.packing + "\", \"fault_block_evals\": " +
       std::to_string(r.fault_block_evals) + ", \"matrix_hash\": \"" + hash +
       "\",\n          \"cone_evictions\": " + std::to_string(r.cone_evictions) +
       ", \"cone_resident\": " + std::to_string(r.cone_resident) +
       ", \"cone_peak_bytes\": " + std::to_string(r.cone_peak_bytes) +
       ",\n          \"propagations\": " + std::to_string(r.propagations) +
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
    // Incremental-session detail (one-shot runs with sat_incremental; a
    // sharded merge reports zeros — sessions are process-local).
    if (r.sat_pairs > 0) {
      j += ",\n                     \"incremental\": {\"pairs\": " +
           std::to_string(r.sat_pairs) +
           ", \"cone_encodes\": " + std::to_string(r.sat_cone_encodes) +
           ", \"cone_hits\": " + std::to_string(r.sat_cone_hits) +
           ", \"unobservable_hits\": " +
           std::to_string(r.sat_unobservable_hits) +
           ", \"incremental_refutes\": " +
           std::to_string(r.sat_incremental_refutes) +
           ", \"fresh_fallbacks\": " + std::to_string(r.sat_fresh_fallbacks) +
           ", \"vars_shared\": " + std::to_string(r.sat_vars_shared) +
           ", \"clauses_kept\": " + std::to_string(r.sat_clauses_kept) + "}";
    }
    j += "},\n";
  }
  // Every metric the run touched, self-describing (kind-tagged), sorted by
  // name. Deterministic given a deterministic work partition; campaign
  // counters at > 1 thread legitimately vary (redundant tail work).
  if (!r.metrics.empty()) {
    j += "  \"metrics\": {";
    bool first = true;
    for (const obs::MetricValue& m : r.metrics) {
      if (!first) j += ",";
      first = false;
      j += "\n    " + json_str(m.name) + ": ";
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
                 std::to_string(r.sat_incremental_refutes) + " / " +
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
                 std::to_string(r.tests_final) +
                 (r.seeded_tests > 0
                      ? "  (+" + std::to_string(r.seeded_tests) + " seeded)"
                      : "")});
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
  t.add_row({"threads / lanes / packing",
             std::to_string(r.threads) + " / " + std::to_string(r.lanes) +
                 " / " + r.packing});
  if (r.propagations > 0)
    t.add_row({"frontier evals / early exits",
               std::to_string(r.frontier_gate_evals) + " / " +
                   std::to_string(r.frontier_early_exits) +
                   (r.cone_evictions > 0
                        ? "  (evictions " + std::to_string(r.cone_evictions) +
                              ")"
                        : "")});
  {
    std::string phases = "prepass " + util::format_g(r.time.random_s, 3) +
                         ", topoff " +
                         util::format_g(
                             std::max(0.0, r.time.atpg_s - r.time.sat_s), 3);
    if (r.time.sat_s > 0.0)
      phases += ", sat " + util::format_g(r.time.sat_s, 3);
    phases += ", matrix " + util::format_g(r.time.matrix_s, 3);
    if (r.time.compact_s > 0.0)
      phases += ", compact " + util::format_g(r.time.compact_s, 3);
    t.add_row({"wall clock",
               util::format_g(r.time.total_s, 3) + " s  (" + phases + ")"});
  }
  t.print();
}

}  // namespace obd::flow

#include "atpg/faultsim_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <thread>

#include "atpg/goals.hpp"
#include "logic/laneblock.hpp"
#include "obs/trace.hpp"

namespace obd::atpg {

std::size_t DetectionMatrix::row_count(std::size_t test) const {
  std::size_t n = 0;
  const std::uint64_t* r = row(test);
  for (std::size_t w = 0; w < words_per_row; ++w)
    n += static_cast<std::size_t>(std::popcount(r[w]));
  return n;
}

void PatternBlock::push(const TwoVectorTest& t) {
  assert(size_ < capacity());
  const auto W = static_cast<std::size_t>(lane_words_);
  const auto word = static_cast<std::size_t>(size_) >> 6;
  const std::uint64_t lane = 1ull << (size_ & 63);
  const std::size_t n_pi = pi1_.size() / W;
  logic::for_each_set_bit(
      t.v1, n_pi, [&](std::size_t pi) { pi1_[pi * W + word] |= lane; });
  logic::for_each_set_bit(
      t.v2, n_pi, [&](std::size_t pi) { pi2_[pi * W + word] |= lane; });
  ++size_;
}

std::vector<PatternBlock> PatternBlock::pack(
    const Circuit& c, const std::vector<TwoVectorTest>& tests,
    int lane_words) {
  std::vector<PatternBlock> blocks;
  for (const auto& t : tests) {
    if (blocks.empty() || blocks.back().full())
      blocks.emplace_back(c, lane_words);
    blocks.back().push(t);
  }
  return blocks;
}

FaultSimEngine::FaultSimEngine(const Circuit& c)
    : c_(c),
      gate_level_(c.gate_levels()),
      net_fence_(c.num_nets(), 0),
      po_mask_(c.num_nets(), 0),
      reach_gen_(c.num_nets(), 0),
      changed_(c.num_nets(), 0) {
  constexpr auto kMax = static_cast<std::size_t>(PatternBlock::kMaxWords);
  eval_tmp_.assign(kMax, 0);
  flipped_.assign(kMax, 0);
  flip_.assign(kMax, 0);
  masks_.assign(kMax, 0);
  if (c.num_nets() > 0) c.ffr_stem(0);  // builds the shared tables
  for (std::size_t n = 0; n < c.num_nets(); ++n)
    for (int g : c.fanout_of(static_cast<NetId>(n)))
      net_fence_[n] = std::max(net_fence_[n],
                               gate_level_[static_cast<std::size_t>(g)]);
  for (NetId po : c.outputs()) po_mask_[static_cast<std::size_t>(po)] = 1;

  // Touch every engine id before caching slot pointers: slot() may grow
  // the slab, and only the last growth's pointers are stable.
  const EngineMetricIds& ids = EngineMetricIds::get();
  for (obs::MetricId id : {ids.propagations, ids.frontier_events,
                           ids.frontier_gate_evals, ids.frontier_early_exits}) {
    metrics_.slot(id);
  }
  propagations_ = metrics_.slot(ids.propagations);
  frontier_events_ = metrics_.slot(ids.frontier_events);
  frontier_gate_evals_ = metrics_.slot(ids.frontier_gate_evals);
  frontier_early_exits_ = metrics_.slot(ids.frontier_early_exits);
}

const EngineMetricIds& EngineMetricIds::get() {
  static const EngineMetricIds ids = [] {
    EngineMetricIds m;
    m.cone_peak_bytes = obs::gauge("sim.cone_peak_bytes");
    m.propagations = obs::counter("sim.propagations");
    m.frontier_events = obs::counter("sim.frontier_events");
    m.frontier_gate_evals = obs::counter("sim.frontier_gate_evals");
    m.frontier_early_exits = obs::counter("sim.frontier_early_exits");
    return m;
  }();
  return ids;
}

std::size_t FaultSimEngine::start_block(const PatternBlock& b,
                                        std::size_t n_faults,
                                        std::vector<std::uint64_t>& detect) {
  const auto W = static_cast<std::size_t>(b.lane_words());
  W_ = W;
  detect.assign(n_faults * W, 0);
  if (bad_.size() < c_.num_nets() * W) {
    bad_.resize(c_.num_nets() * W);
    reach_.resize(c_.num_nets() * W);
  }
  for (std::size_t w = 0; w < W; ++w)
    masks_[w] = b.lane_mask(static_cast<int>(w));
  if (++gen_ == 0) {  // wrapped: no stale entry may match the new generation
    std::fill(reach_gen_.begin(), reach_gen_.end(), 0);
    gen_ = 1;
  }
  return W;
}

void FaultSimEngine::observe(NetId net, const std::uint64_t* flip,
                             std::uint64_t* out) {
  const std::size_t W = W_;
  const NetId stem = c_.ffr_stem(net);
  const std::uint64_t* path = stem == net ? masks_.data() : path_to_stem(net);
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < W; ++w) {
    out[w] = flip[w] & path[w];
    any |= out[w];
  }
  // Done when the flip dies before the stem, or the stem is a PO (observed
  // in every lane); else AND the stem's observability, one propagation per
  // stem per block.
  const auto s = static_cast<std::size_t>(stem);
  if (!any || po_mask_[s]) return;
  std::uint64_t* obs = reach_.data() + s * W;
  if (reach_gen_[s] != gen_) {
    propagate(stem, obs);
    reach_gen_[s] = gen_;
  }
  for (std::size_t w = 0; w < W; ++w) out[w] &= obs[w];
}

const std::uint64_t* FaultSimEngine::path_to_stem(NetId net) {
  const std::size_t W = W_;
  // Walk towards the stem until a net whose path is known this block.
  path_.clear();
  for (NetId n = net; c_.ffr_stem(n) != n &&
                      reach_gen_[static_cast<std::size_t>(n)] != gen_;
       n = c_.gate(c_.fanout_of(n).front()).output)
    path_.push_back(n);
  // Fill back to front: a net's path is its reader's sensitivity to a flip
  // of that one input, AND the reader output's own path (none at the stem).
  const std::uint64_t* ins[8];
  for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
    const auto n = static_cast<std::size_t>(*it);
    const auto& gate = c_.gate(c_.fanout_of(*it).front());
    for (std::size_t k = 0; k < gate.inputs.size(); ++k) {
      const auto in = static_cast<std::size_t>(gate.inputs[k]);
      ins[k] = good2_.data() + in * W;
      if (in == n) {
        for (std::size_t w = 0; w < W; ++w) flipped_[w] = ~ins[k][w];
        ins[k] = flipped_.data();
      }
    }
    logic::gate_eval_lanes(gate.type, ins, eval_tmp_.data(), W);
    const auto out = static_cast<std::size_t>(gate.output);
    const std::uint64_t* next = c_.ffr_stem(gate.output) == gate.output
                                    ? masks_.data()
                                    : reach_.data() + out * W;
    for (std::size_t w = 0; w < W; ++w)
      reach_[n * W + w] = (eval_tmp_[w] ^ good2_[out * W + w]) & next[w];
    reach_gen_[n] = gen_;
  }
  return reach_.data() + static_cast<std::size_t>(net) * W;
}

void FaultSimEngine::propagate(NetId stem, std::uint64_t* diff) {
  const std::size_t W = W_;
  const std::uint64_t* good = good2_.data();
  for (std::size_t w = 0; w < W; ++w) diff[w] = 0;
  ++*propagations_;
  ++*frontier_events_;
  const auto fs = static_cast<std::size_t>(stem);
  const std::vector<int>& cone = c_.fanout_cone(stem);
  std::uint64_t* bad = bad_.data();
  for (std::size_t w = 0; w < W; ++w)
    bad[fs * W + w] = good[fs * W + w] ^ masks_[w];
  changed_[fs] = 1;
  touched_.push_back(stem);
  int fence = net_fence_[fs];

  const std::uint64_t* ins[8];
  std::uint64_t* const tmp = eval_tmp_.data();
  bool early = false;
  for (int gi : cone) {
    if (gate_level_[static_cast<std::size_t>(gi)] > fence) {
      // Every changed net's fanout lies behind the walk: nothing ahead can
      // see a change, so the remaining cone is untouched by this flip.
      early = true;
      break;
    }
    const auto& gate = c_.gate(gi);
    const std::size_t arity = gate.inputs.size();
    std::uint8_t any = 0;
    for (std::size_t k = 0; k < arity; ++k)
      any |= changed_[static_cast<std::size_t>(gate.inputs[k])];
    if (!any) continue;
    ++*frontier_gate_evals_;
    for (std::size_t k = 0; k < arity; ++k) {
      const auto in = static_cast<std::size_t>(gate.inputs[k]);
      ins[k] = (changed_[in] ? bad : good) + in * W;
    }
    logic::gate_eval_lanes(gate.type, ins, tmp, W);
    const auto on = static_cast<std::size_t>(gate.output);
    std::uint64_t d = 0;
    for (std::size_t w = 0; w < W; ++w) d |= tmp[w] ^ good[on * W + w];
    if (!d) continue;  // the change dies at this gate
    for (std::size_t w = 0; w < W; ++w) bad[on * W + w] = tmp[w];
    changed_[on] = 1;
    touched_.push_back(gate.output);
    ++*frontier_events_;
    if (net_fence_[on] > fence) fence = net_fence_[on];
    if (po_mask_[on])
      for (std::size_t w = 0; w < W; ++w)
        diff[w] |= tmp[w] ^ good[on * W + w];
  }
  if (early) ++*frontier_early_exits_;
  for (NetId t : touched_) changed_[static_cast<std::size_t>(t)] = 0;
  touched_.clear();
}

void FaultSimEngine::block_stuck(const PatternBlock& b,
                                 const std::vector<StuckFault>& faults,
                                 std::vector<std::uint64_t>& detect) {
  const std::size_t W = start_block(b, faults.size(), detect);
  c_.eval_wide_into(b.pi2(), W, good2_);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const StuckFault& f = faults[i];
    const std::uint64_t value_word = f.value ? ~0ull : 0ull;
    // The fault flips its net in the lanes whose good value differs.
    const auto net = static_cast<std::size_t>(f.net);
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      flip_[w] = (good2_[net * W + w] ^ value_word) & masks_[w];
      any |= flip_[w];
    }
    if (any) observe(f.net, flip_.data(), &detect[i * W]);
  }
}

void FaultSimEngine::block_transition(const PatternBlock& b,
                                      const std::vector<TransitionFault>& faults,
                                      std::vector<std::uint64_t>& detect) {
  const std::size_t W = start_block(b, faults.size(), detect);
  c_.eval_wide_into(b.pi1(), W, good1_);
  c_.eval_wide_into(b.pi2(), W, good2_);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TransitionFault& f = faults[i];
    const auto net = static_cast<std::size_t>(f.net);
    // The slow net holds its frame-1 value during capture, so it flips
    // exactly where the transition is excited.
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t o1 = good1_[net * W + w];
      const std::uint64_t o2 = good2_[net * W + w];
      flip_[w] = (f.slow_to_rise ? (~o1 & o2) : (o1 & ~o2)) & masks_[w];
      any |= flip_[w];
    }
    if (any) observe(f.net, flip_.data(), &detect[i * W]);
  }
}

namespace {

/// The 2^n minterm words of n input words: bit k of m[v] is set when the
/// inputs read v (input j as bit j) in lane k.
void minterms(const std::uint64_t* const* in, std::size_t n, std::size_t w,
              std::uint64_t* m) {
  m[0] = ~0ull;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t x = in[k][w];
    const std::size_t half = std::size_t{1} << k;
    for (std::size_t v = 0; v < half; ++v) {
      m[v | half] = m[v] & x;
      m[v] &= ~x;
    }
  }
}

}  // namespace

void FaultSimEngine::block_obd(const PatternBlock& b,
                               const std::vector<ObdFaultSite>& faults,
                               std::vector<std::uint64_t>& detect) {
  const std::size_t W = start_block(b, faults.size(), detect);
  c_.eval_wide_into(b.pi1(), W, good1_);
  c_.eval_wide_into(b.pi2(), W, good2_);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ObdFaultSite& f = faults[i];
    const auto& g = c_.gate(f.gate_index);
    const ObdCell* cell = obd_cell(g.type);
    if (cell == nullptr) continue;
    const auto& table = cell->at(f.transistor).mask;

    // Gross-delay: the excited gate output keeps its frame-1 value, so the
    // fault flips it where it is excited and the output switches. The
    // excitation is bit-sliced: the OR over the table's (v1, v2) pairs of
    // the lanes whose local inputs read v1 in frame 1 and v2 in frame 2.
    const std::size_t n_in = g.inputs.size();
    const std::size_t n_vec = std::size_t{1} << n_in;
    const std::uint64_t* in1[4];
    const std::uint64_t* in2[4];
    for (std::size_t k = 0; k < n_in; ++k) {
      in1[k] = good1_.data() + static_cast<std::size_t>(g.inputs[k]) * W;
      in2[k] = good2_.data() + static_cast<std::size_t>(g.inputs[k]) * W;
    }
    const auto out = static_cast<std::size_t>(g.output);
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < W; ++w) {
      std::uint64_t exc = 0;
      const std::uint64_t toggles =
          (good1_[out * W + w] ^ good2_[out * W + w]) & masks_[w];
      if (toggles) {
        std::uint64_t m1[16], m2[16];
        minterms(in1, n_in, w, m1);
        minterms(in2, n_in, w, m2);
        for (std::size_t v1 = 0; v1 < n_vec; ++v1) {
          if (!table[v1]) continue;
          std::uint64_t to = 0;
          for (std::size_t v2 = 0; v2 < n_vec; ++v2)
            if ((table[v1] >> v2) & 1u) to |= m2[v2];
          exc |= m1[v1] & to;
        }
      }
      flip_[w] = exc & toggles;
      any |= flip_[w];
    }
    if (any) observe(g.output, flip_.data(), &detect[i * W]);
  }
}

// --- Scheduler ---------------------------------------------------------------

FaultSimScheduler::FaultSimScheduler(const Circuit& c, SimOptions opt)
    : c_(c), opt_(opt) {
  if (opt_.threads < 1) opt_.threads = 1;
  // Engine 0 warms the circuit's lazy topo-order and fanout-cone caches on
  // the caller's thread, so the shared Circuit is strictly read-only once
  // workers run. Further engines come with the calls that use them.
  add_engines(1);
}

void FaultSimScheduler::add_engines(int workers) {
  while (engines_.size() < static_cast<std::size_t>(workers))
    engines_.push_back(std::make_unique<FaultSimEngine>(c_));
}

FaultSimScheduler::~FaultSimScheduler() = default;

obs::Sheet FaultSimScheduler::merged_metrics() const {
  obs::Sheet out;
  for (const auto& e : engines_) out.merge_from(e->metrics());
  // One cone table serves every worker, so it is counted once.
  std::size_t cone_bytes = 0;
  for (std::size_t n = 0; n < c_.num_nets(); ++n)
    cone_bytes += sizeof(std::vector<int>) +
                  c_.fanout_cone(static_cast<NetId>(n)).size() * sizeof(int);
  out.add(EngineMetricIds::get().cone_peak_bytes,
          static_cast<long long>(cone_bytes));
  return out;
}

SimStats FaultSimScheduler::stats() const {
  const obs::Sheet m = merged_metrics();
  const EngineMetricIds& ids = EngineMetricIds::get();
  SimStats s;
  s.cone_peak_bytes = static_cast<std::size_t>(m.value(ids.cone_peak_bytes));
  s.propagations = m.value(ids.propagations);
  s.frontier_events = m.value(ids.frontier_events);
  s.frontier_gate_evals = m.value(ids.frontier_gate_evals);
  s.frontier_early_exits = m.value(ids.frontier_early_exits);
  return s;
}

namespace {

/// Below this many gates x 64-lane blocks a matrix runs on one worker:
/// extra workers cost more than they win there. Swept twice on a 4-core
/// Xeon VM (Release, OBD on the decomposed corpus, min of 5-21 runs per
/// shape, 4 workers against 1): from 2^15 gate-blocks they won on 22 of 24
/// shapes (c7552 with 700 tests, 33 979: 0.42x; c2670 with 8 192, 273 280:
/// 0.45x) and lost on c2670 with 2 048 tests (68 320: 1.18x) and c880 with
/// 4 096 (49 024: 1.16x). Below it results were mixed, and the campaigns'
/// own matrices lost (c880 400 tests: 1.87x, c2670 371 tests: 1.74x).
constexpr std::size_t kSerialMatrixGateBlocks = std::size_t{1} << 15;

}  // namespace

int FaultSimScheduler::pattern_workers(std::size_t n_blocks) const {
  const int w = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(opt_.threads), n_blocks));
  if (w > 1 && c_.num_gates() * n_blocks < kSerialMatrixGateBlocks) return 1;
  return w;
}

int FaultSimScheduler::block_lanes(std::size_t n_tests, int workers) {
  constexpr std::size_t kMaxLanes =
      PatternBlock::kLanes * PatternBlock::kMaxWords;
  const auto w = static_cast<std::size_t>(std::max(workers, 1));
  std::size_t lanes = PatternBlock::kLanes;
  if (w == 1)  // the narrowest block that holds every test
    while (lanes < kMaxLanes && lanes < n_tests) lanes *= 2;
  else  // the widest that still gives every worker a full block
    while (lanes < kMaxLanes && 2 * lanes * w <= n_tests) lanes *= 2;
  return static_cast<int>(lanes);
}

namespace {

/// Runs job(w) on `n` workers: inline when n <= 1, else on n std::threads.
/// When tracing is on, each spawned worker gets a named track and one
/// `span_name` span covering its share of the call; the inline path stays
/// on the caller's track (its enclosing span already covers it).
template <typename Job>
void run_workers(int n, const char* span_name, Job job) {
  if (n <= 1) {
    job(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    pool.emplace_back([job, span_name, w] {
      if (obs::tracing_on()) {
        obs::Recorder::instance().set_thread_name("sim-worker-" +
                                                  std::to_string(w));
      }
      obs::Span span(span_name, "sim");
      job(w);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

template <typename Fault>
DetectionMatrix FaultSimScheduler::build_matrix(
    const std::vector<TwoVectorTest>& tests, const std::vector<Fault>& faults,
    BlockFn<Fault> block_fn) {
  DetectionMatrix m;
  m.n_tests = tests.size();
  m.n_faults = faults.size();
  m.words_per_row = (faults.size() + 63) / 64;
  m.rows.assign(m.n_tests * m.words_per_row, 0);
  m.covered.assign(faults.size(), false);
  if (tests.empty() || faults.empty()) return m;

  // Shard whole blocks: block b owns rows [capacity * b, + size).
  const std::size_t n64 = (tests.size() + PatternBlock::kLanes - 1) /
                          PatternBlock::kLanes;
  const int workers = pattern_workers(n64);
  const int words = block_lanes(tests.size(), workers) / PatternBlock::kLanes;
  const std::vector<PatternBlock> blocks = PatternBlock::pack(c_, tests, words);
  const auto W = static_cast<std::size_t>(words);
  const std::size_t capacity = W * 64;
  add_engines(workers);
  std::atomic<std::size_t> next{0};
  run_workers(workers, "matrix", [&](int w) {
    FaultSimEngine& e = engine(w);
    std::vector<std::uint64_t> detect;
    for (std::size_t b = next.fetch_add(1); b < blocks.size();
         b = next.fetch_add(1)) {
      (e.*block_fn)(blocks[b], faults, detect);
      const std::size_t base = b * capacity;
      for (std::size_t f = 0; f < faults.size(); ++f) {
        const std::size_t fw = f >> 6;
        const std::uint64_t fbit = 1ull << (f & 63);
        for (std::size_t dw = 0; dw < W; ++dw) {
          std::uint64_t word = detect[f * W + dw];
          if (!word) continue;
          const std::size_t wbase = base + dw * 64;
          while (word) {
            const auto lane =
                static_cast<std::size_t>(std::countr_zero(word));
            word &= word - 1;
            m.rows[(wbase + lane) * m.words_per_row + fw] |= fbit;
          }
        }
      }
    }
  });

  // OR-reduce the rows column-wise: one word per 64 faults instead of a
  // bit probe per (test, fault) pair.
  std::vector<std::uint64_t> any(m.words_per_row, 0);
  for (std::size_t t = 0; t < m.n_tests; ++t) {
    const std::uint64_t* r = m.row(t);
    for (std::size_t w = 0; w < m.words_per_row; ++w) any[w] |= r[w];
  }
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if ((any[f >> 6] >> (f & 63)) & 1u) {
      m.covered[f] = true;
      ++m.covered_count;
    }
  }
  return m;
}

template <typename Fault>
FaultSimEngine::Campaign FaultSimScheduler::run_campaign(
    const std::vector<TwoVectorTest>& tests, const std::vector<Fault>& faults,
    BlockFn<Fault> block_fn) {
  FaultSimEngine::Campaign r;
  r.first_test.assign(faults.size(), -1);
  if (tests.empty() || faults.empty()) return r;

  // One worker walks the 64-lane blocks in order and drops a fault at its
  // first detection, so each fault is simulated on the blocks up to that
  // one and first_test is its true first detection. Campaigns take no extra
  // workers: a worker holding any live fault good-evaluates every block it
  // walks, and 4 workers splitting the fault list took 0.56x-2.08x of one
  // worker's time, with no trend in size, over 2 048-262 144 pairs on c880,
  // c2670, c7552 and mul10 (two sweeps, 4-core Xeon VM, Release).
  const std::vector<PatternBlock> blocks = PatternBlock::pack(c_, tests);
  std::vector<Fault> live = faults;
  std::vector<std::size_t> index(faults.size());  // live[i] is faults[index[i]]
  for (std::size_t f = 0; f < index.size(); ++f) index[f] = f;
  std::vector<std::uint64_t> detect;
  FaultSimEngine& e = engine(0);
  for (std::size_t b = 0; b < blocks.size() && !live.empty(); ++b) {
    (e.*block_fn)(blocks[b], live, detect);
    r.fault_block_evals += static_cast<long long>(live.size());
    const int base = static_cast<int>(b) * PatternBlock::kLanes;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (detect[i]) {
        // A block word's lowest set bit is its first detecting test.
        r.first_test[index[i]] = base + std::countr_zero(detect[i]);
        ++r.detected;
      } else {
        live[kept] = live[i];
        index[kept++] = index[i];
      }
    }
    live.resize(kept);
    index.resize(kept);
  }
  return r;
}

namespace {

/// A stuck-at pattern as the two-vector test the engine packs (v1 == v2).
std::vector<TwoVectorTest> as_tests(const std::vector<InputVec>& patterns) {
  std::vector<TwoVectorTest> tests;
  tests.reserve(patterns.size());
  for (const InputVec& p : patterns) tests.push_back({p, p});
  return tests;
}

}  // namespace

DetectionMatrix FaultSimScheduler::matrix_stuck(
    const std::vector<InputVec>& patterns,
    const std::vector<StuckFault>& faults) {
  return build_matrix(as_tests(patterns), faults, &FaultSimEngine::block_stuck);
}

DetectionMatrix FaultSimScheduler::matrix_transition(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<TransitionFault>& faults) {
  return build_matrix(tests, faults, &FaultSimEngine::block_transition);
}

DetectionMatrix FaultSimScheduler::matrix_obd(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<ObdFaultSite>& faults) {
  return build_matrix(tests, faults, &FaultSimEngine::block_obd);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_stuck(
    const std::vector<InputVec>& patterns,
    const std::vector<StuckFault>& faults) {
  return run_campaign(as_tests(patterns), faults, &FaultSimEngine::block_stuck);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_transition(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<TransitionFault>& faults) {
  return run_campaign(tests, faults, &FaultSimEngine::block_transition);
}

FaultSimEngine::Campaign FaultSimScheduler::campaign_obd(
    const std::vector<TwoVectorTest>& tests,
    const std::vector<ObdFaultSite>& faults) {
  return run_campaign(tests, faults, &FaultSimEngine::block_obd);
}

}  // namespace obd::atpg

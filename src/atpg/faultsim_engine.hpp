// Bit-parallel batched fault simulation (PPSFP) and its scheduler.
//
// The legacy simulators re-evaluated the whole circuit once per fault per
// pattern through the 64-lane Circuit::eval_words kernel with a single live
// bit — wasting 63/64 of every word. This engine restores the classical
// parallel-pattern single-fault-propagation structure:
//
//   - a PatternBlock packs up to 64 * lane_words (two-vector) tests, one
//     per word-lane bit, with the multi-word LaneBlock SIMD kernels
//     (logic/laneblock.hpp) fusing all words of a bundle per gate; the
//     scheduler picks each call's width (block_lanes);
//   - the good circuit is evaluated once per block (per frame);
//   - a fault is detected in the lanes where it flips its net, the flip
//     survives the net's unique path to its fanout-free-region (FFR) stem
//     (Circuit::ffr_stem), and a flip of that stem reaches a PO. The path
//     sensitization is a single-input flip of the good values at each gate
//     of the path (critical-path tracing inside FFRs: Antreich & Schulz
//     1987; Lee & Ha's HOPE, 1996), exact for two-valued logic; the stem's
//     observability is one event-driven propagation of the flipped stem
//     through its levelized fanout cone (Circuit::fanout_cone), which
//     evaluates only gates with a changed input and short-circuits when the
//     frontier empties before reaching a PO. Both are memoized per net per
//     block, so every fault of an FFR shares one propagation per block;
//   - OBD excitation is bit-sliced from the transistor's (v1 -> v2) mask in
//     the process-wide cell table (obd_cell, atpg/goals.hpp): the OR of the
//     mask's minterms over AND-ed gate-input words, so input-specific
//     conditions cost a few word operations instead of a topology walk.
//
// FaultSimEngine is a per-block kernel: it simulates one PatternBlock
// against the fault list it is handed and keeps no state across blocks
// beyond its scratch and counters; it derives no excitation facts of its
// own, so a new worker engine has no table to fill. FaultSimScheduler is
// the only loop over blocks. Detection matrices shard whole blocks over a
// small std::thread pool with one engine per worker; engines are created
// per call, on the caller's thread, for the workers that call uses, and all
// of them read the circuit's one stem and cone tables. Fault-dropping
// campaigns run on one worker, which walks every block in order and drops a
// fault at its first detection, so late blocks only pay for the hard
// remainder. Detection matrices are bit-identical at any thread count and
// width.
//
// The set-level entry points in faultsim.hpp are thin wrappers over the
// scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>

#include "atpg/faults.hpp"
#include "atpg/patterns.hpp"
#include "obs/metrics.hpp"

namespace obd::atpg {

/// Registry ids of the engine's metrics (one process-wide interning).
/// Exposed so report code can read the merged scheduler sheet by id.
struct EngineMetricIds {
  obs::MetricId cone_peak_bytes;
  obs::MetricId propagations;
  obs::MetricId frontier_events;
  obs::MetricId frontier_gate_evals;
  obs::MetricId frontier_early_exits;
  static const EngineMetricIds& get();
};

/// Up to 64 * lane_words two-vector tests packed lane-per-test (stuck-at
/// tests use only the second frame, with v1 == v2). Lane L lives at bit
/// (L & 63) of word (L >> 6); a one-word block is bit-for-bit the engine's
/// historical 64-lane block. Every per-net value the engine computes for a
/// block is lane_words words wide (the LaneBlock SIMD kernels in
/// logic/laneblock.hpp fuse them); detection results are bit-identical at
/// any width.
class PatternBlock {
 public:
  /// Lanes per 64-bit word (the historical whole-block size).
  static constexpr int kLanes = 64;
  /// Widest block: lane_words is clamped to [1, kMaxWords] (512 lanes).
  static constexpr int kMaxWords = 8;

  explicit PatternBlock(const Circuit& c, int lane_words = 1)
      : lane_words_(std::clamp(lane_words, 1, kMaxWords)),
        pi1_(c.inputs().size() * static_cast<std::size_t>(lane_words_), 0),
        pi2_(c.inputs().size() * static_cast<std::size_t>(lane_words_), 0) {}

  int lane_words() const { return lane_words_; }
  /// Total lanes: 64 * lane_words.
  int capacity() const { return kLanes * lane_words_; }
  int size() const { return size_; }
  bool full() const { return size_ == capacity(); }
  /// Live-lane mask of one word: bits of `word` whose lanes carry real
  /// tests. lane_mask() is the historical whole-block mask for one-word
  /// blocks.
  std::uint64_t lane_mask(int word = 0) const {
    const int live = size_ - word * kLanes;
    if (live >= kLanes) return ~0ull;
    if (live <= 0) return 0;
    return (1ull << live) - 1;
  }

  void push(const TwoVectorTest& t);

  /// Lane-strided PI words: PI i's words at [i * lane_words, +lane_words).
  const std::vector<std::uint64_t>& pi1() const { return pi1_; }
  const std::vector<std::uint64_t>& pi2() const { return pi2_; }

  /// Packs a test list into ceil(n / capacity) blocks, preserving order.
  static std::vector<PatternBlock> pack(const Circuit& c,
                                        const std::vector<TwoVectorTest>& tests,
                                        int lane_words = 1);

 private:
  int lane_words_ = 1;
  int size_ = 0;
  std::vector<std::uint64_t> pi1_, pi2_;  // [pi * lane_words + word]
};

/// Detection matrix: row per test, bit-packed over the fault list (64
/// faults per word). Built by the scheduler (each pattern block fills up
/// to its capacity of rows per engine call); consumed directly by
/// compaction, n-detect selection, and the diagnosis dictionary.
struct DetectionMatrix {
  std::size_t n_tests = 0;
  std::size_t n_faults = 0;
  std::size_t words_per_row = 0;
  /// Row-major packed bits: rows[t * words_per_row + (f >> 6)] bit (f & 63).
  std::vector<std::uint64_t> rows;
  /// Faults detected by at least one test.
  std::vector<bool> covered;
  int covered_count = 0;

  bool detects(std::size_t test, std::size_t fault) const {
    return (rows[test * words_per_row + (fault >> 6)] >> (fault & 63)) & 1u;
  }
  const std::uint64_t* row(std::size_t test) const {
    return rows.data() + test * words_per_row;
  }
  /// Detection count of one test (row popcount).
  std::size_t row_count(std::size_t test) const;
};

/// Precondition: every net the circuit reads (a gate input or a PO) is a PI
/// or a gate output. The engine would read an undriven net as 0 and detect
/// its stuck-at-1, where the legacy simulators, Circuit::eval_words and
/// eval3 never force it and PODEM's backtrace cannot set it; campaigns
/// refuse such a circuit when they build their view.
class FaultSimEngine {
 public:
  /// Builds the circuit's FFR stem and fanout-cone tables if they are not
  /// built yet, so a circuit is read-only once its engines exist.
  explicit FaultSimEngine(const Circuit& c);

  const Circuit& circuit() const { return c_; }

  /// This engine's counters (EngineMetricIds: stem propagations, frontier
  /// events, cone gates evaluated, early exits), bumped by the hot loop
  /// through cached slot pointers. Single-owner; merged by the scheduler in
  /// worker order.
  const obs::Sheet& metrics() const { return metrics_; }

  // --- Block primitives (pattern-major) --------------------------------
  // Each fills `detect` (resized to faults.size() * W, W = the block's
  // lane_words) with W words per fault at [i * W, +W); bit k of word w set
  // = lane 64w + k of the block detects the fault. Any block width runs on
  // any engine.

  void block_stuck(const PatternBlock& b, const std::vector<StuckFault>& faults,
                   std::vector<std::uint64_t>& detect);
  void block_transition(const PatternBlock& b,
                        const std::vector<TransitionFault>& faults,
                        std::vector<std::uint64_t>& detect);
  void block_obd(const PatternBlock& b, const std::vector<ObdFaultSite>& faults,
                 std::vector<std::uint64_t>& detect);

  /// Result of a fault-dropping campaign (FaultSimScheduler::campaign_*):
  /// first_test is each fault's first detecting test index (-1 =
  /// undetected).
  struct Campaign {
    std::vector<int> first_test;
    int detected = 0;
    /// Work metric fault dropping shrinks: (live fault x block) pairs
    /// simulated (an upper bound on cone evaluations). Each fault counts the
    /// blocks up to its first detection, or all of them, at any thread count.
    long long fault_block_evals = 0;
  };

 private:
  /// Sizes `detect` and the per-net scratch for the block's width, fills
  /// the per-word live-lane masks and starts a new memo generation; returns
  /// the width in words.
  std::size_t start_block(const PatternBlock& b, std::size_t n_faults,
                          std::vector<std::uint64_t>& detect);
  /// Detection words of a fault that flips `net` in the lanes of `flip`
  /// (W words, live lanes only): flip AND the net's path sensitization to
  /// its stem AND the lanes in which a flip of the stem flips some PO, into
  /// `out` (W words). The stem's observability is memoized per block; a
  /// miss on a non-PO stem costs one propagate().
  void observe(NetId net, const std::uint64_t* flip, std::uint64_t* out);
  /// Lanes in which a flip of the non-stem `net` flips its stem: the AND of
  /// the single-input flip sensitivities of the gates on its unique fanout
  /// path, against the good capture frame. Memoized per net per block.
  const std::uint64_t* path_to_stem(NetId net);
  /// Event-driven frontier propagation, the engine's hot loop: flips the
  /// non-PO `stem` in every live lane against the good capture frame, walks
  /// the stem's cone in level order evaluating only gates with a changed
  /// input, marks a net changed only when its W-word value really differs
  /// from good, and stops as soon as every changed net's fanout level is
  /// behind the walk (the frontier fence). `diff` (W words) gets the OR over
  /// POs of (faulty ^ good).
  void propagate(NetId stem, std::uint64_t* diff);

  const Circuit& c_;
  std::vector<int> gate_level_;                  // gate -> logic level
  // Frontier fence input: per net, the maximum logic level of any gate
  // reading it (0 = no fanout). While the walk's level exceeds every
  // changed net's entry here, no remaining cone gate can see a change.
  std::vector<int> net_fence_;
  std::vector<std::uint8_t> po_mask_;            // per net: 1 = primary output
  // Metrics slab + cached slot pointers (stable: every engine id is
  // touched before the pointers are taken, and the engine adds no other
  // ids to its own sheet).
  obs::Sheet metrics_;
  long long* propagations_ = nullptr;
  long long* frontier_events_ = nullptr;
  long long* frontier_gate_evals_ = nullptr;
  long long* frontier_early_exits_ = nullptr;
  // The current block's width in words.
  std::size_t W_ = 1;
  // Lane-strided per-net scratch (W words per net for the current block;
  // bad_ and reach_ only grow). Only nets marked changed_ are read from
  // bad_, and only nets stamped with the current generation from reach_:
  // a non-stem's path_to_stem, a non-PO stem's observability.
  std::vector<std::uint64_t> good1_, good2_, bad_, reach_;
  std::vector<std::uint32_t> reach_gen_;
  std::uint32_t gen_ = 0;
  // Propagation scratch: per-net changed flags with their reset list, the
  // path walk's net list, and the gate-output staging, flipped-input and
  // per-block mask / per-fault flip words. The W-word buffers hold
  // kMaxWords words and sit on cache lines of their own: the scheduler
  // creates engines back to back on one thread and then hands each to a
  // different worker, and these few words are rewritten per fault, so a
  // line shared with another engine would bounce between cores (false
  // sharing).
  std::vector<std::uint8_t> changed_;
  std::vector<NetId> touched_, path_;
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;
    LineAllocator() = default;
    template <typename U>
    LineAllocator(const LineAllocator<U>&) {}
    T* allocate(std::size_t n) {
      const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
      return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{kLine});
    }
    bool operator==(const LineAllocator&) const { return true; }
  };
  std::vector<std::uint64_t, LineAllocator<std::uint64_t>> eval_tmp_,
      flipped_, flip_, masks_;
};

/// Aggregated per-engine counters (summed over the scheduler's workers),
/// plus the size of the circuit's stem-only fanout-cone table, which all
/// workers share and which is counted once. Surfaced in the campaign JSON
/// report so cone memory and frontier behaviour are observable without
/// rerunning the bench.
struct SimStats {
  std::size_t cone_peak_bytes = 0;
  long long propagations = 0;
  long long frontier_events = 0;
  long long frontier_gate_evals = 0;
  long long frontier_early_exits = 0;
};

/// Schedules fault-simulation calls as pattern blocks: detection matrices
/// over a worker pool, fault-dropping campaigns on one worker.
/// (SimOptions lives in patterns.hpp.)
///
/// The fault simulator's only loop over pattern blocks: every matrix and
/// every campaign runs here, and campaigns always drop detected faults.
///
/// Determinism contract: matrices are bit-identical across thread counts and
/// block widths, and campaigns do not depend on `threads` at all (the
/// randomized oracle harness in tests/oracle_common.hpp pins both to the
/// legacy scalar simulators). Matrix workers shard whole pattern blocks
/// (matrix rows are disjoint per block). Small matrices (gates x 64-lane
/// blocks below a measured threshold, 2^15) run single-threaded regardless
/// of `threads` — extra workers cost more than they win there. Campaigns
/// always run on one worker: any worker that holds a live fault must
/// good-evaluate every block it walks, and splitting the fault list over
/// workers showed no reliable win at any measured shape.
///
/// Block width is a property of each call, not a setting: campaigns pack
/// 64 lanes, matrices follow block_lanes.
///
/// Engines follow the workers a call uses, never the `threads` knob alone:
/// the constructor builds engine 0 (warming the circuit's lazy caches), and
/// each matrix adds the engines its workers need, on the caller's thread,
/// before any worker starts.
class FaultSimScheduler {
 public:
  explicit FaultSimScheduler(const Circuit& c, SimOptions opt = {});
  ~FaultSimScheduler();

  const Circuit& circuit() const { return c_; }

  /// Counter sums over every engine created so far and the cone table's
  /// size.
  SimStats stats() const;
  /// Worker sheets folded in engine-index order, plus the stem-only cone
  /// table's size as `sim.cone_peak_bytes` — deterministic totals for a
  /// given configuration. A matrix's are the same at any thread count of
  /// the same block width; a campaign's are the same at any thread count.
  obs::Sheet merged_metrics() const;

  /// Workers a detection matrix with this many 64-lane blocks actually
  /// uses: min(threads, blocks), gated to 1 when gates x blocks falls below
  /// the measured threshold — there extra workers cost more than they win,
  /// so the call runs inline.
  int pattern_workers(std::size_t n_blocks) const;

  /// Pattern lanes per block of a detection matrix over `n_tests` tests
  /// whose 64-lane blocks run on `workers` workers (pattern_workers). One
  /// worker packs the narrowest of 64/128/256/512 lanes that holds all the
  /// tests (512 past that): fewer blocks mean fewer good evaluations and
  /// cone walks. Several workers pack the widest of those that still gives
  /// every worker a full block, so wide blocks never leave one idle. Campaigns
  /// always pack 64 lanes, so fault dropping bites every 64 tests. Results
  /// are bit-identical at every width.
  static int block_lanes(std::size_t n_tests, int workers);

  // --- Detection matrices ----------------------------------------------
  DetectionMatrix matrix_stuck(const std::vector<InputVec>& patterns,
                               const std::vector<StuckFault>& faults);
  DetectionMatrix matrix_transition(const std::vector<TwoVectorTest>& tests,
                                    const std::vector<TransitionFault>& faults);
  DetectionMatrix matrix_obd(const std::vector<TwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults);

  // --- Fault-dropping campaigns -----------------------------------------
  // One worker; a fault leaves the live list at its first detection, and
  // first_test is that detection's test index.
  FaultSimEngine::Campaign campaign_stuck(const std::vector<InputVec>& patterns,
                                          const std::vector<StuckFault>& faults);
  FaultSimEngine::Campaign campaign_transition(
      const std::vector<TwoVectorTest>& tests,
      const std::vector<TransitionFault>& faults);
  FaultSimEngine::Campaign campaign_obd(const std::vector<TwoVectorTest>& tests,
                                        const std::vector<ObdFaultSite>& faults);

 private:
  /// One of FaultSimEngine's block_* kernels.
  template <typename Fault>
  using BlockFn = void (FaultSimEngine::*)(const PatternBlock&,
                                           const std::vector<Fault>&,
                                           std::vector<std::uint64_t>&);
  template <typename Fault>
  DetectionMatrix build_matrix(const std::vector<TwoVectorTest>& tests,
                               const std::vector<Fault>& faults,
                               BlockFn<Fault> block_fn);
  template <typename Fault>
  FaultSimEngine::Campaign run_campaign(const std::vector<TwoVectorTest>& tests,
                                        const std::vector<Fault>& faults,
                                        BlockFn<Fault> block_fn);

  /// Creates engines until there is one per worker of a matrix; runs on the
  /// caller's thread before the workers start.
  void add_engines(int workers);
  FaultSimEngine& engine(int worker) { return *engines_[static_cast<std::size_t>(worker)]; }

  const Circuit& c_;
  SimOptions opt_;
  std::vector<std::unique_ptr<FaultSimEngine>> engines_;  // one per worker
};

}  // namespace obd::atpg

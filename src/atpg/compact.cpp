#include "atpg/compact.hpp"

#include <algorithm>
#include <bit>

namespace obd::atpg {
namespace {

/// Word-packed "still uncovered" gain of a test row.
std::size_t count_new(const std::uint64_t* row,
                      const std::vector<std::uint64_t>& covered) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < covered.size(); ++w)
    n += static_cast<std::size_t>(std::popcount(row[w] & ~covered[w]));
  return n;
}

}  // namespace

std::vector<std::size_t> greedy_cover(const DetectionMatrix& m) {
  std::vector<std::size_t> picks;
  if (m.n_tests == 0) return picks;
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  std::size_t remaining = static_cast<std::size_t>(m.covered_count);

  // Lazy greedy (Minoux 1978): gains only shrink as coverage grows, so a
  // stored gain is an upper bound. The heap orders by (gain desc, index
  // asc); when the top's refreshed gain still equals its stored gain, no
  // other test can beat it, and any tie has a stored gain equal to it and a
  // higher index. The picks are therefore exactly the eager loop's: the
  // largest gain, lowest index first.
  struct Entry {
    std::size_t gain;
    std::size_t test;
  };
  const auto below = [](const Entry& a, const Entry& b) {
    return a.gain != b.gain ? a.gain < b.gain : a.test > b.test;
  };
  std::vector<Entry> heap;
  heap.reserve(m.n_tests);
  for (std::size_t t = 0; t < m.n_tests; ++t)
    if (const std::size_t gain = count_new(m.row(t), covered); gain > 0)
      heap.push_back({gain, t});
  std::make_heap(heap.begin(), heap.end(), below);

  while (remaining > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), below);
    Entry& top = heap.back();
    const std::size_t gain = count_new(m.row(top.test), covered);
    if (gain < top.gain) {
      // Stale: re-queue with the true gain (drop it once it covers nothing).
      top.gain = gain;
      if (gain == 0) heap.pop_back();
      else std::push_heap(heap.begin(), heap.end(), below);
      continue;
    }
    picks.push_back(top.test);
    const std::uint64_t* row = m.row(top.test);
    for (std::size_t w = 0; w < covered.size(); ++w) covered[w] |= row[w];
    remaining -= gain;
    heap.pop_back();
  }
  return picks;
}

namespace {

struct ExactSearch {
  const DetectionMatrix& m;
  std::size_t max_nodes;
  std::size_t nodes = 0;
  std::vector<std::size_t> best;
  std::vector<std::size_t> current;
  /// Word-packed mask of coverable faults (uncoverable ones never block).
  std::vector<std::uint64_t> coverable;

  void run(std::vector<std::uint64_t>& covered, std::size_t remaining,
           std::size_t start) {
    if (++nodes > max_nodes) return;
    if (remaining == 0) {
      if (best.empty() || current.size() < best.size()) best = current;
      return;
    }
    if (!best.empty() && current.size() + 1 >= best.size()) {
      // Even one more pick cannot beat the incumbent unless it finishes;
      // cheap lower bound: at least one more test is needed.
      if (current.size() + 1 > best.size()) return;
    }
    // Branch on the first uncovered coverable fault: some selected test
    // must cover it.
    std::size_t fault_word = 0;
    std::uint64_t open = 0;
    for (; fault_word < covered.size(); ++fault_word) {
      open = coverable[fault_word] & ~covered[fault_word];
      if (open) break;
    }
    if (!open) return;
    const std::size_t fault =
        fault_word * 64 + static_cast<std::size_t>(std::countr_zero(open));
    for (std::size_t t = start; t < m.n_tests; ++t) {
      if (!m.detects(t, fault)) continue;
      // Apply, remembering the newly covered bits per word to undo.
      const std::uint64_t* row = m.row(t);
      std::vector<std::uint64_t> newly(covered.size());
      std::size_t gained = 0;
      for (std::size_t w = 0; w < covered.size(); ++w) {
        newly[w] = row[w] & ~covered[w];
        covered[w] |= newly[w];
        gained += static_cast<std::size_t>(std::popcount(newly[w]));
      }
      current.push_back(t);
      run(covered, remaining - gained, 0);
      current.pop_back();
      for (std::size_t w = 0; w < covered.size(); ++w) covered[w] &= ~newly[w];
    }
  }
};

std::vector<std::uint64_t> covered_mask(const DetectionMatrix& m) {
  std::vector<std::uint64_t> mask(m.words_per_row, 0);
  for (std::size_t f = 0; f < m.n_faults; ++f)
    if (m.covered[f]) mask[f >> 6] |= 1ull << (f & 63);
  return mask;
}

}  // namespace

std::vector<std::size_t> exact_cover(const DetectionMatrix& m,
                                     std::size_t max_nodes) {
  const std::vector<std::size_t> greedy = greedy_cover(m);
  ExactSearch search{m, max_nodes};
  search.best = greedy;
  search.coverable = covered_mask(m);
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  search.run(covered, static_cast<std::size_t>(m.covered_count), 0);
  return search.best;
}

bool covers_all(const DetectionMatrix& m,
                const std::vector<std::size_t>& selection) {
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  for (std::size_t t : selection) {
    const std::uint64_t* row = m.row(t);
    for (std::size_t w = 0; w < covered.size(); ++w) covered[w] |= row[w];
  }
  const std::vector<std::uint64_t> need = covered_mask(m);
  for (std::size_t w = 0; w < covered.size(); ++w)
    if ((covered[w] & need[w]) != need[w]) return false;
  return true;
}

// --- X-overlap merging -------------------------------------------------------

namespace {

void or_into(std::vector<std::uint64_t>& acc,
             const std::vector<std::uint64_t>& v) {
  for (std::size_t w = 0; w < v.size(); ++w) acc[w] |= v[w];
}

}  // namespace

XMergeResult merge_x_overlap(const Circuit& c,
                             const std::vector<XTwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults) {
  XMergeResult out;
  FaultSimEngine engine(c);
  PatternBlock block(c);
  std::vector<std::uint64_t> detect;
  // Detections of `t`'s concrete fill among the faults `active` marks (all
  // of them when null), packed with fault f at bit (f & 63) of word
  // (f >> 6) — the or_into() layout. The block has one live lane, so bit 0
  // of detect[f] is the verdict.
  const auto concrete_obd = [&](const XTwoVectorTest& t,
                                const std::vector<std::uint8_t>* active) {
    block.clear();
    block.push(t.concrete());
    engine.block_obd(block, faults, detect, active);
    std::vector<std::uint64_t> packed((faults.size() + 63) / 64, 0);
    for (std::size_t f = 0; f < faults.size(); ++f)
      packed[f >> 6] |= (detect[f] & 1u) << (f & 63);
    return packed;
  };
  // Acceptance only asks whether `t` detects every fault in `need` (the
  // constituents' detections, usually a tiny fraction of the fault list),
  // so only those faults are active.
  std::vector<std::uint8_t> active(faults.size());
  const auto detects_all = [&](const XTwoVectorTest& t,
                               const std::vector<std::uint64_t>& need) {
    for (std::size_t f = 0; f < faults.size(); ++f)
      active[f] = (need[f >> 6] >> (f & 63)) & 1u;
    const std::vector<std::uint64_t> got = concrete_obd(t, &active);
    for (std::size_t w = 0; w < need.size(); ++w)
      if ((got[w] & need[w]) != need[w]) return false;
    return true;
  };

  struct Slot {
    XTwoVectorTest test;
    std::vector<std::uint64_t> concrete;  // union of constituents' concrete
  };
  std::vector<Slot> slots;

  for (std::size_t i = 0; i < tests.size(); ++i) {
    const auto concrete = concrete_obd(tests[i], nullptr);
    bool placed = false;
    for (std::size_t s = 0; s < slots.size() && !placed; ++s) {
      Slot& slot = slots[s];
      if (!slot.test.compatible(tests[i])) continue;
      // Definite (3-valued) detections need no check here: merging only
      // refines care bits, and eval3_words is Kleene-monotone, so every
      // constituent's definite detection carries over (see compact.hpp).
      const XTwoVectorTest cand = slot.test.merged(tests[i]);
      std::vector<std::uint64_t> need_conc = slot.concrete;
      or_into(need_conc, concrete);
      if (!detects_all(cand, need_conc)) continue;
      slot.test = cand;
      slot.concrete = std::move(need_conc);
      out.members[s].push_back(i);
      placed = true;
    }
    if (!placed) {
      slots.push_back({tests[i], concrete});
      out.members.push_back({i});
    }
  }
  for (auto& s : slots) out.tests.push_back(s.test);
  return out;
}

}  // namespace obd::atpg

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
  /// The matrix by column: the tests detecting each fault, ascending.
  std::vector<std::vector<std::uint32_t>> detecting;
  /// Per test: faults its row detects that are still uncovered. A pick
  /// takes one off every test detecting a fault it newly covers and its
  /// undo adds it back, so the bound never rescans rows.
  std::vector<std::size_t> gain;

  /// Newly covered bits of one pick, by word (only the words it touches).
  struct Delta {
    std::size_t word;
    std::uint64_t bits;
  };

  void update_gains(const std::vector<Delta>& newly, bool undo) {
    for (const Delta& d : newly)
      for (std::uint64_t bits = d.bits; bits; bits &= bits - 1)
        for (const std::uint32_t t :
             detecting[d.word * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits))]) {
          if (undo) ++gain[t];
          else --gain[t];
        }
  }

  void run(std::vector<std::uint64_t>& covered, std::size_t remaining) {
    if (++nodes > max_nodes) return;
    if (remaining == 0) {
      if (current.size() < best.size()) best = current;
      return;
    }
    // No test covers more than `widest` open faults, so finishing takes at
    // least ceil(remaining / widest) more picks; prune branches that can at
    // best tie the incumbent (greedy's cover at the root).
    std::size_t widest = 0;
    for (const std::size_t g : gain) widest = std::max(widest, g);
    // widest == 0 only when `covered` marks a fault no row detects.
    if (widest == 0 ||
        current.size() + (remaining + widest - 1) / widest >= best.size())
      return;
    // Branch on the first open (coverable, uncovered) fault: some selected
    // test must cover it.
    std::size_t w0 = 0;
    while (!(coverable[w0] & ~covered[w0])) ++w0;
    const std::size_t fault =
        w0 * 64 + static_cast<std::size_t>(
                      std::countr_zero(coverable[w0] & ~covered[w0]));
    std::vector<Delta> newly;
    for (const std::uint32_t t : detecting[fault]) {
      // Apply, remembering the newly covered bits per word to undo.
      const std::uint64_t* row = m.row(t);
      newly.clear();
      std::size_t gained = 0;
      for (std::size_t w = 0; w < covered.size(); ++w) {
        const std::uint64_t bits = row[w] & ~covered[w];
        if (!bits) continue;
        newly.push_back({w, bits});
        covered[w] |= bits;
        gained += static_cast<std::size_t>(std::popcount(bits));
      }
      update_gains(newly, false);
      current.push_back(t);
      run(covered, remaining - gained);
      current.pop_back();
      update_gains(newly, true);
      for (const Delta& n : newly) covered[n.word] &= ~n.bits;
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
  search.detecting.resize(m.n_faults);
  search.gain.assign(m.n_tests, 0);
  for (std::size_t t = 0; t < m.n_tests; ++t)
    for (std::size_t w = 0; w < m.words_per_row; ++w)
      for (std::uint64_t bits = m.row(t)[w]; bits; bits &= bits - 1) {
        search.detecting[w * 64 + static_cast<std::size_t>(
                                      std::countr_zero(bits))]
            .push_back(static_cast<std::uint32_t>(t));
        ++search.gain[t];
      }
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  search.run(covered, static_cast<std::size_t>(m.covered_count));
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

}  // namespace obd::atpg

// Test-set compaction by set cover over a detection matrix. Regenerates the
// paper's "18 of 72 input transitions are necessary and sufficient" style
// statistics for the full adder.
#pragma once

#include <vector>

#include "atpg/faultsim.hpp"

namespace obd::atpg {

/// Greedy set cover: repeatedly picks the test detecting the most
/// still-uncovered faults (word-packed rows, popcount gains).
/// Returns selected test indices (in pick order).
std::vector<std::size_t> greedy_cover(const DetectionMatrix& m);

/// Exact minimum cover via branch and bound (seeded by the greedy bound).
/// A branch is pruned when even tests covering the widest row's share of
/// the open faults could at best tie the incumbent. The result is proven
/// minimal only when the search ends inside `max_nodes`; otherwise it is
/// the best cover found. Intended for small instances (tens of tests after
/// dominance pruning).
std::vector<std::size_t> exact_cover(const DetectionMatrix& m,
                                     std::size_t max_nodes = 2'000'000);

/// True when the selected tests detect every coverable fault of the matrix.
bool covers_all(const DetectionMatrix& m,
                const std::vector<std::size_t>& selection);

}  // namespace obd::atpg

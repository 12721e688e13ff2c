// Deterministic cost-aware placement: map a batch of cost-hinted items onto
// a fixed number of bins (pool workers, search shards) so no bin ends up
// owning a disproportionate share of the estimated work.
//
// The assignment is a pure function of (costs, bins) — never of thread
// timing, worker health, or anything else that varies run to run — which is
// what lets two very different layers share it:
//   * sched::pool / sim::executor pick each job's home deque with it,
//   * search's shard split replaces "position mod N" with it.
// Wherever the downstream contract is "output is byte-identical at any
// worker count", that holds because result ordering is keyed by submission
// index, not by who evaluated what; placement only shapes wall-clock.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace meek::sched {

// Greedy LPT (longest-processing-time-first): items are considered in
// descending cost order (stable — equal costs keep index order) and each is
// placed on the currently least-loaded bin, lowest bin index winning ties.
// Classic 4/3-approximation of the optimal makespan; with equal costs it
// degenerates to exact round-robin, so callers that used "index mod N" get
// the same assignment back on uniform batches.
//
// Costs that are NaN or negative count as zero. `bins == 0` returns an empty
// vector for an empty batch and an all-zero assignment otherwise (the caller
// has one logical bin whether it likes it or not).
std::vector<std::size_t> balanced_assignment(std::span<const double> costs,
                                             std::size_t bins);

// The per-bin cost totals implied by `assignment` — the skew diagnostic a
// stats line wants next to the steal counters. `assignment[i]` values >=
// `bins` are ignored.
std::vector<double> bin_loads(std::span<const double> costs,
                              std::span<const std::size_t> assignment,
                              std::size_t bins);

}  // namespace meek::sched

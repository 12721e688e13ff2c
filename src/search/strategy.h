// Pluggable point-selection strategies for the search driver.
//
// All three are deterministic functions of their explicit inputs (universe
// size, seeds, scores) — never of thread count or wall clock — so a search
// selects the identical candidate and survivor sets at any thread count.
//
//   exhaustive          evaluate every enumerated point at full budget
//   random_sample       evaluate a seeded uniform sample of the universe
//   successive_halving  rung 0 runs *all* points on a cheap budget (shrunken
//                       instruction count, no fault probe), then only the
//                       promoted survivors re-run at the full budget with
//                       coverage measurement
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace meek::search {

enum class strategy_kind : u8 { exhaustive, random_sample, successive_halving };

const char* strategy_name(strategy_kind k);
std::optional<strategy_kind> parse_strategy(std::string_view name);

// Seeded sample of min(count, universe) distinct indices from
// [0, universe), returned ascending. Partial Fisher-Yates over a splitmix64-
// seeded stream: the same (universe, count, seed) always selects the same
// points.
std::vector<std::size_t> sample_indices(std::size_t universe, std::size_t count,
                                        u64 seed);

// Successive-halving promotion: keep the best ceil(keep_fraction * n) of
// `candidates` ranked by ascending score (lower is better; ties break toward
// the lower candidate index), returned ascending. `scores` is parallel to
// `candidates`. keep_fraction is clamped to (0, 1], and NaN keeps the fewest;
// at least one candidate survives a non-empty rung.
std::vector<std::size_t> promote(const std::vector<std::size_t>& candidates,
                                 const std::vector<double>& scores,
                                 double keep_fraction);

}  // namespace meek::search

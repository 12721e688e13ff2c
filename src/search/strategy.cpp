#include "search/strategy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace meek::search {

const char* strategy_name(strategy_kind k) {
    switch (k) {
        case strategy_kind::exhaustive: return "exhaustive";
        case strategy_kind::random_sample: return "random";
        case strategy_kind::successive_halving: return "halving";
    }
    return "?";
}

std::optional<strategy_kind> parse_strategy(std::string_view name) {
    if (name == "exhaustive" || name == "grid") return strategy_kind::exhaustive;
    if (name == "random" || name == "sample") return strategy_kind::random_sample;
    if (name == "halving" || name == "sha") return strategy_kind::successive_halving;
    return std::nullopt;
}

std::vector<std::size_t> sample_indices(std::size_t universe, std::size_t count,
                                        u64 seed) {
    count = std::min(count, universe);
    std::vector<std::size_t> pool(universe);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    rng r(seed);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(r.below(universe - i));
        std::swap(pool[i], pool[j]);
    }
    pool.resize(count);
    std::sort(pool.begin(), pool.end());
    return pool;
}

std::vector<std::size_t> promote(const std::vector<std::size_t>& candidates,
                                 const std::vector<double>& scores,
                                 double keep_fraction) {
    if (candidates.empty()) return {};
    // clamp passes NaN through, and ceil(NaN) cast to size_t is undefined.
    if (std::isnan(keep_fraction)) keep_fraction = 0.0;
    keep_fraction = std::clamp(keep_fraction, 1e-9, 1.0);
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_fraction * static_cast<double>(candidates.size()))));

    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (scores[a] != scores[b]) return scores[a] < scores[b];
        return candidates[a] < candidates[b];
    });
    order.resize(std::min(keep, order.size()));

    std::vector<std::size_t> survivors;
    survivors.reserve(order.size());
    for (const std::size_t pos : order) survivors.push_back(candidates[pos]);
    std::sort(survivors.begin(), survivors.end());
    return survivors;
}

}  // namespace meek::search

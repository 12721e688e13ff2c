// Set-associative cache timing model with LRU replacement and a finite MSHR
// file. This is a latency-composition model: each access returns when it
// completes; misses recurse into the next level via the memory_hierarchy.
//
// Tag state is stored as separate per-way arrays (tags, LRU stamps, dirty
// bits), so a lookup scans only the set's tags: one host cache line for an
// 8-way set. Line, set index and tag are addr / line_bytes, line % sets and
// line / sets, computed with shifts and masks for powers of two and by
// division otherwise (EA-LockStep's scaled caches have odd set counts).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace meek {

struct cache_stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 mshr_merges = 0;      // secondary misses folded into an existing MSHR
    u64 mshr_rejections = 0;  // access retries because all MSHRs were busy
    u64 evictions = 0;
    u64 writebacks = 0;

    double miss_rate() const {
        const u64 total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(total);
    }
};

// Outcome of a cache lookup. When `accepted` is false the request could not
// even allocate an MSHR and must be retried by the requester (this is the
// structural backpressure that stalls pipelines).
struct cache_access_result {
    bool accepted = false;
    bool hit = false;
    cycle_t complete_at = 0;
};

class cache_model {
public:
    explicit cache_model(const cache_config& cfg);

    // Tag lookup only: returns hit/miss and, for misses, whether an MSHR for
    // the line already exists (secondary miss) or can be allocated.
    // `fill_done` must be the completion time from the next level and is only
    // consulted when a new MSHR is allocated; pass via callback so the lower
    // level is queried only when needed.
    template <typename FillLatency>
    cache_access_result access(addr_t addr, bool is_write, cycle_t now,
                               FillLatency&& next_level_complete) {
        retire_mshrs(now);
        const u64 line = line_of(addr);
        if (lookup_and_touch(line, is_write)) {
            // Tags are installed when the miss is issued; if the fill is
            // still in flight this is a secondary miss that merges into the
            // MSHR and completes when the fill does.
            if (const auto pending = find_mshr(line)) {
                ++stats_.misses;
                ++stats_.mshr_merges;
                return {true, false, *pending + cfg_.hit_latency};
            }
            ++stats_.hits;
            return {true, true, now + cfg_.hit_latency};
        }
        // Miss on an invalid/evicted line that still has an MSHR in flight.
        if (const auto existing = find_mshr(line)) {
            ++stats_.misses;
            ++stats_.mshr_merges;
            return {true, false, *existing + cfg_.hit_latency};
        }
        if (mshrs_.size() >= cfg_.mshrs) {
            ++stats_.mshr_rejections;
            return {false, false, 0};
        }
        ++stats_.misses;
        const cycle_t done = next_level_complete();
        mshrs_.push_back({line, done});
        first_ready_ = std::min(first_ready_, done);
        fill(line, is_write);
        return {true, false, done + cfg_.hit_latency};
    }

    bool contains(addr_t addr) const;
    void invalidate_all();

    // Line number of an address: addr / line_bytes.
    u64 line_of(addr_t addr) const {
        return line_shift_ >= 0 ? addr >> line_shift_ : addr / cfg_.line_bytes;
    }

    const cache_stats& stats() const { return stats_; }
    const cache_config& config() const { return cfg_; }

private:
    // Inline: every access runs these, usually on a hit.
    bool lookup_and_touch(u64 line, bool is_write) {
        const std::size_t base = set_base(line);
        const u64 tag = tag_of(line);
        const u64* tags = tags_.data() + base;
        for (u32 w = 0; w < cfg_.ways; ++w) {
            if (tags[w] == tag) {
                stamps_[base + w] = ++lru_clock_;
                dirty_[base + w] |= is_write;
                return true;
            }
        }
        return false;
    }
    std::optional<cycle_t> find_mshr(u64 line) const {
        for (const mshr_entry& m : mshrs_) {
            if (m.line == line) return m.ready_at;
        }
        return std::nullopt;
    }
    void retire_mshrs(cycle_t now) {
        if (now >= first_ready_) retire_landed(now);  // else no fill has landed
    }
    void retire_landed(cycle_t now);
    void fill(u64 line, bool is_write);

    std::size_t set_base(u64 line) const {
        const u64 set = set_shift_ >= 0 ? line & (num_sets_ - 1) : line % num_sets_;
        return static_cast<std::size_t>(set) * cfg_.ways;
    }
    u64 tag_of(u64 line) const {
        return set_shift_ >= 0 ? line >> set_shift_ : line / num_sets_;
    }

    // A tag is addr / line_bytes / sets, which never reaches ~0 for lines of
    // two or more bytes, so ~0 marks an invalid way.
    static constexpr u64 k_invalid = ~u64{0};

    struct mshr_entry {
        u64 line;
        cycle_t ready_at;
    };

    cache_config cfg_;
    u64 num_sets_;
    int set_shift_;   // log2(num_sets_), or -1 when not a power of two
    int line_shift_;  // log2(line_bytes), likewise
    // sets × ways, row-major by set.
    std::vector<u64> tags_;
    std::vector<u64> stamps_;  // LRU: larger is more recent
    std::vector<u8> dirty_;
    std::vector<mshr_entry> mshrs_;
    static constexpr cycle_t k_no_mshr = ~cycle_t{0};
    cycle_t first_ready_ = k_no_mshr;  // earliest ready_at in mshrs_
    cache_stats stats_;
    u64 lru_clock_ = 0;
};

}  // namespace meek

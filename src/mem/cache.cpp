#include "mem/cache.h"

#include <algorithm>
#include <bit>

namespace meek {

cache_model::cache_model(const cache_config& cfg)
    : cfg_(cfg),
      num_sets_(cfg.num_sets()),
      set_shift_(std::has_single_bit(num_sets_) ? std::countr_zero(num_sets_) : -1),
      line_shift_(std::has_single_bit(cfg.line_bytes) ? std::countr_zero(cfg.line_bytes) : -1),
      tags_(num_sets_ * cfg.ways, k_invalid),
      stamps_(num_sets_ * cfg.ways),
      dirty_(num_sets_ * cfg.ways) {}

void cache_model::fill(u64 line, bool is_write) {
    const std::size_t base = set_base(line);
    // Prefer the first invalid way; otherwise evict LRU.
    std::size_t victim = base;
    u64 oldest = ~u64{0};
    for (u32 w = 0; w < cfg_.ways; ++w) {
        if (tags_[base + w] == k_invalid) {
            victim = base + w;
            break;
        }
        if (stamps_[base + w] < oldest) {
            oldest = stamps_[base + w];
            victim = base + w;
        }
    }
    if (tags_[victim] != k_invalid) {
        ++stats_.evictions;
        if (dirty_[victim]) ++stats_.writebacks;
    }
    tags_[victim] = tag_of(line);
    dirty_[victim] = is_write;
    stamps_[victim] = ++lru_clock_;
}

void cache_model::retire_landed(cycle_t now) {
    std::erase_if(mshrs_, [now](const mshr_entry& m) { return m.ready_at <= now; });
    first_ready_ = k_no_mshr;
    for (const mshr_entry& m : mshrs_) first_ready_ = std::min(first_ready_, m.ready_at);
}

bool cache_model::contains(addr_t addr) const {
    const u64 line = line_of(addr);
    const std::size_t base = set_base(line);
    const u64 tag = tag_of(line);
    return std::find(tags_.begin() + base, tags_.begin() + base + cfg_.ways, tag) !=
           tags_.begin() + base + cfg_.ways;
}

void cache_model::invalidate_all() {
    std::fill(tags_.begin(), tags_.end(), k_invalid);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    mshrs_.clear();
    first_ready_ = k_no_mshr;
}

}  // namespace meek

// The big core's window of recent stores for store-to-load forwarding: the
// last `capacity` stores in commit order, in a fixed ring. A counting filter
// over 8-byte granules (hashed by address bits 3..10, so granules 2 KiB apart
// share a counter) records how many buffered stores touch each granule; a
// load whose granules all count zero overlaps no buffered store and skips the
// scan. The filter only ever says "maybe", so the scan decides every hit.
#pragma once

#include <array>

#include "common/fifo.h"
#include "common/types.h"

namespace meek {

class store_buffer {
public:
    struct entry {
        addr_t addr = 0;
        u8 size = 0;  // bytes, >= 1
        cycle_t data_ready = 0;
        cycle_t commit_at = 0;
    };

    explicit store_buffer(u32 capacity) : ring_(capacity) {}

    // Appends a store, dropping the oldest once `capacity` are buffered.
    void push(const entry& e) {
        if (ring_.capacity() == 0) return;
        if (ring_.full()) count(*ring_.pop(), -1);
        ring_.push(e);
        count(e, +1);
    }

    // The youngest buffered store overlapping [addr, addr + size), or nullptr.
    const entry* youngest_overlap(addr_t addr, u8 size) const {
        bool maybe = false;
        for (u64 g = addr >> 3; g <= (addr + size - 1) >> 3; ++g) {
            maybe |= filter_[g & k_filter_mask] != 0;
        }
        if (!maybe) return nullptr;
        const addr_t hi = addr + size;
        for (std::size_t i = ring_.size(); i-- > 0;) {
            const entry& s = ring_.at(i);
            if (hi > s.addr && addr < s.addr + s.size) return &s;
        }
        return nullptr;
    }

    std::size_t size() const { return ring_.size(); }

private:
    static constexpr u64 k_filter_mask = 255;

    void count(const entry& e, int delta) {
        for (u64 g = e.addr >> 3; g <= (e.addr + e.size - 1) >> 3; ++g) {
            filter_[g & k_filter_mask] = static_cast<u16>(filter_[g & k_filter_mask] + delta);
        }
    }

    bounded_fifo<entry> ring_;
    std::array<u16, k_filter_mask + 1> filter_{};
};

}  // namespace meek

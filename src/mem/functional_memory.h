// Sparse functional memory backing the simulated 16 GB physical address
// space. Pages are allocated on first touch; reads of untouched memory
// return zero, like zero-fill-on-demand.
//
// The page table is an open-addressing hash (power-of-two slot array, linear
// probing, at most half full) from page number to page. Pages are heap-owned
// and never freed, so page pointers stay valid for the memory's lifetime.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/types.h"

namespace meek {

class functional_memory {
public:
    static constexpr u32 k_page_bytes = 4096;

    functional_memory();

    u8 read_byte(addr_t addr) const;
    void write_byte(addr_t addr, u8 value);

    // Little-endian multi-byte accessors; `size` in {1, 2, 4, 8}. Reads are
    // zero-extended to 64 bits.
    u64 read(addr_t addr, u8 size) const;
    void write(addr_t addr, u8 size, u64 value);

    // Copies `len` bytes page by page; touches the same pages as `len`
    // write_byte calls would.
    void write_block(addr_t addr, const u8* data, std::size_t len);

    std::size_t allocated_pages() const { return pages_.size(); }

private:
    using page = std::array<u8, k_page_bytes>;

    // Page numbers are addr / 4096 < 2^52, so ~0 never names a real page.
    static constexpr u64 k_empty = ~u64{0};
    struct slot {
        u64 num = k_empty;
        page* p = nullptr;
    };

    const page* find_page(addr_t addr) const;
    page& touch_page(addr_t addr);
    std::size_t probe(u64 num) const;  // slot holding `num`, or the empty slot to use
    void grow();

    std::vector<slot> table_;
    u32 shift_ = 0;  // 64 - log2(table_.size())
    std::vector<std::unique_ptr<page>> pages_;

    // Last-page caches: consecutive accesses overwhelmingly hit the same page.
    mutable u64 last_lookup_num_ = 0;
    mutable const page* last_lookup_ = nullptr;
    u64 last_touch_num_ = 0;
    page* last_touch_ = nullptr;
};

}  // namespace meek

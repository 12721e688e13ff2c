// Sparse functional memory backing the simulated 16 GB physical address
// space, copy-on-write over a shared program image. Reads of untouched memory
// return zero, like zero-fill-on-demand.
//
// Shared image: map_image() makes a page entry point at the caller's bytes
// instead of copying them, so every memory that loads the same program reads
// one copy of its data. map_ring() does the same for a pointer ring
// (pointer_ring.h): the page references the ring's u32 permutation, and a
// read synthesizes the 16-byte nodes from it, so a ring costs a quarter of
// its byte image and is never materialized. A page holds at most one shared
// source, image or ring. Private blocks: the first write to a 128-byte block
// of a page copies just that block (its shared bytes, zeros elsewhere) into
// the memory's own storage, and every later access to the block uses the
// copy. A read checks the private block, then the shared source, then returns
// zero. The shared bytes and rings are never written. Lifetime rule: mapped
// bytes and rings are read in place, so they must outlive the memory and must
// not change while it is in use (ooo_core::load_program and
// meek_soc::load_program pass this on to the program they load).
//
// The page table is an open-addressing hash (power-of-two slot array, linear
// probing, at most half full) from page number to page. Pages and private
// blocks are heap-owned and never freed, so their pointers stay valid for the
// memory's lifetime.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mem/pointer_ring.h"

namespace meek {

class functional_memory {
public:
    static constexpr u32 k_page_bytes = 4096;
    // Copy-on-write granule. A 340k-instruction dedup run writes to every
    // page of its 4 MiB image but to only 27% of its 128-byte blocks. Against
    // private pages, perfbench `campaign` peak RSS fell 37% with 64-byte
    // blocks, 35% with 128, 29% with 256 and 19% with 512; 128 keeps nearly
    // all of the gain with half the per-page block table of 64.
    static constexpr u32 k_block_bytes = 128;

    functional_memory();

    u8 read_byte(addr_t addr) const;
    void write_byte(addr_t addr, u8 value);

    // Little-endian multi-byte accessors; `size` in {1, 2, 4, 8}. Reads are
    // zero-extended to 64 bits. An access that stays inside one block (every
    // aligned one) costs one page lookup.
    u64 read(addr_t addr, u8 size) const;
    void write(addr_t addr, u8 size, u64 value);

    // Makes `len` bytes at `addr` read as `data[0..len)`. Pages not yet
    // present reference `data` in place (see the lifetime rule above); on a
    // page already written or mapped the bytes are written like a store, so a
    // later mapping wins where two overlap.
    void map_image(addr_t addr, const u8* data, std::size_t len);
    // Makes ring.base.. read as ring.materialize() without building it: pages
    // not yet present reference `ring` in place (same lifetime rule), pages
    // already present take the node bytes as stores.
    void map_ring(const pointer_ring& ring);

    std::size_t allocated_pages() const { return pages_.size(); }
    std::size_t private_blocks() const { return private_blocks_; }

private:
    static constexpr u32 k_blocks_per_page = k_page_bytes / k_block_bytes;

    struct page {
        // Shared bytes cover page offsets [shared_lo, shared_hi); none when
        // shared_lo == shared_hi. They come from `ring` when it is set (page
        // offset o is ring byte ring_skew + o, mod 2^64), else from `image`,
        // the byte at shared_lo.
        const u8* image = nullptr;
        const pointer_ring* ring = nullptr;
        u64 ring_skew = 0;
        u16 shared_lo = 0;
        u16 shared_hi = 0;
        std::array<u8*, k_blocks_per_page> blocks{};  // null: not written yet
    };

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

    // Copies `n` bytes at page offset `off` of `p` into `dst`, which holds
    // zeros; the span lies inside one block.
    static void copy_out(const page& p, u32 off, u8* dst, u32 n);
    // Byte `off` of `p`'s private copy of its block, made on first use.
    u8* writable(page& p, u32 off);
    // Writes `len` bytes through private blocks.
    void store(addr_t addr, const u8* data, std::size_t len);

    std::vector<slot> table_;
    u32 shift_ = 0;  // 64 - log2(table_.size())
    std::vector<std::unique_ptr<page>> pages_;

    // Private blocks are carved from zeroed chunks in allocation order.
    std::vector<std::unique_ptr<u8[]>> chunks_;
    std::size_t private_blocks_ = 0;

    // Last-page caches: consecutive accesses overwhelmingly hit the same page.
    mutable u64 last_lookup_num_ = 0;
    mutable const page* last_lookup_ = nullptr;
    u64 last_touch_num_ = 0;
    page* last_touch_ = nullptr;
};

}  // namespace meek

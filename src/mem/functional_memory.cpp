#include "mem/functional_memory.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace meek {
namespace {

constexpr std::size_t k_initial_slots = 64;
constexpr std::size_t k_blocks_per_chunk = 64;  // 8 KiB chunks of private blocks

// Accesses copy a u64's bytes in memory order: byte i of the access is byte i
// of the value only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

// Writes ring bytes [pos, pos + n) to `dst`, which holds zeros: only the
// pointer half of each node is copied.
void copy_ring(const pointer_ring& ring, u64 pos, u8* dst, u32 n) {
    constexpr u32 k_node = pointer_ring::k_node_bytes;
    for (u32 done = 0; done < n;) {
        const u32 at = static_cast<u32>(pos % k_node);
        const u32 span = std::min<u32>(n - done, k_node - at);
        if (at < sizeof(u64)) {
            const u64 ptr = ring.pointer(pos / k_node);
            std::memcpy(dst + done, reinterpret_cast<const u8*>(&ptr) + at,
                        std::min<u32>(span, sizeof(u64) - at));
        }
        done += span;
        pos += span;
    }
}

}  // namespace

functional_memory::functional_memory()
    : table_(k_initial_slots), shift_(64 - std::countr_zero(k_initial_slots)) {}

std::size_t functional_memory::probe(u64 num) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>((num * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (table_[i].num != num && table_[i].num != k_empty) i = (i + 1) & mask;
    return i;
}

void functional_memory::grow() {
    std::vector<slot> old(table_.size() * 2);
    old.swap(table_);
    --shift_;
    for (const slot& s : old) {
        if (s.num != k_empty) table_[probe(s.num)] = s;
    }
}

const functional_memory::page* functional_memory::find_page(addr_t addr) const {
    const u64 num = addr / k_page_bytes;
    if (last_lookup_ && last_lookup_num_ == num) return last_lookup_;
    const page* p = table_[probe(num)].p;
    if (p) {
        last_lookup_num_ = num;
        last_lookup_ = p;
    }
    return p;
}

functional_memory::page& functional_memory::touch_page(addr_t addr) {
    const u64 num = addr / k_page_bytes;
    if (last_touch_ && last_touch_num_ == num) return *last_touch_;
    std::size_t i = probe(num);
    if (table_[i].num == k_empty) {
        if (2 * (pages_.size() + 1) > table_.size()) {
            grow();
            i = probe(num);
        }
        pages_.push_back(std::make_unique<page>());
        table_[i] = {num, pages_.back().get()};
    }
    last_touch_num_ = num;
    last_touch_ = table_[i].p;
    return *last_touch_;
}

void functional_memory::copy_out(const page& p, u32 off, u8* dst, u32 n) {
    if (const u8* block = p.blocks[off / k_block_bytes]) {
        std::memcpy(dst, block + off % k_block_bytes, n);
        return;
    }
    const u32 lo = std::max<u32>(off, p.shared_lo);
    const u32 hi = std::min<u32>(off + n, p.shared_hi);
    if (lo >= hi) return;
    if (p.ring) {
        copy_ring(*p.ring, p.ring_skew + lo, dst + (lo - off), hi - lo);
        return;
    }
    std::memcpy(dst + (lo - off), p.image + (lo - p.shared_lo), hi - lo);
}

u8* functional_memory::writable(page& p, u32 off) {
    u8*& block = p.blocks[off / k_block_bytes];
    if (!block) {
        if (private_blocks_ % k_blocks_per_chunk == 0) {
            chunks_.push_back(std::make_unique<u8[]>(k_blocks_per_chunk * k_block_bytes));
        }
        u8* copy = chunks_.back().get() + private_blocks_ % k_blocks_per_chunk * k_block_bytes;
        ++private_blocks_;
        copy_out(p, off - off % k_block_bytes, copy, k_block_bytes);
        block = copy;
    }
    return block + off % k_block_bytes;
}

u8 functional_memory::read_byte(addr_t addr) const {
    return static_cast<u8>(read(addr, 1));
}

void functional_memory::write_byte(addr_t addr, u8 value) { write(addr, 1, value); }

u64 functional_memory::read(addr_t addr, u8 size) const {
    u64 value = 0;
    u8* dst = reinterpret_cast<u8*>(&value);
    const u32 off = addr % k_page_bytes;
    if (off % k_block_bytes + size <= k_block_bytes) {
        // Common case: the access stays within one block, so a single lookup
        // covers every byte.
        if (const page* p = find_page(addr)) copy_out(*p, off, dst, size);
        return value;
    }
    for (u32 done = 0; done < size;) {
        const addr_t a = addr + done;
        const u32 o = a % k_page_bytes;
        const u32 n = std::min<u32>(size - done, k_block_bytes - o % k_block_bytes);
        if (const page* p = find_page(a)) copy_out(*p, o, dst + done, n);
        done += n;
    }
    return value;
}

void functional_memory::write(addr_t addr, u8 size, u64 value) {
    const u32 off = addr % k_page_bytes;
    if (off % k_block_bytes + size <= k_block_bytes) {
        std::memcpy(writable(touch_page(addr), off), &value, size);
        return;
    }
    store(addr, reinterpret_cast<const u8*>(&value), size);
}

void functional_memory::store(addr_t addr, const u8* data, std::size_t len) {
    while (len != 0) {
        const u32 off = addr % k_page_bytes;
        const std::size_t n = std::min<std::size_t>(len, k_block_bytes - off % k_block_bytes);
        std::memcpy(writable(touch_page(addr), off), data, n);
        addr += n;
        data += n;
        len -= n;
    }
}

void functional_memory::map_image(addr_t addr, const u8* data, std::size_t len) {
    while (len != 0) {
        const u32 off = addr % k_page_bytes;
        const std::size_t n = std::min<std::size_t>(len, k_page_bytes - off);
        if (find_page(addr)) {
            store(addr, data, n);
        } else {
            page& p = touch_page(addr);
            p.image = data;
            p.shared_lo = static_cast<u16>(off);
            p.shared_hi = static_cast<u16>(off + n);
        }
        addr += n;
        data += n;
        len -= n;
    }
}

void functional_memory::map_ring(const pointer_ring& ring) {
    addr_t addr = ring.base;
    for (std::size_t len = ring.bytes(); len != 0;) {
        const u32 off = addr % k_page_bytes;
        const u32 n = static_cast<u32>(std::min<std::size_t>(len, k_page_bytes - off));
        if (find_page(addr)) {
            std::array<u8, k_page_bytes> bytes{};
            copy_ring(ring, addr - ring.base, bytes.data(), n);
            store(addr, bytes.data(), n);
        } else {
            page& p = touch_page(addr);
            p.ring = &ring;
            p.ring_skew = addr - off - ring.base;
            p.shared_lo = static_cast<u16>(off);
            p.shared_hi = static_cast<u16>(off + n);
        }
        addr += n;
        len -= n;
    }
}

}  // namespace meek

#include "mem/functional_memory.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace meek {
namespace {

constexpr std::size_t k_initial_slots = 64;

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
        pages_.push_back(std::make_unique<page>());  // value-initialized: zeros
        table_[i] = {num, pages_.back().get()};
    }
    last_touch_num_ = num;
    last_touch_ = table_[i].p;
    return *last_touch_;
}

u8 functional_memory::read_byte(addr_t addr) const {
    const page* p = find_page(addr);
    return p ? (*p)[addr % k_page_bytes] : 0;
}

void functional_memory::write_byte(addr_t addr, u8 value) {
    touch_page(addr)[addr % k_page_bytes] = value;
}

u64 functional_memory::read(addr_t addr, u8 size) const {
    const u64 off = addr % k_page_bytes;
    if (off + size <= k_page_bytes) {
        // Common case: the access stays within one page, so a single lookup
        // covers every byte.
        const page* p = find_page(addr);
        if (!p) return 0;
        u64 value = 0;
        std::memcpy(&value, p->data() + off, size);  // little-endian host
        return value;
    }
    u64 value = 0;
    for (u8 i = 0; i < size; ++i) {
        value |= static_cast<u64>(read_byte(addr + i)) << (8 * i);
    }
    return value;
}

void functional_memory::write(addr_t addr, u8 size, u64 value) {
    const u64 off = addr % k_page_bytes;
    if (off + size <= k_page_bytes) {
        std::memcpy(touch_page(addr).data() + off, &value, size);
        return;
    }
    for (u8 i = 0; i < size; ++i) {
        write_byte(addr + i, static_cast<u8>(value >> (8 * i)));
    }
}

void functional_memory::write_block(addr_t addr, const u8* data, std::size_t len) {
    while (len != 0) {
        const std::size_t off = addr % k_page_bytes;
        const std::size_t n = std::min<std::size_t>(len, k_page_bytes - off);
        std::memcpy(touch_page(addr).data() + off, data, n);
        addr += n;
        data += n;
        len -= n;
    }
}

}  // namespace meek

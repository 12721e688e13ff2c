// Memory subsystem tests: sparse functional memory, the set-associative
// cache model (LRU, MSHR semantics, exact set/tag math on non-power-of-two
// geometries against a naive LRU model), the DRAM model and the hierarchy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "area/area_model.h"
#include "common/rng.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/functional_memory.h"
#include "mem/hierarchy.h"

namespace meek {
namespace {

TEST(functional_memory, zero_fill_and_round_trip) {
    functional_memory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
    EXPECT_EQ(m.read_byte(0x1000), 0x88);
    EXPECT_EQ(m.read_byte(0x1007), 0x11);
}

TEST(functional_memory, cross_page_access) {
    functional_memory m;
    const addr_t boundary = functional_memory::k_page_bytes - 4;
    m.write(boundary, 8, 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m.read(boundary, 8), 0xAABBCCDDEEFF0011ull);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

// Deterministic pseudo-random image bytes.
std::vector<u8> image_bytes(std::size_t len, u64 seed) {
    rng r(seed);
    std::vector<u8> bytes(len);
    for (u8& b : bytes) b = static_cast<u8>(r.next());
    return bytes;
}

constexpr addr_t k_page = functional_memory::k_page_bytes;
constexpr addr_t k_block = functional_memory::k_block_bytes;

TEST(functional_memory, reads_go_through_a_mapped_image) {
    const std::vector<u8> image = image_bytes(3 * k_page, 1);
    functional_memory m;
    m.map_image(0x10000, image.data(), image.size());
    EXPECT_EQ(m.allocated_pages(), 3u);
    EXPECT_EQ(m.private_blocks(), 0u);
    for (std::size_t i = 0; i < image.size(); ++i) {
        ASSERT_EQ(m.read_byte(0x10000 + i), image[i]) << i;
    }
    for (std::size_t i = 0; i < image.size(); i += 8) {
        u64 word = 0;
        std::memcpy(&word, image.data() + i, 8);
        ASSERT_EQ(m.read(0x10000 + i, 8), word) << i;
    }
    EXPECT_EQ(m.read(0x10000 - 8, 8), 0u);  // below and above the image
    EXPECT_EQ(m.read(0x10000 + image.size(), 8), 0u);
    EXPECT_EQ(m.private_blocks(), 0u);  // reads never copy
}

TEST(functional_memory, a_write_copies_only_its_block_and_never_the_source) {
    std::vector<u8> image = image_bytes(2 * k_page, 2);
    const std::vector<u8> original = image;
    functional_memory m;
    m.map_image(0x20000, image.data(), image.size());

    const addr_t at = 0x20000 + 3 * k_block + 16;
    m.write(at, 8, 0x0123456789ABCDEFull);
    EXPECT_EQ(m.private_blocks(), 1u);
    EXPECT_EQ(image, original);
    EXPECT_EQ(m.read(at, 8), 0x0123456789ABCDEFull);
    // The rest of the copied block and its neighbours still read the image.
    for (addr_t a = 0x20000 + 2 * k_block; a < 0x20000 + 5 * k_block; ++a) {
        if (a >= at && a < at + 8) continue;
        ASSERT_EQ(m.read_byte(a), image[a - 0x20000]) << a;
    }
    m.write(at + 8, 8, 0);  // same block again: no second copy
    EXPECT_EQ(m.private_blocks(), 1u);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(functional_memory, accesses_spanning_block_and_page_boundaries_over_an_image) {
    std::vector<u8> image = image_bytes(2 * k_page, 3);
    const std::vector<u8> original = image;
    functional_memory m;
    const addr_t base = 0x40000;
    m.map_image(base, image.data(), image.size());
    const auto image_word = [&](addr_t a) {
        u64 word = 0;
        std::memcpy(&word, image.data() + (a - base), 8);
        return word;
    };

    for (const addr_t a : {base + k_block - 4, base + k_page - 4}) {
        SCOPED_TRACE(a);
        EXPECT_EQ(m.read(a, 8), image_word(a));
        const std::size_t blocks = m.private_blocks();
        m.write(a, 8, 0xAABBCCDDEEFF0011ull);
        EXPECT_EQ(m.private_blocks(), blocks + 2);  // both halves copied
        EXPECT_EQ(m.read(a, 8), 0xAABBCCDDEEFF0011ull);
        EXPECT_EQ(m.read(a - 8, 8), image_word(a - 8));
        EXPECT_EQ(m.read(a + 8, 8), image_word(a + 8));
    }
    EXPECT_EQ(image, original);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(functional_memory, a_page_written_before_it_is_mapped_takes_the_image_bytes) {
    const std::vector<u8> image = image_bytes(0x200, 4);
    functional_memory m;
    m.write(0x3000, 8, 0x1111111111111111ull);  // outside the blob
    m.write(0x3100, 8, 0x2222222222222222ull);  // inside it
    m.map_image(0x3080, image.data(), image.size());
    EXPECT_EQ(m.read(0x3000, 8), 0x1111111111111111ull);
    for (std::size_t i = 0; i < image.size(); ++i) {
        ASSERT_EQ(m.read_byte(0x3080 + i), image[i]) << i;
    }
    EXPECT_EQ(m.read_byte(0x3080 + image.size()), 0);
    EXPECT_EQ(m.allocated_pages(), 1u);
}

TEST(functional_memory, overlapping_blobs_the_later_one_wins) {
    std::vector<u8> first = image_bytes(2 * k_page, 5);
    std::vector<u8> second = image_bytes(100, 6);
    const std::vector<u8> first_copy = first, second_copy = second;
    functional_memory m;
    m.map_image(0x50000, first.data(), first.size());
    const addr_t at = 0x50000 + k_page - 40;  // straddles the page boundary
    m.map_image(at, second.data(), second.size());
    for (addr_t a = 0x50000; a < 0x50000 + first.size(); ++a) {
        const bool in_second = a >= at && a < at + second.size();
        ASSERT_EQ(m.read_byte(a), in_second ? second[a - at] : first[a - 0x50000]) << a;
    }
    EXPECT_EQ(first, first_copy);
    EXPECT_EQ(second, second_copy);
}

TEST(functional_memory, unaligned_blob_head_and_tail_read_zero_around_the_image) {
    const std::vector<u8> image = image_bytes(k_page + 100, 7);
    functional_memory m;
    const addr_t base = 0x5010;  // head and tail both mid-page, mid-block
    m.map_image(base, image.data(), image.size());
    EXPECT_EQ(m.allocated_pages(), 2u);
    EXPECT_EQ(m.read_byte(base - 1), 0);
    EXPECT_EQ(m.read_byte(base + image.size()), 0);
    for (std::size_t i = 0; i < image.size(); ++i) {
        ASSERT_EQ(m.read_byte(base + i), image[i]) << i;
    }
    // 8-byte reads that straddle each edge mix zeros and image bytes.
    for (const addr_t a : {base - 4, base + image.size() - 4}) {
        u64 expect = 0;
        for (u32 i = 0; i < 8; ++i) {
            const addr_t b = a + i;
            const u8 byte = b >= base && b < base + image.size() ? image[b - base] : 0;
            expect |= static_cast<u64>(byte) << (8 * i);
        }
        EXPECT_EQ(m.read(a, 8), expect) << a;
    }
    // A write across the tail copies the partial block and zero-fills past it.
    const addr_t tail = base + image.size() - 2;
    m.write(tail, 4, 0xDDCCBBAAu);
    EXPECT_EQ(m.read(tail - 2, 8),
              (u64{0xDDCCBBAA} << 16) | image[image.size() - 4] |
                  (u64{image[image.size() - 3]} << 8));
}

TEST(functional_memory, mapping_touches_the_pages_writes_would) {
    const std::vector<u8> image = image_bytes(3 * k_page + 777, 8);
    for (const addr_t base : {addr_t{0x8000}, addr_t{0x8123}, addr_t{0x8FFF}}) {
        functional_memory mapped, written;
        mapped.map_image(base, image.data(), image.size());
        for (std::size_t i = 0; i < image.size(); ++i) written.write_byte(base + i, image[i]);
        EXPECT_EQ(mapped.allocated_pages(), written.allocated_pages()) << base;
        for (addr_t a = base - 64; a < base + image.size() + 64; a += 8) {
            ASSERT_EQ(mapped.read(a, 8), written.read(a, 8)) << a;
        }
    }
}

// Random maps, reads and writes of every size and alignment over a few
// pages, against a flat byte array.
TEST(functional_memory, random_accesses_match_a_flat_reference) {
    constexpr addr_t base = 0x70000;
    constexpr std::size_t span = 4 * k_page;
    std::vector<u8> ref(span, 0);
    std::vector<std::vector<u8>> images;
    functional_memory m;
    rng r(9);
    for (int step = 0; step < 20'000; ++step) {
        const u8 size = u8{1} << r.below(4);
        const addr_t off = r.below(span - 8);
        if (step % 2000 == 0) {
            const std::size_t len = 1 + r.below(span - off);
            images.push_back(image_bytes(len, step));
            m.map_image(base + off, images.back().data(), len);
            std::copy(images.back().begin(), images.back().end(), ref.begin() + off);
        } else if (r.chance(0.3)) {
            const u64 value = r.next();
            m.write(base + off, size, value);
            std::memcpy(ref.data() + off, &value, size);
        } else {
            u64 expect = 0;
            std::memcpy(&expect, ref.data() + off, size);
            ASSERT_EQ(m.read(base + off, size), expect) << "step " << step;
        }
    }
}

TEST(functional_memory, partial_writes_preserve_neighbors) {
    functional_memory m;
    m.write(0x100, 8, ~u64{0});
    m.write(0x102, 2, 0);
    EXPECT_EQ(m.read(0x100, 8), 0xFFFFFFFF0000FFFFull);
}

// A single-cycle ring of `nodes` nodes (Sattolo shuffle, as the generator
// draws it).
pointer_ring random_ring(addr_t base, u32 nodes, u64 seed) {
    pointer_ring ring{base, std::vector<u32>(nodes)};
    for (u32 i = 0; i < nodes; ++i) ring.next[i] = i;
    rng r(seed);
    for (u32 i = nodes - 1; i > 0; --i) std::swap(ring.next[i], ring.next[r.below(i)]);
    return ring;
}

u64 flat_read(const std::vector<u8>& flat, std::size_t at, u8 size) {
    u64 value = 0;
    std::memcpy(&value, flat.data() + at, size);
    return value;
}

TEST(pointer_ring, materialize_lays_out_little_endian_pointers_and_zero_payloads) {
    const pointer_ring ring{0x1000, {2, 0, 1}};
    const std::vector<u8> bytes = ring.materialize();
    ASSERT_EQ(bytes.size(), 48u);
    const std::vector<u8> node0 = {0x20, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_TRUE(std::equal(node0.begin(), node0.end(), bytes.begin()));
    EXPECT_EQ(flat_read(bytes, 16, 8), 0x1000u);
    EXPECT_EQ(flat_read(bytes, 32, 8), 0x1010u);
}

// Reads and writes of every size at every alignment around node, block and
// page edges, then at random, against the materialized bytes. One ring starts
// on a page boundary, one mid-page; both end mid-page.
TEST(functional_memory, ring_accesses_match_the_materialized_bytes) {
    for (const addr_t base : {addr_t{0x90000}, addr_t{0x90000 + 0x438}}) {
        SCOPED_TRACE(base);
        const pointer_ring ring = random_ring(base, 3 * k_page / 16 + 37, base);
        const std::vector<u32> next = ring.next;
        const addr_t lo = base - 64;  // reference covers a zero margin each side
        std::vector<u8> ref(64 + ring.bytes() + 64, 0);
        const std::vector<u8> image = ring.materialize();
        std::copy(image.begin(), image.end(), ref.begin() + 64);

        functional_memory m;
        m.map_ring(ring);
        for (addr_t a = lo; a + 8 <= lo + ref.size(); ++a) {
            for (const u8 size : {1, 2, 4, 8}) {
                ASSERT_EQ(m.read(a, size), flat_read(ref, a - lo, size))
                    << a << " size " << int{size};
            }
        }
        EXPECT_EQ(m.private_blocks(), 0u);  // reads never copy

        rng r(base);
        for (int step = 0; step < 20'000; ++step) {
            const u8 size = u8{1} << r.below(4);
            const addr_t off = r.below(ref.size() - 8);
            if (r.chance(0.3)) {
                const u64 value = r.next();
                m.write(lo + off, size, value);
                std::memcpy(ref.data() + off, &value, size);
            } else {
                ASSERT_EQ(m.read(lo + off, size), flat_read(ref, off, size)) << "step " << step;
            }
        }
        for (addr_t a = lo; a + 8 <= lo + ref.size(); a += 8) {
            ASSERT_EQ(m.read(a, 8), flat_read(ref, a - lo, 8)) << a;
        }
        EXPECT_EQ(ring.next, next);
    }
}

TEST(functional_memory, a_16_node_ring_covers_part_of_one_page) {
    const pointer_ring ring = random_ring(0xA0100, 16, 11);
    functional_memory m;
    m.map_ring(ring);
    EXPECT_EQ(m.allocated_pages(), 1u);
    EXPECT_EQ(m.read(ring.base - 8, 8), 0u);
    EXPECT_EQ(m.read(ring.base + ring.bytes(), 8), 0u);
    for (u32 i = 0; i < 16; ++i) {
        EXPECT_EQ(m.read(ring.base + 16 * i, 8), ring.base + 16 * u64{ring.next[i]}) << i;
        EXPECT_EQ(m.read(ring.base + 16 * i + 8, 8), 0u) << i;
    }
    // Following the pointers from node 0 visits every node once.
    addr_t at = ring.base;
    for (u32 i = 1; i < 16; ++i) {
        at = m.read(at, 8);
        ASSERT_NE(at, ring.base) << "cycle closed after " << i << " nodes";
    }
    EXPECT_EQ(m.read(at, 8), ring.base);
}

TEST(functional_memory, a_ring_mapped_over_a_written_page_takes_its_bytes_as_stores) {
    const pointer_ring ring = random_ring(0xB0080, 300, 12);  // ends mid-second page
    functional_memory m;
    m.write(0xB0000, 8, 0x1111111111111111ull);  // outside the ring
    m.write(0xB0108, 8, 0x2222222222222222ull);  // inside it, over a payload
    m.map_ring(ring);
    EXPECT_EQ(m.read(0xB0000, 8), 0x1111111111111111ull);
    const std::vector<u8> image = ring.materialize();
    for (std::size_t i = 0; i < image.size(); ++i) {
        ASSERT_EQ(m.read_byte(ring.base + i), image[i]) << i;
    }
    EXPECT_EQ(m.read_byte(ring.base + image.size()), 0);
    EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(functional_memory, two_memories_over_one_ring_never_see_each_others_writes) {
    const pointer_ring ring = random_ring(0xC0000, 2 * k_page / 16, 13);
    const std::vector<u32> next = ring.next;
    functional_memory a, b;
    a.map_ring(ring);
    b.map_ring(ring);
    const addr_t node = ring.base + 16 * 70;
    a.write(node, 8, 0xAAAAAAAAAAAAAAAAull);
    b.write(node + 8, 8, 0xBBBBBBBBBBBBBBBBull);
    EXPECT_EQ(a.read(node, 8), 0xAAAAAAAAAAAAAAAAull);
    EXPECT_EQ(a.read(node + 8, 8), 0u);
    EXPECT_EQ(b.read(node, 8), ring.pointer(70));
    EXPECT_EQ(b.read(node + 8, 8), 0xBBBBBBBBBBBBBBBBull);
    EXPECT_EQ(a.private_blocks(), 1u);
    EXPECT_EQ(b.private_blocks(), 1u);
    EXPECT_EQ(ring.next, next);
}

cache_config small_cache() {
    return {"test", 1024, 2, 64, 2, 1};  // 8 sets x 2 ways
}

TEST(cache, hit_after_fill) {
    cache_model c(small_cache());
    cycle_t backing_calls = 0;
    const auto miss = c.access(0x1000, false, 0, [&] {
        ++backing_calls;
        return cycle_t{20};
    });
    EXPECT_TRUE(miss.accepted);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(backing_calls, 1u);
    EXPECT_GE(miss.complete_at, 20u);

    const auto hit = c.access(0x1000, false, 30, [&] {
        ++backing_calls;
        return cycle_t{100};
    });
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(backing_calls, 1u);  // no second fill
    EXPECT_EQ(hit.complete_at, 31u);
}

TEST(cache, same_line_different_offsets_hit) {
    cache_model c(small_cache());
    c.access(0x1000, false, 0, [] { return cycle_t{10}; });
    const auto r = c.access(0x103F, false, 20, [] { return cycle_t{100}; });
    EXPECT_TRUE(r.hit);
}

TEST(cache, lru_eviction_in_set) {
    cache_model c(small_cache());  // 2 ways per set; set stride = 8 lines = 512 B
    const addr_t a = 0x0000;
    const addr_t b = a + 512;   // same set, different tag
    const addr_t d = a + 1024;  // same set, third tag
    c.access(a, false, 0, [] { return cycle_t{5}; });
    c.access(b, false, 10, [] { return cycle_t{15}; });
    // Touch `a` so `b` becomes LRU.
    c.access(a, false, 20, [] { return cycle_t{25}; });
    c.access(d, false, 30, [] { return cycle_t{35}; });  // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(cache, dirty_eviction_counts_writeback) {
    cache_model c(small_cache());
    c.access(0x0000, true, 0, [] { return cycle_t{5}; });   // dirty fill
    c.access(0x0200, false, 10, [] { return cycle_t{15}; });
    c.access(0x0400, false, 20, [] { return cycle_t{25}; });  // evicts dirty line
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(cache, mshr_merges_secondary_miss) {
    cache_model c(small_cache());
    cycle_t fills = 0;
    const auto first = c.access(0x1000, false, 0, [&] {
        ++fills;
        return cycle_t{50};
    });
    // Second access to the same line while the miss is outstanding.
    const auto second = c.access(0x1008, false, 1, [&] {
        ++fills;
        return cycle_t{999};
    });
    EXPECT_TRUE(second.accepted);
    EXPECT_EQ(fills, 1u);
    EXPECT_EQ(c.stats().mshr_merges, 1u);
    EXPECT_LE(second.complete_at, first.complete_at + 1);
}

TEST(cache, mshr_exhaustion_rejects) {
    cache_model c(small_cache());  // 2 MSHRs
    EXPECT_TRUE(c.access(0x0000, false, 0, [] { return cycle_t{100}; }).accepted);
    EXPECT_TRUE(c.access(0x4000, false, 0, [] { return cycle_t{100}; }).accepted);
    const auto third = c.access(0x8000, false, 0, [] { return cycle_t{100}; });
    EXPECT_FALSE(third.accepted);
    EXPECT_EQ(c.stats().mshr_rejections, 1u);
    // After the fills retire, new misses are accepted again.
    const auto later = c.access(0x8000, false, 200, [] { return cycle_t{300}; });
    EXPECT_TRUE(later.accepted);
}

TEST(cache, invalidate_all_clears_contents) {
    cache_model c(small_cache());
    c.access(0x1000, false, 0, [] { return cycle_t{5}; });
    c.invalidate_all();
    EXPECT_FALSE(c.contains(0x1000));
}

// Naive set-associative LRU: each set is a list of (tag, dirty), most
// recently used first; set = line % sets, tag = line / sets by definition.
class naive_lru {
public:
    explicit naive_lru(const cache_config& cfg)
        : cfg_(cfg), sets_(cfg.num_sets()) {}

    bool access(addr_t addr, bool is_write) {
        const u64 line = addr / cfg_.line_bytes;
        auto& set = sets_[line % sets_.size()];
        const u64 tag = line / sets_.size();
        const auto it = std::find_if(set.begin(), set.end(),
                                     [tag](const way& w) { return w.tag == tag; });
        if (it != set.end()) {
            way w = *it;
            w.dirty |= is_write;
            set.erase(it);
            set.insert(set.begin(), w);
            return true;
        }
        if (set.size() == cfg_.ways) {
            ++evictions;
            if (set.back().dirty) ++writebacks;
            set.pop_back();
        }
        set.insert(set.begin(), way{tag, is_write});
        return false;
    }

    bool contains(addr_t addr) const {
        const u64 line = addr / cfg_.line_bytes;
        const auto& set = sets_[line % sets_.size()];
        const u64 tag = line / sets_.size();
        return std::any_of(set.begin(), set.end(),
                           [tag](const way& w) { return w.tag == tag; });
    }

    u64 evictions = 0;
    u64 writebacks = 0;

private:
    struct way {
        u64 tag;
        bool dirty;
    };
    cache_config cfg_;
    std::vector<std::vector<way>> sets_;
};

// Fills complete at once and time moves forward one cycle per access, so
// MSHRs never merge or reject and hit/miss is pure tag state.
void expect_matches_naive_lru(const cache_config& cfg, u64 seed) {
    cache_model c(cfg);
    naive_lru ref(cfg);
    rng r(seed);
    const u64 lines = u64{cfg.num_sets()} * cfg.ways * 3;
    u64 hits = 0;
    for (cycle_t now = 0; now < 60'000; ++now) {
        // Mostly a hot region three times the capacity; sometimes far
        // addresses whose tags need every bit of the division.
        const u64 line = r.chance(0.9) ? r.next() % lines : r.next() >> 26;
        const addr_t addr = line * cfg.line_bytes + r.next() % cfg.line_bytes;
        const bool write = r.chance(0.3);
        const cache_access_result got = c.access(addr, write, now, [now] { return now; });
        ASSERT_TRUE(got.accepted);
        ASSERT_EQ(got.hit, ref.access(addr, write)) << "access " << now;
        hits += got.hit;
        if (now % 97 == 0) {
            const addr_t probe = (r.next() % lines) * cfg.line_bytes;
            ASSERT_EQ(c.contains(probe), ref.contains(probe));
        }
    }
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(c.stats().hits, hits);
    EXPECT_EQ(c.stats().evictions, ref.evictions);
    EXPECT_EQ(c.stats().writebacks, ref.writebacks);
}

TEST(cache, non_power_of_two_geometries_match_a_naive_lru) {
    // EA-LockStep scales every cache by whole ways and sets, so its L2 and
    // LLC have set counts that are not powers of two.
    const big_core_config scaled = area_model().ea_lockstep_config(soc_config{});
    for (const cache_config& cfg : {scaled.l2, scaled.llc}) {
        SCOPED_TRACE(cfg.name);
        ASSERT_FALSE(std::has_single_bit(cfg.num_sets())) << cfg.num_sets();
        expect_matches_naive_lru(cfg, 7);
    }
    // And the power-of-two path on the default L2.
    expect_matches_naive_lru(big_core_config{}.l2, 8);
}

TEST(dram, row_buffer_hits_are_faster) {
    dram_model d(dram_config{});
    const cycle_t first = d.access(0x10000, 0);
    const cycle_t second = d.access(0x10040, first);  // same 2 KB row
    EXPECT_LT(second - first, first - 0);
    EXPECT_EQ(d.stats().row_hits, 1u);
    EXPECT_EQ(d.stats().row_misses, 1u);
}

TEST(dram, bandwidth_serializes_requests) {
    dram_model d(dram_config{});
    const cycle_t a = d.access(0x0000, 0);
    const cycle_t b = d.access(0x100000, 0);  // different row, same issue time
    EXPECT_GT(b, a);  // second request queues behind the first
}

TEST(dram, queue_cap_delays_excess_requests) {
    dram_config cfg;
    cfg.max_requests = 4;
    dram_model d(cfg);
    for (int i = 0; i < 8; ++i) d.access(static_cast<addr_t>(i) << 20, 0);
    EXPECT_GT(d.stats().queue_delays, 0u);
}

TEST(hierarchy, l1_hit_is_cheap_and_miss_escalates) {
    const big_core_config cfg;
    memory_hierarchy h(cfg);
    const auto miss = h.data_access(0x100000, false, 0);
    EXPECT_TRUE(miss.accepted);
    EXPECT_FALSE(miss.l1_hit);
    EXPECT_GT(miss.complete_at, cycle_t{cfg.l1d.hit_latency});

    const auto hit = h.data_access(0x100000, false, miss.complete_at + 1);
    EXPECT_TRUE(hit.l1_hit);
    EXPECT_EQ(hit.complete_at, miss.complete_at + 1 + cfg.l1d.hit_latency);
}

TEST(hierarchy, inst_and_data_paths_are_separate_l1s) {
    memory_hierarchy h(big_core_config{});
    h.inst_access(0x5000, 0);
    EXPECT_EQ(h.l1i().stats().misses, 1u);
    EXPECT_EQ(h.l1d().stats().misses, 0u);
    h.data_access(0x5000, false, 300);  // after the inst-side fill completes
    EXPECT_EQ(h.l1d().stats().misses, 1u);
    // Both miss into the shared L2: the second one hits there.
    EXPECT_EQ(h.l2().stats().hits, 1u);
}

TEST(hierarchy, repeated_scan_establishes_l2_residency) {
    memory_hierarchy h(big_core_config{});
    cycle_t now = 0;
    // 256 KB scan: fits L2 (512 KB), exceeds L1D (32 KB).
    for (int pass = 0; pass < 2; ++pass) {
        for (addr_t a = 0; a < 256 * 1024; a += 64) {
            const auto r = h.data_access(a, false, now);
            now = r.complete_at + 1;
        }
    }
    EXPECT_GT(h.l2().stats().hits, 3000u);  // second pass served by L2
}

}  // namespace
}  // namespace meek

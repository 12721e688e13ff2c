// A pointer-chase table stored as its node permutation. Node i occupies the
// 16 bytes at base + 16*i: the little-endian u64 base + 16*next[i] (the
// address of the node it points to) followed by 8 zero bytes. Keeping the u32
// permutation instead of those bytes takes a quarter of the space;
// functional_memory::map_ring synthesizes the node bytes on read.
#pragma once

#include <bit>
#include <cstring>
#include <vector>

#include "common/types.h"

namespace meek {

struct pointer_ring {
    static constexpr u32 k_node_bytes = 16;

    addr_t base = 0;
    std::vector<u32> next;

    // The pointer node `i` holds.
    u64 pointer(std::size_t i) const { return base + u64{k_node_bytes} * next[i]; }

    std::size_t bytes() const { return next.size() * k_node_bytes; }

    // The ring as a flat byte image: what map_ring makes memory read.
    std::vector<u8> materialize() const {
        static_assert(std::endian::native == std::endian::little,
                      "node images are little-endian; a host u64 copies as-is");
        std::vector<u8> image(bytes(), 0);
        for (std::size_t i = 0; i < next.size(); ++i) {
            const u64 p = pointer(i);
            std::memcpy(image.data() + i * k_node_bytes, &p, sizeof p);
        }
        return image;
    }
};

}  // namespace meek

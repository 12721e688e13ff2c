// Bit-manipulation helpers used by the ISA encoder, caches and fault
// injector, plus the FNV-1a folder every content fingerprint in the tree is
// built on (workload profiles, soc configs, run specs, checkpoint headers).
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <string>

#include "common/types.h"

namespace meek {

// FNV-1a, folded over strings and the raw bit patterns of numeric fields so
// that any observable difference between two values changes the hash. One
// shared implementation: fingerprints computed in different layers stay
// mutually consistent by construction.
struct fnv1a {
    u64 h = 0xcbf29ce484222325ULL;

    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
    void str(const std::string& s) {
        bytes(s.data(), s.size());
        bytes("\0", 1);  // length delimiter: ("ab","c") != ("a","bc")
    }
    void f64(double v) {
        u64 bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
    void u(u64 v) { bytes(&v, sizeof v); }
};

// Mask with the low `n` bits set; n == 64 yields all-ones.
constexpr u64 mask64(unsigned n) {
    return n >= 64 ? ~u64{0} : (u64{1} << n) - 1;
}

// Extract bits [lo, lo+len) of `v`.
constexpr u64 bits(u64 v, unsigned lo, unsigned len) {
    return (v >> lo) & mask64(len);
}

// Insert the low `len` bits of `field` into bits [lo, lo+len) of `v`.
constexpr u64 insert_bits(u64 v, unsigned lo, unsigned len, u64 field) {
    const u64 m = mask64(len) << lo;
    return (v & ~m) | ((field << lo) & m);
}

// Sign-extend the low `n` bits of `v` to 64 bits.
constexpr i64 sign_extend(u64 v, unsigned n) {
    if (n == 0 || n >= 64) return static_cast<i64>(v);
    const u64 sign = u64{1} << (n - 1);
    return static_cast<i64>((v ^ sign) - sign);
}

// Even parity over all 64 bits (1 when an odd number of bits is set), mirroring
// the cache parity bits the paper copies into the LSQ. An xor-fold rather than
// std::popcount: without -mpopcnt that is an out-of-line libgcc call, and
// this runs on every committed load and every delivered packet.
constexpr u8 parity64(u64 v) {
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return static_cast<u8>(v & 1);
}

constexpr bool is_pow2(u64 v) {
    return v != 0 && (v & (v - 1)) == 0;
}

constexpr unsigned log2_floor(u64 v) {
    return v == 0 ? 0 : 63u - static_cast<unsigned>(std::countl_zero(v));
}

// Round `v` up to the next multiple of pow-of-two `align`.
constexpr u64 align_up(u64 v, u64 align) {
    return (v + align - 1) & ~(align - 1);
}

}  // namespace meek

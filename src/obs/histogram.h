// Constant-memory log-bucketed latency histogram: the percentile engine under
// every latency metric in the harness (service stages, pool queue-wait/run
// time).
//
// Bucketing scheme (log-linear, HdrHistogram-style): values are non-negative
// integers (nanoseconds by convention). The first octave is exact — values
// 0..k_sub_buckets-1 each get their own bucket — and every later octave
// [2^k, 2^(k+1)) is split into k_sub_buckets linear sub-buckets of width
// 2^(k - k_sub_bucket_bits), so the relative quantization error is bounded by
// 2^-k_sub_bucket_bits (~3% at 32 sub-buckets) at every magnitude, and a
// power of two always lands exactly on a bucket's lower edge. The bucket
// count is a compile-time constant — 1920 buckets cover the full u64 range —
// so a histogram is ~15 KB of flat counters: no allocation on record, no
// rebucketing, O(buckets) merge and quantile queries.
//
// Two flavors share the scheme:
//   * `log_histogram`        — plain counters; single-writer recording,
//                              deterministic merge, quantile/count/sum
//                              queries. This is also the snapshot type.
//   * `atomic_log_histogram` — the same buckets as relaxed atomics, for
//                              cheap concurrent recording on hot paths
//                              (one fetch_add per bucket/count/sum plus a
//                              CAS min/max). `snapshot()` copies into a
//                              `log_histogram`; the copy is per-cell
//                              consistent and exact once writers quiesce.
//
// Exactness contract: count and sum are exact (sums of the recorded values,
// not of bucket representatives); min and max are the exact extremes;
// quantiles are bucket-quantized but clamped into [min, max], so
// value_at_quantile(1.0) == max and sub-octave-one values quantize exactly.
// merge(a, b) equals recording a's and b's samples into one histogram, in
// any order — the deterministic-merge property sharded collectors rely on.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <limits>

#include "common/types.h"

namespace meek::obs {

// log2 of the sub-buckets per octave; 5 => 32 sub-buckets, <=1/32 relative
// quantization error.
inline constexpr u32 k_sub_bucket_bits = 5;
inline constexpr u32 k_sub_buckets = 1u << k_sub_bucket_bits;
// One exact first octave (indices 0..k_sub_buckets-1) plus k_sub_buckets
// linear sub-buckets for each octave k_sub_bucket_bits..63.
inline constexpr u32 k_num_buckets = (64 - k_sub_bucket_bits + 1) * k_sub_buckets;

// The bucket containing `value`.
constexpr u32 bucket_index(u64 value) {
    if (value < k_sub_buckets) return static_cast<u32>(value);
    const u32 msb = static_cast<u32>(std::bit_width(value)) - 1;  // floor(log2)
    const u32 shift = msb - k_sub_bucket_bits;
    return ((msb - k_sub_bucket_bits + 1) << k_sub_bucket_bits) +
           static_cast<u32>((value >> shift) - k_sub_buckets);
}

// Inclusive lower edge of bucket `index`. bucket_lo(bucket_index(v)) <= v.
constexpr u64 bucket_lo(u32 index) {
    if (index < k_sub_buckets) return index;
    const u32 octave = index >> k_sub_bucket_bits;  // >= 1
    const u64 sub = index & (k_sub_buckets - 1);
    return (static_cast<u64>(k_sub_buckets) + sub) << (octave - 1);
}

// Exclusive upper edge; the last bucket's edge saturates at u64 max.
constexpr u64 bucket_hi(u32 index) {
    if (index + 1 >= k_num_buckets) return std::numeric_limits<u64>::max();
    return bucket_lo(index + 1);
}

class log_histogram {
public:
    void record(u64 value) { record_n(value, 1); }
    void record_n(u64 value, u64 weight);

    // Equivalent to replaying every sample of `other` into *this.
    void merge(const log_histogram& other);

    u64 count() const { return count_; }
    u64 sum() const { return sum_; }
    u64 min() const { return count_ ? min_ : 0; }
    u64 max() const { return max_; }
    double mean() const {
        return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
    }

    // Smallest bucket-quantized value v such that at least ceil(q * count)
    // samples are <= v, clamped into [min, max]; 0 on an empty histogram.
    // Monotonically non-decreasing in q.
    u64 value_at_quantile(double q) const;
    u64 p50() const { return value_at_quantile(0.50); }
    u64 p90() const { return value_at_quantile(0.90); }
    u64 p99() const { return value_at_quantile(0.99); }
    u64 p999() const { return value_at_quantile(0.999); }

    u64 bucket_count(u32 index) const { return counts_[index]; }

    bool operator==(const log_histogram&) const = default;

private:
    friend class atomic_log_histogram;  // snapshot() fills the fields directly
    std::array<u64, k_num_buckets> counts_{};
    u64 count_ = 0;
    u64 sum_ = 0;
    u64 min_ = std::numeric_limits<u64>::max();
    u64 max_ = 0;
};

// The concurrent recorder: relaxed atomics throughout, so record() is a
// handful of uncontended-cache-line RMWs — cheap enough for per-request hot
// paths — and snapshot() never blocks a writer.
class atomic_log_histogram {
public:
    void record(u64 value) { record_n(value, 1); }
    void record_n(u64 value, u64 weight);

    log_histogram snapshot() const;
    void reset();

private:
    std::array<std::atomic<u64>, k_num_buckets> counts_{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
    std::atomic<u64> min_{std::numeric_limits<u64>::max()};
    std::atomic<u64> max_{0};
};

}  // namespace meek::obs

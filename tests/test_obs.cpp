// Tests for the observability layer: log-bucketed histogram exactness and
// bucket geometry, deterministic merge, concurrent recording, the metrics
// registry/snapshot, stats JSON round-tripping through the serve JSON
// parser, and request tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace meek::obs {
namespace {

TEST(bucket_scheme, first_octave_is_exact) {
    for (u64 v = 0; v < k_sub_buckets; ++v) {
        EXPECT_EQ(bucket_index(v), static_cast<u32>(v));
        EXPECT_EQ(bucket_lo(static_cast<u32>(v)), v);
        EXPECT_EQ(bucket_hi(static_cast<u32>(v)), v + 1);
    }
}

TEST(bucket_scheme, powers_of_two_land_exactly_on_bucket_lower_edges) {
    for (u32 k = 0; k < 64; ++k) {
        const u64 v = u64{1} << k;
        const u32 idx = bucket_index(v);
        EXPECT_EQ(bucket_lo(idx), v) << "2^" << k;
        if (v >= 2) {
            // The value one below the boundary falls in the previous bucket.
            EXPECT_EQ(bucket_index(v - 1), idx - 1) << "2^" << k << " - 1";
        }
    }
}

TEST(bucket_scheme, buckets_tile_the_u64_range) {
    EXPECT_EQ(bucket_index(std::numeric_limits<u64>::max()), k_num_buckets - 1);
    EXPECT_EQ(bucket_hi(k_num_buckets - 1), std::numeric_limits<u64>::max());
    // Adjacent buckets share an edge (hi of i == lo of i+1) everywhere.
    for (u32 i = 0; i + 1 < k_num_buckets; ++i) {
        ASSERT_EQ(bucket_hi(i), bucket_lo(i + 1)) << "bucket " << i;
    }
}

TEST(bucket_scheme, containment_and_relative_error_bound) {
    rng r(11);
    for (int i = 0; i < 20'000; ++i) {
        const u64 v = r.next() >> (r.next() % 64);  // span all magnitudes
        const u32 idx = bucket_index(v);
        ASSERT_LT(idx, k_num_buckets);
        ASSERT_LE(bucket_lo(idx), v);
        ASSERT_LT(v, bucket_hi(idx));
        if (idx >= k_sub_buckets && idx + 1 < k_num_buckets) {
            // Sub-bucket width is at most lo / k_sub_buckets: the <= 1/32
            // relative quantization error the header promises.
            ASSERT_LE((bucket_hi(idx) - bucket_lo(idx)) * k_sub_buckets,
                      bucket_lo(idx));
        }
    }
}

TEST(log_histogram, exactness_contract) {
    log_histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);  // empty: min reads 0, not u64 max
    EXPECT_EQ(h.value_at_quantile(0.5), 0u);

    const std::vector<u64> samples = {3, 1'000'000, 17, 3, 999, 1u << 20};
    u64 sum = 0;
    for (const u64 v : samples) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), samples.size());
    EXPECT_EQ(h.sum(), sum);  // exact, not bucket representatives
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), u64{1} << 20);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / samples.size());
    // The extreme quantiles are the exact extremes, per the clamping contract.
    EXPECT_EQ(h.value_at_quantile(0.0), 3u);
    EXPECT_EQ(h.value_at_quantile(1.0), u64{1} << 20);
}

TEST(log_histogram, quantiles_are_monotone_and_clamped_into_min_max) {
    log_histogram h;
    rng r(23);
    for (int i = 0; i < 5'000; ++i) h.record(r.next() % 10'000'000);
    u64 prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.001) {
        const u64 v = h.value_at_quantile(q);
        ASSERT_GE(v, prev) << "q=" << q;
        ASSERT_GE(v, h.min());
        ASSERT_LE(v, h.max());
        prev = v;
    }
    EXPECT_LE(h.p50(), h.p90());
    EXPECT_LE(h.p90(), h.p99());
    EXPECT_LE(h.p99(), h.p999());
}

TEST(log_histogram, sub_octave_one_values_quantize_exactly) {
    // Everything below k_sub_buckets has its own bucket, so quantiles over
    // such samples are exact, not approximations.
    log_histogram h;
    for (u64 v = 0; v < k_sub_buckets; ++v) h.record_n(v, 10);
    EXPECT_EQ(h.p50(), 15u);
    EXPECT_EQ(h.value_at_quantile(1.0), k_sub_buckets - 1);
}

TEST(log_histogram, merge_equals_concatenated_recording) {
    rng r(31);
    log_histogram combined;
    log_histogram lhs;
    log_histogram rhs;
    for (int i = 0; i < 4'000; ++i) {
        const u64 v = r.next() >> (r.next() % 50);
        combined.record(v);
        (i % 3 == 0 ? lhs : rhs).record(v);
    }
    lhs.merge(rhs);
    EXPECT_EQ(lhs, combined);  // full structural equality, all buckets
    // Merging an empty histogram is the identity.
    log_histogram empty;
    lhs.merge(empty);
    EXPECT_EQ(lhs, combined);
}

TEST(atomic_log_histogram, concurrent_hammer_is_exact_and_matches_serial) {
    constexpr int k_threads = 8;
    constexpr int k_per_thread = 20'000;
    atomic_log_histogram concurrent;
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < k_threads; ++t) {
            threads.emplace_back([&concurrent, t] {
                rng r(100 + t);
                for (int i = 0; i < k_per_thread; ++i) {
                    concurrent.record(r.next() % 1'000'000);
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }
    // The same multiset recorded serially must produce the identical
    // histogram: counts are exact under contention, nothing is lost.
    log_histogram serial;
    for (int t = 0; t < k_threads; ++t) {
        rng r(100 + t);
        for (int i = 0; i < k_per_thread; ++i) serial.record(r.next() % 1'000'000);
    }
    const log_histogram snap = concurrent.snapshot();
    EXPECT_EQ(snap.count(), static_cast<u64>(k_threads) * k_per_thread);
    EXPECT_EQ(snap, serial);
}

TEST(atomic_log_histogram, reset_empties_the_recorder) {
    atomic_log_histogram h;
    h.record(42);
    h.record(7);
    h.reset();
    const log_histogram snap = h.snapshot();
    EXPECT_EQ(snap.count(), 0u);
    EXPECT_EQ(snap.sum(), 0u);
    EXPECT_EQ(snap, log_histogram{});
}

TEST(metrics_registry, handles_are_stable_and_snapshots_sort_by_name) {
    metrics_registry reg;
    counter& c1 = reg.get_counter("b.second");
    counter& c2 = reg.get_counter("a.first");
    EXPECT_EQ(&reg.get_counter("b.second"), &c1);  // register-on-first-use
    c1.add(3);
    c2.add();
    reg.get_gauge("depth").set(9);
    reg.get_histogram("lat_ns").record(1000);

    const metrics_snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "a.first");  // sorted
    EXPECT_EQ(snap.counters[1].name, "b.second");
    ASSERT_NE(snap.counter_value("b.second"), nullptr);
    EXPECT_EQ(*snap.counter_value("b.second"), 3u);
    ASSERT_NE(snap.gauge_value("depth"), nullptr);
    EXPECT_EQ(*snap.gauge_value("depth"), 9u);
    ASSERT_NE(snap.histogram("lat_ns"), nullptr);
    EXPECT_EQ(snap.histogram("lat_ns")->count(), 1u);
    EXPECT_EQ(snap.counter_value("missing"), nullptr);
}

TEST(metrics_snapshot, contribute_is_insert_or_overwrite_keeping_order) {
    metrics_snapshot snap;
    snap.set_counter("z", 1);
    snap.set_counter("a", 2);
    snap.set_counter("m", 3);
    snap.set_counter("m", 4);  // overwrite, not duplicate
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].name, "a");
    EXPECT_EQ(snap.counters[1].name, "m");
    EXPECT_EQ(snap.counters[2].name, "z");
    EXPECT_EQ(*snap.counter_value("m"), 4u);
}

TEST(stats_json, snapshot_round_trips_through_the_serve_parser) {
    metrics_snapshot snap;
    snap.set_counter("service.requests", 12);
    snap.set_gauge("pool.threads", 4);
    log_histogram h;
    for (u64 v : {5u, 70u, 70u, 3'000u, 1'000'000u}) h.record(v);
    snap.add_histogram("service.parse_ns", h);

    const std::string json = stats_json(snap);
    std::string error;
    const auto doc = serve::json_parse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->get("schema")->as_string(), "meek.stats.v1");
    EXPECT_EQ(doc->get("counters")->get("service.requests")->as_u64(), 12u);
    EXPECT_EQ(doc->get("gauges")->get("pool.threads")->as_u64(), 4u);

    const serve::json_value* hist = doc->get("histograms")->get("service.parse_ns");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->get("count")->as_u64(), h.count());
    EXPECT_EQ(hist->get("sum")->as_u64(), h.sum());
    EXPECT_EQ(hist->get("min")->as_u64(), h.min());
    EXPECT_EQ(hist->get("max")->as_u64(), h.max());
    EXPECT_EQ(hist->get("p50")->as_u64(), h.p50());
    EXPECT_EQ(hist->get("p999")->as_u64(), h.p999());
    // The bucket rows carry every sample exactly once, with faithful edges.
    u64 bucket_total = 0;
    for (const serve::json_value& b : hist->get("buckets")->items()) {
        const u64 lo = b.get("lo")->as_u64();
        EXPECT_EQ(lo, bucket_lo(bucket_index(lo)));
        EXPECT_EQ(b.get("hi")->as_u64(), bucket_hi(bucket_index(lo)));
        const u64 n = b.get("count")->as_u64();
        EXPECT_GT(n, 0u);  // only non-empty buckets are exported
        bucket_total += n;
    }
    EXPECT_EQ(bucket_total, h.count());
}

// ------------------------------------------------------------------ trace ---

// Quiesce-and-reset guard: every tracer test starts from a clean singleton
// and leaves it disabled for the next test.
struct tracer_guard {
    tracer_guard() {
        tracer::instance().disable();
        tracer::instance().reset();
    }
    ~tracer_guard() {
        tracer::instance().disable();
        tracer::instance().reset();
    }
};

TEST(trace_ids, minting_and_derivation_are_pure_and_nonzero) {
    EXPECT_EQ(mint_trace_id(3, 7), mint_trace_id(3, 7));
    EXPECT_NE(mint_trace_id(3, 7), mint_trace_id(3, 8));
    EXPECT_NE(mint_trace_id(3, 7), mint_trace_id(4, 7));
    EXPECT_NE(mint_trace_id(0, 0), 0u);

    const u64 t = mint_trace_id(0, 0);
    EXPECT_EQ(derive_span_id(t, 0, "request"), derive_span_id(t, 0, "request"));
    EXPECT_NE(derive_span_id(t, 0, "request"), derive_span_id(t, 0, "parse"));
    EXPECT_NE(derive_span_id(t, 0, "resolve", 0), derive_span_id(t, 0, "resolve", 1));
    EXPECT_NE(derive_span_id(t, 0, "x"), 0u);
}

TEST(tracer, virtual_clock_ticks_per_timeline) {
    tracer_guard guard;
    tracer& tr = tracer::instance();
    tr.enable(trace_clock_mode::virtual_);
    EXPECT_EQ(tr.clock_mode(), trace_clock_mode::virtual_);
    // Each timeline counts its own microsecond ticks from 1; interleaving
    // reads on another timeline never perturbs the first.
    EXPECT_EQ(tr.now_ns(5), 1'000u);
    EXPECT_EQ(tr.now_ns(7), 1'000u);
    EXPECT_EQ(tr.now_ns(5), 2'000u);
    EXPECT_EQ(tr.now_ns(5), 3'000u);
    EXPECT_EQ(tr.now_ns(7), 2'000u);
    tr.reset();
    tr.enable(trace_clock_mode::virtual_);
    EXPECT_EQ(tr.now_ns(5), 1'000u) << "reset must restart every timeline";
}

TEST(tracer, spans_record_drain_and_nest) {
    tracer_guard guard;
    tracer& tr = tracer::instance();
    tr.enable(trace_clock_mode::virtual_);

    const trace_context root{mint_trace_id(0, 0),
                             derive_span_id(mint_trace_id(0, 0), 0, "request")};
    {
        trace_span outer(root, "outer");
        trace_span inner(outer.context(), "inner");
    }
    const std::vector<span_record> spans = tr.drain();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(tr.spans_recorded(), 2u);
    EXPECT_EQ(tr.spans_dropped(), 0u);
    EXPECT_EQ(validate_span_nesting(spans, /*allow_external_parents=*/true), "");
    EXPECT_TRUE(tr.drain().empty()) << "drain consumes";

    // Inactive contexts and a disabled tracer are free no-ops.
    tr.disable();
    trace_span dead(root, "dead");
    EXPECT_FALSE(dead.active());
    trace_span zero(trace_context{}, "zero");
    EXPECT_FALSE(zero.active());
}

TEST(tracer, full_ring_drops_new_spans_counted_never_crashing) {
    tracer_guard guard;
    tracer& tr = tracer::instance();
    tr.set_ring_capacity(4);
    tr.enable(trace_clock_mode::virtual_);

    span_record rec;
    rec.trace_id = 1;
    rec.name[0] = 's';
    for (u64 i = 1; i <= 10; ++i) {
        rec.span_id = i;
        tr.record(rec);
    }
    EXPECT_EQ(tr.spans_dropped(), 6u);
    const std::vector<span_record> spans = tr.drain();
    ASSERT_EQ(spans.size(), 4u);
    for (u64 i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].span_id, i + 1) << "drops are newest, not oldest";
    }
    // The ring is reusable after a drain.
    rec.span_id = 99;
    tr.record(rec);
    EXPECT_EQ(tr.drain().size(), 1u);
}

TEST(tracer, rings_of_exited_threads_are_flushed_not_lost) {
    tracer_guard guard;
    tracer& tr = tracer::instance();
    tr.enable(trace_clock_mode::virtual_);

    constexpr int k_threads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t) {
        threads.emplace_back([t, &tr] {
            span_record rec;
            rec.trace_id = static_cast<u64>(t) + 1;
            rec.span_id = 1;
            rec.name[0] = 'w';
            tr.record(rec);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(tr.drain().size(), static_cast<std::size_t>(k_threads));
}

TEST(trace_export, chrome_json_round_trips_and_validates) {
    std::vector<span_record> spans;
    const u64 t = mint_trace_id(2, 3);
    span_record root;
    root.trace_id = t;
    root.span_id = derive_span_id(t, 0, "request");
    root.begin_ns = 1'000;
    root.end_ns = 7'500;
    std::snprintf(root.name, sizeof root.name, "request");
    span_record child;  // fresh, not copied: a copy would keep the stale
    child.trace_id = t;  // name-buffer tail past the NUL and break operator==
    child.parent_span_id = root.span_id;
    child.span_id = derive_span_id(t, root.span_id, "parse");
    child.begin_ns = 2'000;
    child.end_ns = 3'000;
    std::snprintf(child.name, sizeof child.name, "parse");
    spans = {child, root};  // deliberately unsorted

    const std::string doc = chrome_trace_json(spans, /*dropped_spans=*/5);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

    // The export is valid JSON by the serve parser's strict reading.
    EXPECT_TRUE(serve::json_parse(doc).has_value());

    std::vector<span_record> back;
    u64 dropped = 0;
    std::string error;
    ASSERT_TRUE(parse_chrome_trace_json(doc, &back, &dropped, &error)) << error;
    EXPECT_EQ(dropped, 5u);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0], root) << "export sorts parents before children";
    EXPECT_EQ(back[1], child);
    EXPECT_EQ(validate_span_nesting(back), "");

    std::vector<span_record> junk;
    EXPECT_FALSE(parse_chrome_trace_json("{}", &junk, nullptr, &error));
    EXPECT_FALSE(parse_chrome_trace_json("not json", &junk, nullptr, &error));
}

TEST(trace_export, nesting_validator_catches_violations) {
    const u64 t = mint_trace_id(1, 1);
    span_record root;
    root.trace_id = t;
    root.span_id = 10;
    root.begin_ns = 100;
    root.end_ns = 200;
    std::snprintf(root.name, sizeof root.name, "root");
    span_record child = root;
    child.span_id = 11;
    child.parent_span_id = 10;
    child.begin_ns = 150;
    child.end_ns = 180;

    EXPECT_EQ(validate_span_nesting({root, child}), "");

    span_record outside = child;
    outside.end_ns = 250;  // spills past the parent
    EXPECT_NE(validate_span_nesting({root, outside}), "");

    span_record dup = child;
    dup.span_id = 10;  // collides with root
    EXPECT_NE(validate_span_nesting({root, dup}), "");

    span_record orphan = child;
    orphan.parent_span_id = 999;  // parent not in the trace
    EXPECT_NE(validate_span_nesting({root, orphan}), "");
    EXPECT_EQ(validate_span_nesting({root, orphan},
                                    /*allow_external_parents=*/true),
              "")
        << "external parents are roots under the lenient mode";

    span_record reversed = child;
    reversed.begin_ns = 300;
    reversed.end_ns = 250;
    EXPECT_NE(validate_span_nesting({reversed}), "");

    span_record self_loop = child;
    self_loop.parent_span_id = self_loop.span_id;
    EXPECT_NE(validate_span_nesting({root, self_loop}), "");
}

}  // namespace
}  // namespace meek::obs

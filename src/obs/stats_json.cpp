#include "obs/stats_json.h"

#include "serve/json.h"

namespace meek::obs {
namespace {

// {"name":value,...} over a sorted metric category.
std::string flat_object(const std::vector<metric_entry>& entries) {
    serve::json_object_writer w;
    for (const metric_entry& e : entries) w.field(e.name, e.value);
    return w.str();
}

}  // namespace

std::string histogram_json(const log_histogram& h) {
    serve::json_object_writer w;
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("p50", h.p50());
    w.field("p90", h.p90());
    w.field("p99", h.p99());
    w.field("p999", h.p999());
    std::string buckets = "[";
    bool first = true;
    for (u32 i = 0; i < k_num_buckets; ++i) {
        const u64 n = h.bucket_count(i);
        if (n == 0) continue;
        serve::json_object_writer b;
        b.field("lo", bucket_lo(i));
        b.field("hi", bucket_hi(i));
        b.field("count", n);
        if (!first) buckets += ',';
        buckets += b.str();
        first = false;
    }
    buckets += ']';
    w.field_raw("buckets", buckets);
    return w.str();
}

std::string stats_json(const metrics_snapshot& snap) {
    serve::json_object_writer w;
    w.field("schema", "meek.stats.v1");
    w.field_raw("counters", flat_object(snap.counters));
    w.field_raw("gauges", flat_object(snap.gauges));
    serve::json_object_writer hists;
    for (const histogram_entry& e : snap.histograms) {
        hists.field_raw(e.name, histogram_json(e.hist));
    }
    w.field_raw("histograms", hists.str());
    return w.str();
}

}  // namespace meek::obs

// JSON export of a metrics snapshot, built on the serve layer's hand-rolled
// writer so an exported document parses back exactly with serve::json_parse.
//
// Schema ("meek.stats.v1", one object, one line):
//   {"schema":"meek.stats.v1",
//    "counters":{"service.requests":50,...},      // flat, sorted by name
//    "gauges":{"workload_cache.size":12,...},     // flat, sorted by name
//    "histograms":{
//      "service.parse_ns":{
//        "count":N,"sum":S,"min":m,"max":M,       // exact, nanoseconds
//        "p50":..,"p90":..,"p99":..,"p999":..,    // bucket-quantized ns
//        "buckets":[{"lo":..,"hi":..,"count":..},...]  // non-empty buckets,
//      },...}}                                    // lo inclusive, hi exclusive
//
// Every value is an unsigned integer, so the document round-trips bit-exactly
// through serve::json (which keeps integers exact), and an export of
// deterministic values is byte-deterministic: categories and members are
// sorted by name, bucket rows by bucket index.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace meek::obs {

// One histogram as a JSON object fragment (the value under "histograms").
std::string histogram_json(const log_histogram& h);

// The whole snapshot as one single-line JSON document.
std::string stats_json(const metrics_snapshot& snap);

}  // namespace meek::obs

// The unified metrics layer: a registry of named counters, gauges and
// log-bucketed latency histograms, plus the plain snapshot type every stats
// exporter consumes.
//
// Recording is the hot path and stays cheap: get_counter()/get_histogram()
// resolve a name once (mutex-protected registration, stable addresses), and
// the returned handle records with relaxed atomics — no lock, no allocation.
// Snapshotting is the cold path: `snapshot()` copies every metric into a
// `metrics_snapshot`, a sorted plain-data bag that other layers *contribute*
// to (set_counter / add_histogram) without owning a registry. That is how
// the pre-existing stat structs — sched::pool_stats, serve::batch_stats,
// cache stats, serve_connections_stats — are re-plumbed into one export
// without changing their APIs: each layer keeps its struct and adds one
// contribute step at snapshot time.
//
// Naming convention: dotted lowercase paths, unit suffix on histograms and
// unit-carrying gauges ("service.parse_ns", "pool.queue_wait_ns",
// "workload_cache.hits"). Snapshots keep each category sorted by name, so an
// export is byte-deterministic for deterministic values.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace meek::obs {

// Monotonic counter (add) that doubles as a set-on-snapshot gauge (set).
class counter {
public:
    void add(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    void set(u64 n) { value_.store(n, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<u64> value_{0};
};

struct metric_entry {
    std::string name;
    u64 value = 0;
    bool operator==(const metric_entry&) const = default;
};

struct histogram_entry {
    std::string name;
    log_histogram hist;
};

// Plain sorted snapshot; the unit every exporter (obs/stats_json) consumes
// and every layer contributes to.
struct metrics_snapshot {
    std::vector<metric_entry> counters;    // sorted by name
    std::vector<metric_entry> gauges;      // sorted by name
    std::vector<histogram_entry> histograms;  // sorted by name

    // Insert-or-overwrite, keeping the category sorted.
    void set_counter(std::string_view name, u64 value);
    void set_gauge(std::string_view name, u64 value);
    void add_histogram(std::string_view name, log_histogram hist);

    // Lookup helpers (nullptr when absent) — tests and exporters.
    const u64* counter_value(std::string_view name) const;
    const u64* gauge_value(std::string_view name) const;
    const log_histogram* histogram(std::string_view name) const;
};

class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;

    // Register-on-first-use; the returned reference stays valid for the
    // registry's lifetime, so hot paths resolve once and record lock-free.
    counter& get_counter(std::string_view name);
    counter& get_gauge(std::string_view name);
    atomic_log_histogram& get_histogram(std::string_view name);

    metrics_snapshot snapshot() const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<counter>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<atomic_log_histogram>, std::less<>>
        histograms_;
};

}  // namespace meek::obs

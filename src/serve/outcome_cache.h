// Content-addressed result cache: the second caching layer of the serving
// stack, sitting above the workload cache.
//
// The workload cache dedups *generation*; this cache dedups *simulation*.
// Completed `sim::run_outcome`s are keyed on `run_spec_fingerprint` — the
// system kind, the effective soc_config, the workload's content fingerprint,
// the dynamic length and the seed — so a repeated identical evaluation
// (a re-sent serve request, a design-space grid point that coincides with a
// registry scenario, a resumed search) returns the reduced result without
// re-simulating. Point *names* are excluded from the key and patched back in
// from the requesting spec, so two names wrapping the same experiment share
// one cache entry yet each sees its own name in the outcome.
//
// Concurrency mirrors serve::workload_cache: the first requester of a key
// simulates while holding only a per-entry future; concurrent requesters of
// the same key join that future (one simulation, counted as hits), requesters
// of different keys simulate in parallel. LRU-bounded; capacity 0 disables
// caching (every call simulates privately).
#pragma once

#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/job.h"

namespace meek::serve {

struct outcome_cache_stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;

    u64 lookups() const { return hits + misses; }
    double hit_rate() const {
        const u64 total = lookups();
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
};

class outcome_cache {
public:
    explicit outcome_cache(std::size_t capacity = 256);

    // The reduced outcome for `spec`, simulating on first request. The
    // returned copy carries `spec`'s scenario/workload names regardless of
    // which aliasing spec populated the entry. Propagates a simulation
    // exception, or an errored outcome (run_outcome::error), to every waiter
    // of that key and forgets the entry: only valid outcomes are kept. Safe
    // to call from any executor worker.
    sim::run_outcome outcome_for(const sim::run_spec& spec);

    outcome_cache_stats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    void clear();

private:
    using future_t = std::shared_future<std::shared_ptr<const sim::run_outcome>>;
    struct entry {
        u64 key = 0;
        u64 id = 0;  // insertion tag: lets a failed producer erase only its own entry
        future_t ready;
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::list<entry> lru_;  // front = most recently used
    std::unordered_map<u64, std::list<entry>::iterator> index_;
    outcome_cache_stats stats_;
    u64 next_id_ = 1;
};

}  // namespace meek::serve

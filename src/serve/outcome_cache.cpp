#include "serve/outcome_cache.h"

#include <optional>
#include <utility>

namespace meek::serve {
namespace {

// The cached entry holds the name-free experiment result; the requesting
// spec's names are stamped on the copy handed back.
sim::run_outcome with_names(const sim::run_outcome& cached, const sim::run_spec& spec) {
    sim::run_outcome out = cached;
    out.scenario = spec.sc.name;
    out.workload = spec.workload.name;
    return out;
}

}  // namespace

outcome_cache::outcome_cache(std::size_t capacity) : capacity_(capacity) {}

sim::run_outcome outcome_cache::outcome_for(const sim::run_spec& spec) {
    if (capacity_ == 0) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.misses;
        }
        return sim::execute(spec);
    }

    const u64 key = sim::run_spec_fingerprint(spec);
    std::optional<std::promise<std::shared_ptr<const sim::run_outcome>>> my_promise;
    u64 my_id = 0;
    future_t fut;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            ++stats_.hits;
            // Joining an in-flight simulation counts as a hit — the job still
            // runs only once.
            lru_.splice(lru_.begin(), lru_, it->second);
            fut = it->second->ready;
        } else {
            ++stats_.misses;
            my_promise.emplace();
            my_id = next_id_++;
            fut = my_promise->get_future().share();
            lru_.push_front(entry{key, my_id, fut});
            index_[key] = lru_.begin();
            while (lru_.size() > capacity_) {
                index_.erase(lru_.back().key);
                lru_.pop_back();
                ++stats_.evictions;
            }
        }
    }

    if (my_promise) {
        // We inserted the entry: simulate outside the lock so distinct keys
        // run in parallel, then publish to every waiter.
        bool keep = false;
        try {
            auto out = std::make_shared<const sim::run_outcome>(sim::execute(spec));
            keep = out->error.empty();
            my_promise->set_value(std::move(out));
        } catch (...) {
            my_promise->set_exception(std::current_exception());
        }
        if (!keep) {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = index_.find(key);
            if (it != index_.end() && it->second->id == my_id) {
                lru_.erase(it->second);
                index_.erase(it);
            }
        }
    }
    return with_names(*fut.get(), spec);
}

outcome_cache_stats outcome_cache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t outcome_cache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void outcome_cache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

}  // namespace meek::serve

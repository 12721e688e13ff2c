#include "sched/pool.h"

#include <chrono>

namespace meek::sched {

namespace {
// Which pool (if any) the current thread is a worker of, and its index —
// backs this_worker_index().
thread_local const pool* tl_worker_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;
}  // namespace

std::optional<std::size_t> pool::this_worker_index() const {
    if (tl_worker_pool == this) return tl_worker_index;
    return std::nullopt;
}

pool::pool(u32 threads) {
    const u32 n = threads > 0 ? threads : 1;
    workers_.reserve(n);
    for (u32 i = 0; i < n; ++i) {
        workers_.push_back(std::make_unique<worker_state>());
    }
    threads_.reserve(n);
    for (u32 i = 0; i < n; ++i) {
        threads_.emplace_back([this, i] { worker_loop(i); });
    }
}

pool::~pool() {
    stopping_.store(true, std::memory_order_seq_cst);
    {
        // Taking the sleep mutex orders the flag before any sleeper's
        // predicate re-check, so no worker can block after the flag is up.
        std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void pool::wake_one_if_sleeping() {
    // seq_cst pairs with the sleeper's seq_cst sleepers_++ / queued_ read:
    // either the sleeper's predicate sees our queued_ increment, or we see
    // its sleepers_ increment and notify. The empty lock/unlock closes the
    // window between a sleeper's predicate check and its actual block.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        { std::lock_guard<std::mutex> lock(sleep_mutex_); }
        wake_.notify_one();
    }
}

void pool::post(std::size_t home, task t) {
    // Count before publishing: if the push landed first, a worker could pop
    // the task and fetch_sub below zero, wrapping the counter and turning
    // every sleeper's "queued_ > 0" predicate into a busy spin until this
    // thread caught up. Counting first only risks one benign spurious scan.
    queued_.fetch_add(1, std::memory_order_seq_cst);
    workers_[home % workers_.size()]->deque.push_bottom(std::move(t));
    wake_one_if_sleeping();
}

bool pool::acquire(std::size_t self, task* out, bool* stolen, u64* attempts) {
    if (workers_[self]->deque.pop_bottom(out)) {
        *stolen = false;
        return true;
    }
    const std::size_t n = workers_.size();
    for (std::size_t k = 1; k < n; ++k) {
        ++*attempts;
        if (workers_[(self + k) % n]->deque.steal_top(out)) {
            *stolen = true;
            return true;
        }
    }
    return false;
}

void pool::worker_loop(std::size_t self) {
    tl_worker_pool = this;
    tl_worker_index = self;
    worker_state& me = *workers_[self];
    u32 idle_sweeps = 0;
    for (;;) {
        task t;
        bool stolen = false;
        u64 attempts = 0;
        const bool got = acquire(self, &t, &stolen, &attempts);
        if (attempts > 0) {
            me.steal_attempts.fetch_add(attempts, std::memory_order_relaxed);
        }
        if (got) {
            idle_sweeps = 0;
            queued_.fetch_sub(1, std::memory_order_acq_rel);
            // Counted before the task runs: a caller that joined a batch
            // through its futures then reads stats() must see every one of
            // its jobs in `executed` (the body completes after this
            // increment in this thread's program order).
            me.executed.fetch_add(1, std::memory_order_relaxed);
            if (stolen) me.stolen.fetch_add(1, std::memory_order_relaxed);
            const auto start = std::chrono::steady_clock::now();
            t();
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count();
            me.busy_ns.fetch_add(static_cast<u64>(ns),
                                 std::memory_order_relaxed);
            continue;
        }
        // Empty sweep: yield up to kIdleYieldSweeps times before touching the
        // condition variable (see the constant for why). On an
        // oversubscribed box the yield also hands the CPU to the producer
        // instead of spinning against it.
        if (++idle_sweeps <= kIdleYieldSweeps &&
            !stopping_.load(std::memory_order_acquire)) {
            std::this_thread::yield();
            continue;
        }
        idle_sweeps = 0;
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        wake_.wait(lock, [this] {
            return stopping_.load(std::memory_order_acquire) ||
                   queued_.load(std::memory_order_seq_cst) > 0;
        });
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        // Drain-on-stop: only exit once nothing is queued anywhere. A task
        // another worker is *running* is its problem — the destructor joins
        // everyone, so nothing is abandoned.
        if (stopping_.load(std::memory_order_acquire) &&
            queued_.load(std::memory_order_acquire) == 0) {
            tl_worker_pool = nullptr;
            return;
        }
    }
}

pool_stats pool::stats() const {
    pool_stats s;
    s.workers.reserve(workers_.size());
    for (const auto& w : workers_) {
        worker_counters c;
        c.executed = w->executed.load(std::memory_order_relaxed);
        c.stolen = w->stolen.load(std::memory_order_relaxed);
        c.steal_attempts = w->steal_attempts.load(std::memory_order_relaxed);
        c.busy_ms =
            static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) / 1e6;
        s.workers.push_back(c);
    }
    return s;
}

void pool::reset_stats() {
    for (const auto& w : workers_) {
        w->executed.store(0, std::memory_order_relaxed);
        w->stolen.store(0, std::memory_order_relaxed);
        w->steal_attempts.store(0, std::memory_order_relaxed);
        w->busy_ns.store(0, std::memory_order_relaxed);
    }
}

}  // namespace meek::sched

#include "sched/pool.h"

#include <chrono>

namespace meek::sched {

pool::pool(u32 threads) {
    const u32 n = threads > 0 ? threads : 1;
    threads_.reserve(n);
    for (u32 i = 0; i < n; ++i) threads_.emplace_back([this] { worker_loop(); });
}

pool::~pool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void pool::post(task t) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(t));
    }
    wake_.notify_one();
}

void pool::worker_loop() {
    for (;;) {
        task t;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            // Drain-on-stop: exit only once nothing is queued. A task that
            // another worker is running may still post; that worker loops
            // back here and runs it.
            if (queue_.empty()) return;
            t = std::move(queue_.front());
            queue_.pop_front();
        }
        // Counted before the task runs: a caller that joined a batch through
        // its futures then reads stats() must see every one of its jobs in
        // `executed` (the body completes after this increment in this
        // thread's program order).
        executed_.fetch_add(1, std::memory_order_relaxed);
        const auto start = std::chrono::steady_clock::now();
        t();
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        busy_ns_.fetch_add(static_cast<u64>(ns), std::memory_order_relaxed);
    }
}

pool_stats pool::stats() const {
    pool_stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.busy_ms = static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) / 1e6;
    return s;
}

void pool::reset_stats() {
    executed_.store(0, std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace meek::sched

// The worker pool under every parallel layer of the harness: sim::executor
// fans simulation jobs through it.
//
// Scheduling model: one FIFO queue of tasks behind one mutex and one
// condition variable. post() appends to the back; an idle worker pops the
// front, and sleeps on the condition variable while the queue is empty.
// Jobs run for milliseconds, so one lock per push and pop is far below
// anything a batch can measure, and a shared queue keeps every worker busy
// until the batch runs out without homes or stealing.
//
// Determinism: the pool promises nothing about *completion order* — callers
// that need deterministic results must key them by submission index, the way
// sim::executor's futures do. What the pool does promise is start order
// (with one worker, tasks run in post order), drain-on-stop (the destructor
// runs every posted task before joining) and two lifetime counters, relaxed
// atomics, so stats() is a wait-free snapshot.
//
// Tasks must not throw: the pool runs raw std::function<void()> thunks on
// worker threads with no future to catch an exception. sim::executor wraps
// every job in a packaged_task, which routes exceptions into the job's
// future; anything posting directly owes the same discipline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace meek::sched {

using task = std::function<void()>;

struct pool_stats {
    u64 executed = 0;      // tasks started
    double busy_ms = 0.0;  // wall time spent inside tasks

    // Always 0: one shared queue never steals. Kept until the next
    // benchmark change, because perfbench/src/campaign.cpp still reads it.
    u64 steals() const { return 0; }
};

class pool {
public:
    // Exactly `threads` workers (floored at 1) — thread-count *resolution*
    // (MEEK_THREADS and friends) stays the executor's business.
    explicit pool(u32 threads);

    // Drains every posted task, then joins the workers.
    ~pool();

    pool(const pool&) = delete;
    pool& operator=(const pool&) = delete;

    u32 size() const { return static_cast<u32>(threads_.size()); }

    // Append `t` to the queue and wake one sleeping worker. Thread-safe,
    // including from inside tasks.
    void post(task t);

    // Wait-free counter snapshot (relaxed atomic reads, no mutex).
    pool_stats stats() const;
    void reset_stats();

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<task> queue_;  // guarded by mutex_
    bool stopping_ = false;   // guarded by mutex_

    std::atomic<u64> executed_{0};
    std::atomic<u64> busy_ns_{0};

    // Last: the workers start in the constructor and touch every member
    // above.
    std::vector<std::thread> threads_;
};

}  // namespace meek::sched

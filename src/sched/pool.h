// The unified work-stealing worker pool under every parallel layer of the
// harness: sim::executor fans simulation jobs through it, placing each job
// with the cost-balancing helper in sched/placement.h.
//
// Scheduling model:
//   * every worker owns one deque (sched/deque.h); a posted task names its
//     *home* worker (cost-aware placement computed by the caller, or
//     round-robin);
//   * a worker drains its own deque LIFO (newest first), and when that runs
//     dry it steals FIFO (oldest first) from the other workers, scanning
//     from its right-hand neighbour so thieves spread instead of mobbing
//     worker 0;
//   * an idle worker with nothing to steal sleeps on a condition variable
//     and is woken by the next post.
//
// Every deque is guarded by its own mutex, so the owner and a thief contend
// on one worker's queue, never the whole pool. Jobs run for milliseconds, so
// one lock per push/pop/steal is far below anything a batch can measure.
//
// Determinism: the pool promises nothing about *execution order* — callers
// that need deterministic results must key them by submission index, the way
// sim::executor's futures do. What the pool does promise is drain-on-stop
// (the destructor runs every posted task before joining) and per-worker
// counters — all relaxed atomics, so stats() is a wait-free snapshot, no
// per-worker mutex — so a campaign can see whether the tail was placement
// or theft.
//
// Tasks must not throw: the pool runs raw std::function<void()> thunks on
// worker threads with no future to catch an exception. sim::executor wraps
// every job in a packaged_task, which routes exceptions into the job's
// future; anything posting directly owes the same discipline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "sched/deque.h"

namespace meek::sched {

// One worker's lifetime counters. `stolen` counts tasks this worker took
// from someone else's deque; `executed` includes them.
struct worker_counters {
    u64 executed = 0;
    u64 stolen = 0;
    u64 steal_attempts = 0;  // probes of other workers, successful or not
    double busy_ms = 0.0;    // wall time spent inside tasks
};

struct pool_stats {
    std::vector<worker_counters> workers;

    u64 executed() const {
        u64 n = 0;
        for (const worker_counters& w : workers) n += w.executed;
        return n;
    }
    u64 steals() const {
        u64 n = 0;
        for (const worker_counters& w : workers) n += w.stolen;
        return n;
    }
    u64 steal_attempts() const {
        u64 n = 0;
        for (const worker_counters& w : workers) n += w.steal_attempts;
        return n;
    }
    // Fraction of steal probes that came back with a task (0 when none ran).
    double steal_success_rate() const {
        const u64 attempts = steal_attempts();
        return attempts > 0 ? static_cast<double>(steals()) / attempts : 0.0;
    }
    double busy_ms() const {
        double ms = 0.0;
        for (const worker_counters& w : workers) ms += w.busy_ms;
        return ms;
    }
};

class pool {
public:
    // How many empty steal sweeps a worker tolerates (yielding between them)
    // before it blocks on the condition variable. Yield-then-sleep keeps a
    // briefly-starved worker off the futex, so a producer posting a burst
    // hands it the next task without a wake + context switch per task.
    static constexpr u32 kIdleYieldSweeps = 4;

    // Exactly `threads` workers (floored at 1) — thread-count *resolution*
    // (MEEK_THREADS and friends) stays the executor's business.
    explicit pool(u32 threads);

    // Drains every posted task, then joins the workers.
    ~pool();

    pool(const pool&) = delete;
    pool& operator=(const pool&) = delete;

    u32 size() const { return static_cast<u32>(workers_.size()); }

    // Queue `t` on worker `home`'s deque (mod size, so any index is legal)
    // and wake a sleeper. Thread-safe, including from inside tasks.
    void post(std::size_t home, task t);

    // The calling thread's worker index in *this* pool, or nullopt when the
    // caller is not one of this pool's workers. The guaranteed-steal tests
    // use it to pin work to a worker that is known to be busy.
    std::optional<std::size_t> this_worker_index() const;

    // Wait-free counter snapshot (relaxed atomic reads, no mutex).
    pool_stats stats() const;
    void reset_stats();

private:
    struct worker_state {
        task_deque deque;

        // Counters are relaxed atomics: written by whichever thread did the
        // deed, snapshotted by stats() without stopping anyone.
        std::atomic<u64> executed{0};
        std::atomic<u64> stolen{0};
        std::atomic<u64> steal_attempts{0};
        std::atomic<u64> busy_ns{0};
    };

    void worker_loop(std::size_t self);
    // Own deque first, then steal sweep. Returns false when every deque came
    // up empty.
    bool acquire(std::size_t self, task* out, bool* stolen, u64* attempts);
    void wake_one_if_sleeping();

    std::vector<std::unique_ptr<worker_state>> workers_;
    std::vector<std::thread> threads_;

    std::mutex sleep_mutex_;
    std::condition_variable wake_;
    std::atomic<u64> queued_{0};
    std::atomic<u32> sleepers_{0};
    std::atomic<bool> stopping_{false};
};

}  // namespace meek::sched

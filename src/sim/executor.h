// Parallel experiment executor: the thin façade that gives simulation code a
// batch-of-jobs API over the shared work-stealing scheduler (sched::pool)
// while keeping campaign results bit-identical at any thread count.
//
// Determinism contract:
//   * every job in a batch gets a `job_context` whose `stream_seed` is a pure
//     function of (batch seed, job index) — never of scheduling order;
//   * batch results are returned in submission-index order, so reductions see
//     the same sequence whether one worker or sixteen ran the jobs;
//   * jobs share no mutable state — each builds its own SoC, accumulates into
//     its own result struct, and the merge happens after the join.
//
// Scheduling (wall-clock only, never results): a batch with cost hints is
// placed across the workers' deques with sched::balanced_assignment — each
// worker's share pushed cheapest-first so its LIFO pop order runs its own
// longest job first — and workers that drain early steal FIFO from the
// others, which is what corrects a hint that lied. `scheduler_stats()`
// exposes the per-worker executed/stolen/busy counters next to the per-job
// timing summary.
//
// A job that throws does not poison the pool: the exception is captured in
// the job's future and rethrown to the caller at join time; workers keep
// draining the queues.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/placement.h"
#include "sched/pool.h"

namespace meek::sim {

// Deterministic per-job context. `stream_seed` seeds the job's private rng
// stream; two jobs in a batch never share a stream.
struct job_context {
    std::size_t index = 0;  // submission position within the batch
    u64 stream_seed = 0;    // derive_stream_seed(batch seed, index)
};

// Aggregate wall-time of completed indexed jobs: the shard-skew view. A
// campaign whose max is many times its mean is dominated by one long shard
// and wants smaller shards (or stealing), not more threads.
struct executor_timing {
    std::size_t jobs = 0;
    double min_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
    double total_ms = 0.0;
};

// splitmix64 mix of (base_seed, stream_index): statistically independent
// streams for adjacent indices, stable across platforms and thread counts.
u64 derive_stream_seed(u64 base_seed, u64 stream_index);

// Upper bound on worker threads, from any source: far above any useful
// count, and low enough that a mistyped count cannot exhaust the process.
inline constexpr u32 k_max_threads = 1024;

// Worker-count resolution: `requested` if nonzero (std::invalid_argument
// above k_max_threads), else MEEK_THREADS if it is a whole decimal number in
// 1..k_max_threads, else hardware_concurrency (floored at 1, capped at
// k_max_threads). An unset, malformed ("8x") or out-of-range MEEK_THREADS is
// ignored.
u32 resolve_thread_count(u32 requested = 0);

class executor {
public:
    // `num_threads == 0` resolves via MEEK_THREADS / hardware_concurrency;
    // more than k_max_threads throws std::invalid_argument before any
    // thread starts (see resolve_thread_count).
    explicit executor(u32 num_threads = 0);

    executor(const executor&) = delete;
    executor& operator=(const executor&) = delete;

    u32 num_threads() const { return pool_.size(); }

    // Per-job wall-time summary over every indexed job completed since
    // construction (or the last reset). Thread-safe. Derived from the run-time
    // latency histogram below, so the legacy min/mean/max view and the
    // percentile view can never disagree: count and sum are exact, min/max
    // are the exact extremes.
    executor_timing timing() const;
    void reset_timing();

    // Per-job latency distributions (nanoseconds): time from post() to the
    // job body starting (queue wait — scheduling delay, the saturation
    // signal) and the body's own wall time. Snapshots are cheap copies.
    obs::log_histogram queue_wait_histogram() const { return queue_wait_ns_.snapshot(); }
    obs::log_histogram run_time_histogram() const { return run_ns_.snapshot(); }

    // Re-plumb the pool's counters and latency histograms into a metrics
    // snapshot under `prefix` ("pool.queue_wait_ns", "pool.executed", ...).
    void contribute_metrics(obs::metrics_snapshot& snap,
                            std::string_view prefix = "pool") const;

    // The scheduler's own per-worker counters: tasks executed, tasks stolen,
    // steal probes, busy wall time. Steals > 0 on a skewed batch is the
    // work-stealing layer doing its job. The snapshot is wait-free (relaxed
    // atomics) — cheap enough to read between batches.
    sched::pool_stats scheduler_stats() const { return pool_.stats(); }
    void reset_scheduler_stats() { pool_.reset_stats(); }

    // Submit one indexed job with a completion hook instead of a future: runs
    // `fn(ctx)` with ctx = {index, derive_stream_seed(base_seed, index)} and
    // then invokes `done(ctx, result, error)` ON THE WORKER THREAD — error is
    // a null exception_ptr on success, and `result` is default-constructed
    // when the body threw. This is the serve engine's primitive: a completed
    // job can be emitted the moment it finishes, with no join barrier holding
    // finished rows hostage to slower ones.
    //
    // The hook runs outside any executor lock, but on a pool worker: it must
    // be quick and must not block on work that itself needs this pool. The
    // caller owns lifetime — everything `done` captures must outlive the job
    // (callers typically count outstanding jobs and wait on a condition
    // variable). Seeds and indices keep the run_indexed determinism contract;
    // only completion *notification* order depends on scheduling.
    //
    // `trace` parents the job's "job" span (children "queue_wait"/"run"),
    // and the body runs with that span as the thread's ambient trace, so
    // logs and nested spans inside the job correlate. A zero context is free.
    template <class Fn, class Done>
    void submit_indexed(std::size_t index, u64 base_seed, Fn fn, Done done,
                        obs::trace_context trace = {}) {
        using result_t = std::invoke_result_t<Fn&, const job_context&>;
        static_assert(std::is_default_constructible_v<result_t>,
                      "submit_indexed needs a default-constructible result to "
                      "deliver alongside an exception");
        const job_context ctx{index, derive_stream_seed(base_seed, index)};
        obs::job_span_recorder spans(trace, index);
        const auto posted = std::chrono::steady_clock::now();
        auto body = [this, fn = std::move(fn), done = std::move(done), ctx, posted,
                     spans]() mutable {
            spans.started();
            const obs::scoped_trace ambient(spans.context());
            const auto start = std::chrono::steady_clock::now();
            result_t result{};
            std::exception_ptr error;
            try {
                result = fn(ctx);
            } catch (...) {
                error = std::current_exception();
            }
            note_job(posted, start, std::chrono::steady_clock::now());
            spans.finished();
            done(ctx, std::move(result), error);
        };
        // sched::task is std::function — copyable — so the (possibly
        // capture-heavy) body rides behind a shared_ptr like run_indexed's
        // packaged_task does.
        auto task = std::make_shared<decltype(body)>(std::move(body));
        pool_.post(next_home_.fetch_add(1, std::memory_order_relaxed),
                   [task] { (*task)(); });
    }

    // Run `count` indexed jobs (fn: const job_context& -> R) and return the
    // results ordered by index. Every job in the batch is drained before this
    // returns — including when one throws — so by-reference captures of
    // caller locals can never outlive the call; the lowest-index exception is
    // rethrown after the drain.
    //
    // `cost_hints` (optional; size must equal `count` when nonempty) drives
    // cost-balanced placement across the worker deques; without hints the
    // batch is dealt round-robin. Placement and stealing reorder *scheduling
    // only*: stream seeds and result order are functions of the job index, so
    // hinted and unhinted batches are bit-identical.
    template <class Fn>
    auto run_indexed(std::size_t count, u64 base_seed, Fn fn,
                     std::span<const double> cost_hints = {})
        -> std::vector<std::invoke_result_t<Fn&, const job_context&>> {
        using result_t = std::invoke_result_t<Fn&, const job_context&>;
        std::vector<std::future<result_t>> futures(count);
        const batch_plan plan = plan_batch(count, cost_hints);
        for (const std::size_t i : plan.push_order) {
            const job_context ctx{i, derive_stream_seed(base_seed, i)};
            // Each job's body is wall-clock timed into the pool's latency
            // histograms (queue wait = post to start, run = the body itself)
            // — purely diagnostic, never fed back into results, so
            // determinism holds.
            const auto posted = std::chrono::steady_clock::now();
            auto task = std::make_shared<std::packaged_task<result_t()>>(
                [this, fn, ctx, posted]() mutable {
                    const auto start = std::chrono::steady_clock::now();
                    result_t result = fn(ctx);
                    note_job(posted, start, std::chrono::steady_clock::now());
                    return result;
                });
            futures[i] = task->get_future();
            pool_.post(plan.homes[i], [task] { (*task)(); });
        }
        std::vector<result_t> results;
        results.reserve(count);
        std::exception_ptr first_error;
        for (auto& f : futures) {
            try {
                results.push_back(f.get());
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
        return results;
    }

    // Map fn (const Item&, const job_context& -> R) over `items`, preserving
    // item order in the result vector.
    template <class Item, class Fn>
    auto map(const std::vector<Item>& items, u64 base_seed, Fn fn)
        -> std::vector<std::invoke_result_t<Fn&, const Item&, const job_context&>> {
        return run_indexed(items.size(), base_seed, [&items, fn](const job_context& ctx) {
            return fn(items[ctx.index], ctx);
        });
    }

    // map with a per-item cost hint (hint_of: const Item& -> double); the
    // batch is cost-balanced across the workers, results stay in item order.
    template <class Item, class Fn, class HintOf>
    auto map(const std::vector<Item>& items, u64 base_seed, Fn fn, HintOf hint_of)
        -> std::vector<std::invoke_result_t<Fn&, const Item&, const job_context&>> {
        std::vector<double> hints;
        hints.reserve(items.size());
        for (const Item& item : items) hints.push_back(hint_of(item));
        return run_indexed(
            items.size(), base_seed,
            [&items, fn](const job_context& ctx) { return fn(items[ctx.index], ctx); },
            hints);
    }

private:
    // Where each job of a batch goes and in what order it is pushed.
    struct batch_plan {
        std::vector<std::size_t> homes;       // job index -> worker deque
        std::vector<std::size_t> push_order;  // post() order over job indices
    };
    batch_plan plan_batch(std::size_t count, std::span<const double> cost_hints) const;

    void note_job(std::chrono::steady_clock::time_point posted,
                  std::chrono::steady_clock::time_point started,
                  std::chrono::steady_clock::time_point finished);

    std::atomic<u64> next_home_{0};

    obs::atomic_log_histogram queue_wait_ns_;
    obs::atomic_log_histogram run_ns_;

    // Declared last on purpose: the pool's destructor drains still-queued
    // jobs, whose bodies call note_job — the histograms above must outlive
    // it (members destruct in reverse declaration order).
    sched::pool pool_;
};

}  // namespace meek::sim

// Scheduler-layer tests: the FIFO pool's counters, start order and drain
// guarantees, and the executor façade's contract on top of it — bit-identical
// results at any thread count, jobs starting in the documented order, and
// throwing jobs neither deadlocking nor poisoning the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/pool.h"
#include "sim/executor.h"

namespace meek {
namespace {

// --------------------------------------------------------------------- pool ---

TEST(sched_pool, runs_every_posted_task_and_counts_them) {
    std::atomic<int> ran{0};
    std::mutex m;
    std::condition_variable cv;
    // Declared after the primitives its tasks touch, so its joining
    // destructor runs first: a worker may still be inside notify_all() when
    // the wait below returns.
    sched::pool p(3);
    EXPECT_EQ(p.size(), 3u);
    const int n = 64;
    for (int i = 0; i < n; ++i) {
        p.post([&] {
            if (++ran == n) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return ran.load() == n; }));
    EXPECT_EQ(p.stats().executed, static_cast<u64>(n));
}

TEST(sched_pool, destructor_drains_posted_tasks) {
    std::atomic<int> ran{0};
    {
        sched::pool p(2);
        for (int i = 0; i < 32; ++i) {
            p.post([&ran, &p, i] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++ran;
                // A task posted from inside a task still runs, even when the
                // destructor is already draining.
                if (i == 31) p.post([&ran] { ++ran; });
            });
        }
        // Destruction races the queue on purpose.
    }
    EXPECT_EQ(ran.load(), 33);
}

TEST(sched_pool, external_multi_producer_hammer_runs_every_task_once) {
    // 8 external producer threads x 10k posts into a 4-worker pool: no
    // producer is a worker, so every post races the workers' pops on the
    // shared queue, and every task must run exactly once.
    const std::size_t producers = 8, per_producer = 10'000;
    const std::size_t total = producers * per_producer;
    std::vector<std::atomic<u32>> ran(total);
    for (auto& r : ran) r.store(0);
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;
    sched::pool p(4);

    std::vector<std::thread> threads;
    for (std::size_t pr = 0; pr < producers; ++pr) {
        threads.emplace_back([&, pr] {
            for (std::size_t i = 0; i < per_producer; ++i) {
                const std::size_t id = pr * per_producer + i;
                p.post([&, id] {
                    ran[id].fetch_add(1);
                    if (done.fetch_add(1) + 1 == total) {
                        std::lock_guard<std::mutex> lock(m);
                        cv.notify_all();
                    }
                });
            }
        });
    }
    for (auto& t : threads) t.join();
    {
        std::unique_lock<std::mutex> lock(m);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                                [&] { return done.load() == total; }));
    }
    for (std::size_t id = 0; id < total; ++id) {
        ASSERT_EQ(ran[id].load(), 1u) << "task " << id;
    }
    EXPECT_EQ(p.stats().executed, total);
}

// ----------------------------------------------------------------- executor ---

// A batch whose first job runs longer than the rest, so at four threads the
// jobs finish out of submission order.
constexpr std::size_t kSkewJobs = 10;

u64 skewed_body(const sim::job_context& ctx) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ctx.index == 0 ? 20 : 5));
    return ctx.stream_seed ^ (ctx.index * 0x9e3779b97f4a7c15ULL);
}

TEST(sched_executor, skewed_batch_is_bit_identical_at_any_thread_count) {
    sim::executor one(1);
    sim::executor four(4);
    const auto a = one.run_indexed(kSkewJobs, 42, skewed_body);
    const auto b = four.run_indexed(kSkewJobs, 42, skewed_body);
    EXPECT_EQ(a, b) << "thread count must never leak into results";
}

TEST(sched_executor, one_worker_starts_submitted_jobs_in_submission_order) {
    const std::size_t n = 16;
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::size_t> started;
    std::size_t finished = 0;
    sim::executor ex(1);  // after what its jobs touch, so it joins first
    for (std::size_t i = 0; i < n; ++i) {
        ex.submit_indexed(
            i, 3,
            [&](const sim::job_context& ctx) {
                std::lock_guard<std::mutex> lock(m);
                started.push_back(ctx.index);
                return 0;
            },
            [&](const sim::job_context&, int, std::exception_ptr) {
                std::lock_guard<std::mutex> lock(m);
                if (++finished == n) cv.notify_all();
            });
    }
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return finished == n; }));
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(started, expected);
}

TEST(sched_executor, throwing_jobs_do_not_poison_the_pool) {
    sim::executor ex(3);
    std::atomic<int> ran{0};
    EXPECT_THROW(ex.run_indexed(12, 0,
                                [&ran](const sim::job_context& ctx) -> int {
                                    ++ran;
                                    if (ctx.index % 5 == 2) {
                                        throw std::runtime_error("boom");
                                    }
                                    return static_cast<int>(ctx.index);
                                }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 12) << "the whole batch drains before the rethrow";

    const auto after = ex.run_indexed(
        6, 0, [](const sim::job_context& ctx) { return ctx.index * 3; });
    ASSERT_EQ(after.size(), 6u);
    EXPECT_EQ(after[5], 15u);
    EXPECT_GE(ex.scheduler_stats().executed, 18u);
}

TEST(sched_executor, timing_and_scheduler_stats_cover_the_same_jobs) {
    sim::executor ex(2);
    ex.run_indexed(8, 1, [](const sim::job_context&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 0;
    });
    const sim::executor_timing t = ex.timing();
    const sched::pool_stats s = ex.scheduler_stats();
    EXPECT_EQ(t.jobs, 8u);
    EXPECT_EQ(s.executed, 8u);
    EXPECT_GE(s.busy_ms, t.total_ms * 0.5)
        << "scheduler busy time brackets the per-job bodies";

    ex.reset_scheduler_stats();
    EXPECT_EQ(ex.scheduler_stats().executed, 0u);
}

}  // namespace
}  // namespace meek

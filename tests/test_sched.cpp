// Scheduler-layer tests: deterministic cost-balanced placement, the
// work-stealing pool's counters and drain guarantees, and the executor
// façade's contract on top of it — bit-identical results at any thread
// count on skewed batches, steals actually happening when cost hints lie,
// and throwing jobs neither deadlocking nor poisoning the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/placement.h"
#include "sched/pool.h"
#include "sim/executor.h"

namespace meek {
namespace {

// ---------------------------------------------------------------- placement ---

TEST(placement, equal_costs_degenerate_to_round_robin) {
    const std::vector<double> costs(8, 1.0);
    const auto a = sched::balanced_assignment(costs, 3);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], i % 3) << "uniform batches must keep the old mod-N split";
    }
}

TEST(placement, one_heavy_item_gets_a_bin_to_itself) {
    // 10:1 skew: the heavy item must monopolize one bin while the other bin
    // absorbs all the light ones (their sum stays below the heavy cost).
    const std::vector<double> costs = {10.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    const auto a = sched::balanced_assignment(costs, 2);
    EXPECT_EQ(a[0], 0u);
    for (std::size_t i = 1; i < costs.size(); ++i) {
        EXPECT_EQ(a[i], 1u) << "light item " << i << " must avoid the heavy bin";
    }
    const auto loads = sched::bin_loads(costs, a, 2);
    EXPECT_DOUBLE_EQ(loads[0], 10.0);
    EXPECT_DOUBLE_EQ(loads[1], 5.0);
}

TEST(placement, is_deterministic_and_balances_a_skewed_batch) {
    std::vector<double> costs;
    for (std::size_t i = 0; i < 64; ++i) {
        costs.push_back(i % 7 == 0 ? 50.0 : static_cast<double>(1 + i % 5));
    }
    const auto a = sched::balanced_assignment(costs, 4);
    EXPECT_EQ(a, sched::balanced_assignment(costs, 4))
        << "assignment is a pure function of (costs, bins)";
    const auto loads = sched::bin_loads(costs, a, 4);
    double lo = loads[0], hi = loads[0], total = 0.0;
    for (const double l : loads) {
        lo = std::min(lo, l);
        hi = std::max(hi, l);
        total += l;
    }
    EXPECT_GT(lo, 0.0);
    // LPT guarantees makespan <= 4/3 OPT; with this mix the loads land far
    // closer, so a loose factor-2 bound pins "balanced" without flakiness.
    EXPECT_LT(hi, 2.0 * total / 4.0) << "no bin may hog the batch";
}

TEST(placement, degenerate_shapes_are_safe) {
    EXPECT_TRUE(sched::balanced_assignment({}, 4).empty());
    const std::vector<double> costs = {3.0, 1.0};
    EXPECT_EQ(sched::balanced_assignment(costs, 0),
              (std::vector<std::size_t>{0, 0}));
    EXPECT_EQ(sched::balanced_assignment(costs, 1),
              (std::vector<std::size_t>{0, 0}));
    // NaN / negative costs count as zero instead of corrupting the loads.
    const std::vector<double> weird = {std::nan(""), -5.0, 2.0, 1.0};
    const auto a = sched::balanced_assignment(weird, 2);
    ASSERT_EQ(a.size(), 4u);
    const auto loads = sched::bin_loads(weird, a, 2);
    EXPECT_DOUBLE_EQ(loads[0] + loads[1], 3.0);
}

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
        p.post(static_cast<std::size_t>(i), [&] {
            if (++ran == n) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return ran.load() == n; }));
    const sched::pool_stats s = p.stats();
    EXPECT_EQ(s.workers.size(), 3u);
    EXPECT_EQ(s.executed(), static_cast<u64>(n));
}

TEST(sched_pool, idle_workers_steal_from_a_busy_one) {
    // Guaranteed-steal construction: a blocker task, from *inside* its
    // worker, posts the light tasks to its own index — so they sit on the
    // busy worker's own deque — then blocks until they are all done. The
    // only way the batch can finish is the other workers stealing every
    // light task; the counters must agree exactly.
    std::atomic<int> ran{0};
    std::mutex m;
    std::condition_variable cv;
    sched::pool p(4);  // after the primitives, so it joins before they die
    const int extra = 16;

    p.post(0, [&] {
        const std::optional<std::size_t> self = p.this_worker_index();
        ASSERT_TRUE(self.has_value()) << "the blocker runs on a pool worker";
        for (int i = 0; i < extra; ++i) {
            p.post(*self, [&] {
                if (++ran == extra) {
                    std::lock_guard<std::mutex> lock(m);
                    cv.notify_all();
                }
            });
        }
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return ran.load() == extra; });
    });

    {
        std::unique_lock<std::mutex> lock(m);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return ran.load() == extra; }));
    }
    // Let the blocker retire before reading stats (stats are exact only
    // after quiescence; the wait above already proves the steals happened).
    sched::pool_stats s = p.stats();
    for (int spin = 0; spin < 1000 && s.executed() < extra + 1; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        s = p.stats();
    }
    EXPECT_EQ(s.executed(), static_cast<u64>(extra + 1));
    // Every light task sits on the blocked worker's own deque, so all of
    // them must leave by theft; the blocker itself may additionally have
    // been stolen off worker 0's deque before its home picked it up, which
    // is one more steal at most.
    EXPECT_GE(s.steals(), static_cast<u64>(extra))
        << "every light task had to be stolen off the blocked worker";
    EXPECT_LE(s.steals(), static_cast<u64>(extra + 1));
}

TEST(sched_pool, destructor_drains_posted_tasks) {
    std::atomic<int> ran{0};
    {
        sched::pool p(2);
        for (int i = 0; i < 32; ++i) {
            p.post(static_cast<std::size_t>(i), [&ran] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++ran;
            });
        }
        // Destruction races the queue on purpose.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(sched_pool, external_multi_producer_hammer_runs_every_task_once) {
    // 8 external producer threads x 10k posts into a 4-worker pool: no
    // producer is a worker, so every post races the owners' pops and the
    // thieves' steals on the home deques, and every task must run exactly
    // once.
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
                p.post(id, [&, id] {
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
    EXPECT_EQ(p.stats().executed(), total);
}

// ----------------------------------------------------------------- executor ---

// A 10:1 skewed-cost batch whose hints are deliberately wrong about the
// magnitude: the "heavy" job (hint 10) finishes quickly while the nine
// "light" jobs (hint 1) each take much longer. Placement parks the heavy job
// alone on one worker, which then must steal from the overloaded one — the
// exact misprediction work-stealing exists to fix.
constexpr std::size_t kSkewJobs = 10;

std::vector<double> skewed_hints() {
    std::vector<double> hints(kSkewJobs, 1.0);
    hints[0] = 10.0;
    return hints;
}

u64 skewed_body(const sim::job_context& ctx) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(ctx.index == 0 ? 20 : 15));
    return ctx.stream_seed ^ (ctx.index * 0x9e3779b97f4a7c15ULL);
}

TEST(sched_executor, skewed_batch_is_bit_identical_at_any_thread_count) {
    sim::executor one(1);
    sim::executor four(4);
    const auto hints = skewed_hints();
    const auto a = one.run_indexed(kSkewJobs, 42, skewed_body, hints);
    const auto b = four.run_indexed(kSkewJobs, 42, skewed_body, hints);
    const auto c = four.run_indexed(kSkewJobs, 42, skewed_body);  // no hints
    EXPECT_EQ(a, b) << "thread count must never leak into results";
    EXPECT_EQ(a, c) << "hints must never leak into results";
}

TEST(sched_executor, steals_are_nonzero_on_a_skewed_cost_batch) {
    sim::executor ex(2);
    // Two workers, 10:1 hints: LPT gives worker A only the heavy job and
    // worker B all nine light ones. A finishes its 20ms job while B still
    // has >100ms of queue left, so A must steal at least once.
    ex.run_indexed(kSkewJobs, 7, skewed_body, skewed_hints());
    const sched::pool_stats s = ex.scheduler_stats();
    EXPECT_EQ(s.executed(), kSkewJobs);
    EXPECT_GT(s.steals(), 0u) << "the idle worker must have stolen work";

    ex.reset_scheduler_stats();
    EXPECT_EQ(ex.scheduler_stats().executed(), 0u);
}

TEST(sched_executor, throwing_jobs_do_not_poison_the_stealing_pool) {
    sim::executor ex(3);
    std::atomic<int> ran{0};
    std::vector<double> hints(12, 1.0);
    hints[0] = 10.0;  // skewed placement while jobs are throwing
    EXPECT_THROW(ex.run_indexed(12, 0,
                                [&ran](const sim::job_context& ctx) -> int {
                                    ++ran;
                                    if (ctx.index % 5 == 2) {
                                        throw std::runtime_error("boom");
                                    }
                                    return static_cast<int>(ctx.index);
                                },
                                hints),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 12) << "the whole batch drains before the rethrow";

    const auto after = ex.run_indexed(
        6, 0, [](const sim::job_context& ctx) { return ctx.index * 3; });
    ASSERT_EQ(after.size(), 6u);
    EXPECT_EQ(after[5], 15u);
    EXPECT_GE(ex.scheduler_stats().executed(), 18u);
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
    EXPECT_EQ(s.executed(), 8u);
    EXPECT_GE(s.busy_ms(), t.total_ms * 0.5)
        << "scheduler busy time brackets the per-job bodies";
}

}  // namespace
}  // namespace meek

// sched_bench — scheduler contention microbenchmark: the sched::pool
// regression harness under the fine-grained-task regime the serve and
// search paths produce.
//
// For each (worker count, shape) it posts `--tasks` ~1 µs spin tasks from an
// external producer thread — the gateway/service posting pattern — and
// measures:
//   * post_ms   — wall time to push the whole batch in,
//   * join_ms   — last post until the final task retired,
//   * total_ms  — first post until the final task retired,
//   * mtasks_per_s — batch throughput (posts + steals + runs) over total.
// Shapes: `uniform` homes tasks round-robin (pure throughput), `skewed`
// homes 10 of every 11 tasks on worker 0 (the 10:1 placement lie that forces
// the steal path to carry the batch). Each config runs `--repeat` times on a
// fresh pool; the best run is reported, machine-readable, one line per
// config:
//
//   sched_bench: workers=4 shape=uniform tasks=40000 task_ns=1000 ...
//
// Options: --quick (CI size: 40k tasks, workers 1/4), --workers CSV,
// --tasks N, --task-ns N, --repeat R.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "sched/pool.h"

using namespace meek;

namespace {

struct run_result {
    double post_ms = 0.0;
    double join_ms = 0.0;
    double total_ms = 0.0;
    double mtasks_per_s = 0.0;
    sched::pool_stats stats;
};

// Busy-spin for ~ns nanoseconds: the 1 µs task stand-in. Clock-based, so it
// is honest under oversubscription (a preempted task still "costs" its
// budget in wall time, which is exactly what a contended scheduler sees).
void spin_for_ns(long ns) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < until) {
    }
}

std::size_t task_home(std::size_t i, u32 workers, bool skewed) {
    if (!skewed || workers == 1) return i % workers;
    // 10:1 skew — 10 of every 11 tasks land on worker 0, the remainder
    // round-robins over the other workers so they are producers of steals,
    // not idle from the start.
    if (i % 11 != 10) return 0;
    return 1 + (i / 11) % (workers - 1);
}

run_result run_once(u32 workers, bool skewed, std::size_t tasks, long task_ns) {
    sched::pool p(workers);
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < tasks; ++i) {
        p.post(task_home(i, workers, skewed), [&, task_ns] {
            spin_for_ns(task_ns);
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return done.load(std::memory_order_acquire) == tasks; });
    }
    const auto t2 = std::chrono::steady_clock::now();

    run_result r;
    r.post_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.join_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    r.total_ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
    r.mtasks_per_s = r.total_ms > 0.0
                         ? static_cast<double>(tasks) / (r.total_ms * 1e3)
                         : 0.0;
    r.stats = p.stats();
    return r;
}

run_result best_of(u32 workers, bool skewed, std::size_t tasks, long task_ns,
                   u32 repeat) {
    run_result best;
    for (u32 i = 0; i < repeat; ++i) {
        run_result r = run_once(workers, skewed, tasks, task_ns);
        if (i == 0 || r.total_ms < best.total_ms) best = r;
    }
    return best;
}

void print_line(u32 workers, bool skewed, std::size_t tasks, long task_ns,
                const run_result& r) {
    std::printf(
        "sched_bench: workers=%u shape=%s tasks=%zu task_ns=%ld "
        "post_ms=%.3f join_ms=%.3f total_ms=%.3f mtasks_per_s=%.3f "
        "steals=%llu steal_attempts=%llu steal_success=%.1f%%\n",
        workers, skewed ? "skewed" : "uniform", tasks, task_ns, r.post_ms,
        r.join_ms, r.total_ms, r.mtasks_per_s,
        static_cast<unsigned long long>(r.stats.steals()),
        static_cast<unsigned long long>(r.stats.steal_attempts()),
        100.0 * r.stats.steal_success_rate());
    std::fflush(stdout);
}

std::vector<u32> parse_workers(const char* csv) {
    std::vector<u32> out;
    std::string s(csv);
    std::size_t start = 0;
    while (start < s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) comma = s.size();
        const int v = std::atoi(s.substr(start, comma - start).c_str());
        if (v > 0) out.push_back(static_cast<u32>(v));
        start = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<u32> workers = {1, 4, 16};
    std::size_t tasks = 200'000;
    long task_ns = 1'000;
    u32 repeat = 3;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            workers = {1, 4};
            tasks = 40'000;
        } else if (arg == "--workers") {
            workers = parse_workers(value("--workers"));
        } else if (arg == "--tasks") {
            tasks = std::strtoull(value("--tasks"), nullptr, 10);
        } else if (arg == "--task-ns") {
            task_ns = std::strtol(value("--task-ns"), nullptr, 10);
        } else if (arg == "--repeat") {
            repeat = static_cast<u32>(std::strtoul(value("--repeat"), nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--workers CSV] [--tasks N] "
                         "[--task-ns N] [--repeat R]\n",
                         argv[0]);
            return 2;
        }
    }
    if (workers.empty() || tasks == 0 || repeat == 0) {
        std::fprintf(stderr, "nothing to run\n");
        return 2;
    }

    for (const u32 w : workers) {
        for (const bool skewed : {false, true}) {
            print_line(w, skewed, tasks, task_ns,
                       best_of(w, skewed, tasks, task_ns, repeat));
        }
    }
    return 0;
}

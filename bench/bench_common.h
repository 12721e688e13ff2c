// Shared helpers for the figure/table benches: option parsing (--quick for
// CI-sized runs, --threads for the executor fan-out), paper-reference
// constants, and output formatting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "report/table.h"
#include "sim/executor.h"

namespace meek::bench {

struct bench_options {
    bool quick = false;       // smaller dynamic instruction counts
    u64 instructions = 200'000;
    u32 faults_per_workload = 400;
    u32 threads = 0;          // 0 -> MEEK_THREADS env, else hardware threads

    static bench_options parse(int argc, char** argv) {
        bench_options o;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--quick") == 0) {
                o.quick = true;
                o.instructions = 60'000;
                o.faults_per_workload = 80;
            }
            if (std::strcmp(argv[i], "--full") == 0) {
                o.instructions = 500'000;
                o.faults_per_workload = 2'000;
            }
            if (std::strncmp(argv[i], "--threads=", 10) == 0) {
                const int v = std::atoi(argv[i] + 10);
                o.threads = v > 0 ? static_cast<u32>(v) : 0;  // <= 0: auto
            } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
                const int v = std::atoi(argv[++i]);
                o.threads = v > 0 ? static_cast<u32>(v) : 0;
            }
        }
        return o;
    }
};

inline std::string fmt(double v, int decimals = 3) {
    return format_fixed(v, decimals);
}

inline void print_header(const char* experiment, const char* paper_claim) {
    std::printf("==================================================================\n");
    std::printf("%s\n", experiment);
    std::printf("Paper reference: %s\n", paper_claim);
    std::printf("==================================================================\n");
}

inline void check_shape(const char* what, bool holds) {
    std::printf("[shape] %-58s %s\n", what, holds ? "OK" : "DEVIATES");
}

// One-line scheduler summary on stderr (stdout stays diffable): per-job
// wall-time skew plus the work-stealing counters, so a campaign can tell a
// placement problem (max >> mean, zero steals) from a genuinely serial tail.
// steal_success (hits per probe) says whether theft was cheap. p50/p99 come
// from the executor's run-time histogram — the same samples min/mean/max
// summarize, but the percentile pair distinguishes a uniformly-slow batch
// from a long tail.
inline void print_scheduler_summary(const sim::executor& ex) {
    const sim::executor_timing t = ex.timing();
    const sched::pool_stats s = ex.scheduler_stats();
    const obs::log_histogram h = ex.run_time_histogram();
    std::fprintf(stderr,
                 "# sched: threads=%u jobs=%zu steals=%llu "
                 "steal_attempts=%llu steal_success=%.1f%% "
                 "job_ms min=%.2f mean=%.2f max=%.2f total=%.2f "
                 "p50=%.2f p99=%.2f\n",
                 ex.num_threads(), t.jobs,
                 static_cast<unsigned long long>(s.steals()),
                 static_cast<unsigned long long>(s.steal_attempts()),
                 100.0 * s.steal_success_rate(), t.min_ms,
                 t.mean_ms, t.max_ms, t.total_ms,
                 static_cast<double>(h.p50()) / 1e6,
                 static_cast<double>(h.p99()) / 1e6);
}

}  // namespace meek::bench

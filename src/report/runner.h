// Shared experiment drivers: run a workload on each evaluated system
// (vanilla big core, MEEK with N little cores and either fabric,
// EA-LockStep's scaled core, the nZDC-transformed binary) and report
// normalized slowdowns. Every figure bench builds on these.
//
// All drivers are thin reductions over the sim layer: each (workload x
// system) pair becomes a `sim::run_spec` job, and the suite variants fan the
// jobs out across a `sim::executor` — per-job accumulators are merged after
// the deterministic join, so N-thread results match 1-thread results.
// A run that aborted (`sim::run_outcome::error`) is never reduced: every
// driver below, and `verification_throughput`, throws std::runtime_error
// naming the scenario, the workload and the SoC's message.
//
// Workload generation is memoized per driver call through a
// `serve::workload_cache`: the baseline/MEEK/lockstep/nZDC jobs for one
// (profile, instructions, seed) point share a single generated program.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "meek/soc.h"
#include "sim/executor.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

namespace meek {

struct system_run {
    cycle_t cycles = 0;
    u64 instructions = 0;
    double ipc = 0.0;
};

// Run `prog` on a standalone big core (no MEEK attached).
system_run run_on_big_core(const big_core_config& cfg, const program& prog,
                           const run_limits& limits = {});

struct slowdown_row {
    std::string workload;
    std::string suite;
    double meek = 0.0;      // slowdown vs vanilla big core (>= 1.0)
    double lockstep = 0.0;  // EA-LockStep slowdown
    double nzdc = 0.0;      // 0 when the workload is nZDC-unsupported
    soc_stats meek_stats;
    cycle_t baseline_cycles = 0;
};

struct figure6_options {
    u64 instructions = 200'000;
    u32 little_cores = 4;
    bool run_lockstep = true;
    bool run_nzdc = true;
    u64 seed = 0xC0FFEE;
};

// Fig. 6 suite driver: every (workload x system) run is an independent sim
// job submitted through `ex`; rows come back in profile order.
std::vector<slowdown_row> measure_suite(std::span<const workload_profile> profiles,
                                        const figure6_options& opts,
                                        sim::executor& ex);

// MEEK slowdown only (used by Figs. 8 and 9 sweeps). Returns the run result
// of the MEEK configuration plus the vanilla baseline cycle count.
struct meek_measurement {
    meek_run_result meek;
    cycle_t baseline_cycles = 0;
    double slowdown = 0.0;
};
// Serial; simulates the caller's exact (possibly customised) soc_config.
meek_measurement measure_meek(const soc_config& cfg, const workload_profile& profile,
                              u64 instructions, u64 seed = 0xC0FFEE);

// Parallel MEEK-vs-baseline sweep of one scenario over many workloads;
// results in profile order.
std::vector<meek_measurement> measure_meek_suite(
    const sim::scenario& sc, std::span<const workload_profile> profiles,
    u64 instructions, sim::executor& ex, u64 seed = 0xC0FFEE);

// Fig. 10 metric: replayed instructions per little-core *compute* cycle of a
// MEEK run reduction. Cycles spent waiting for data (LSL empty, SRCP
// busy-wait, the one-behind rule) measure the producer, not the checker, and
// are excluded by the job-side reduction.
double verification_throughput(const sim::run_outcome& out);

}  // namespace meek

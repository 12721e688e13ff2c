// The search driver: evaluates a universe of design points on one workload
// and reduces the measurements to a Pareto frontier over (area, slowdown,
// coverage).
//
// One point's evaluation is two kinds of sim job, both fanned out through the
// shared executor:
//   * a performance run (the point's system over the workload, slowdown
//     against one shared vanilla baseline run), routed through the
//     completed-result cache when one is attached, and
//   * for MEEK points, a fault-campaign probe (a single-shard campaign that
//     runs inline in its executor job) whose detection rate is the coverage
//     objective. Non-MEEK systems carry analytical coverage: vanilla detects
//     nothing (0); EA-LockStep is cycle-level dual modular redundancy and
//     nZDC instruction-duplicates every supported computation, both
//     full-coverage by construction (1).
// Area comes from area::area_model: MEEK extra silicon for MEEK points, the
// equal-silicon construction for EA-LockStep (its two scaled cores occupy
// exactly big + MEEK-extra), zero for vanilla and the compiler-only nZDC.
//
// The search runs in one process: every candidate is a job on the caller's
// executor, so its threads are the only parallelism, and nothing is written
// to disk.
#pragma once

#include <string>
#include <vector>

#include "search/pareto.h"
#include "search/point.h"
#include "search/strategy.h"
#include "serve/outcome_cache.h"
#include "sim/executor.h"

namespace meek::search {

struct probe_options {
    u32 faults = 20;
    u64 seed = 0x5eed;
    u64 gap_instructions = 6000;
};

struct search_options {
    std::string workload = "swaptions";
    u64 instructions = 150'000;
    u64 seed = 0xC0FFEE;
    probe_options probe;

    strategy_kind strategy = strategy_kind::exhaustive;
    std::size_t sample_count = 16;  // random_sample
    u64 sample_seed = 7;
    double halving_keep = 0.34;  // fraction promoted to the full-budget rung
    u64 halving_divisor = 8;     // rung-0 instructions = instructions / divisor
};

struct point_result {
    std::string name;
    sim::system_kind system = sim::system_kind::meek;
    bool off_registry = false;
    double area_mm2 = 0.0;   // extra silicon vs the vanilla big core
    double overhead = 0.0;   // area_mm2 / big-core area
    double slowdown = 1.0;
    double coverage = 0.0;
    u64 cycles = 0;
    u64 baseline_cycles = 0;
    u64 probe_detected = 0;
    u64 probe_masked = 0;
    u64 stall_collecting = 0;
    u64 stall_forwarding = 0;
    u64 stall_checker = 0;
    bool skipped = false;  // e.g. nZDC on a workload its compiler cannot build
    // Non-empty when the point's run aborted (sim::run_outcome::error): its
    // measurements are absent and it is never probed, promoted or ranked.
    std::string error;

    objectives objs() const { return {area_mm2, slowdown, coverage}; }
    bool ranked() const { return !skipped && error.empty(); }
};

struct search_result {
    // Full-budget measurements in point order (a subset of the universe under
    // sampling/halving). Skipped and errored points are kept in the list but
    // excluded from the frontier.
    std::vector<point_result> evaluated;
    std::vector<std::size_t> frontier;  // indices into `evaluated`, ascending
    std::size_t universe = 0;           // enumerated candidate points
    std::size_t pruned = 0;             // rung-0 losers / unsampled points
};

// Run the configured strategy over `points`. `outcomes` (optional) dedups
// repeated evaluations against the serve layer's completed-result cache.
// Deterministic contract: for a given (points, opts) the returned result —
// and therefore the CSV/NDJSON renderings below — is bit-identical at any
// thread count.
search_result run_search(const std::vector<design_point>& points,
                         const search_options& opts, sim::executor& ex,
                         serve::outcome_cache* outcomes = nullptr);

// Renderings. Fixed-precision fields over deterministic doubles => byte-
// stable output. `frontier_only` drops the dominated rows; otherwise every
// evaluated row is emitted with a `frontier` 0/1 column.
std::string to_csv(const search_result& r, bool frontier_only = true);
std::string to_ndjson(const search_result& r, bool frontier_only = true);

}  // namespace meek::search

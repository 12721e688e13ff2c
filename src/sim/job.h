// The sim_job abstraction: bind a scenario to a workload, build the system,
// run it, and reduce the run to a plain result struct. Jobs are pure
// functions of their spec — no shared mutable state — which is what lets the
// executor fan them out across threads with deterministic results.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "meek/soc.h"
#include "sim/executor.h"
#include "sim/scenario.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace meek::sim {

// One simulation to run: scenario x workload x dynamic length x seed.
struct run_spec {
    scenario sc;
    workload_profile workload;
    u64 instructions = 200'000;
    u64 workload_seed = 0xC0FFEE;

    // Off-registry points: when set, this exact config is simulated instead
    // of sc.soc() (the scenario still provides the system kind and the
    // result's name). Lets callers sweep knobs the registry doesn't encode
    // without them being silently replaced by Table-II defaults.
    std::optional<soc_config> soc_override;

    // Optional shared workload provider (non-owning; must outlive the job).
    // When set, execute() pulls the generated program through it — a session
    // cache then builds each (profile, instructions, seed) workload once for
    // every scenario that evaluates it. When null, the job generates its own
    // private copy, byte-identical to what a cache would return.
    workload_source* workloads = nullptr;
};

// The reduced, plain-data result a job returns across the thread boundary.
struct run_outcome {
    std::string scenario;
    std::string workload;
    cycle_t cycles = 0;
    u64 instructions = 0;
    double ipc = 0.0;

    // MEEK-only reductions (zero for the other systems).
    bool verified_ok = false;
    soc_stats stats;
    u64 replayed_instructions = 0;        // summed over the little cores
    cycle_t checker_compute_cycles = 0;   // busy minus data-wait (Fig. 10)

    bool skipped = false;  // nZDC on a workload its compiler cannot build

    // Non-empty when the simulation aborted (meek_run_result::error, e.g. a
    // configuration that can make no progress). The other fields then hold a
    // partial run and must not be reported, cached or ranked as a result.
    std::string error;
};

// Build SoC -> run -> reduce. Safe to call concurrently from executor workers.
// An outcome that breaks outcome_invariant_error comes back as an error.
run_outcome execute(const run_spec& spec);

// Consistency checks every outcome that ran must pass: ipc equals
// instructions / cycles (0 when cycles is 0); a verified MEEK run replayed
// exactly the committed instructions; and the simulated core, whose commit
// width is `commit_width`, committed no more than that per cycle. Returns a
// description of the first violation, or an empty string.
std::string outcome_invariant_error(const run_outcome& out, system_kind system,
                                    u32 commit_width);

// Fan a batch of specs out across `ex`'s workers; results come back in spec
// order regardless of scheduling. Submission is cost-hinted (longest spec
// first) so mixed batches do not trail off behind one straggler.
std::vector<run_outcome> execute_all(executor& ex, const std::vector<run_spec>& specs);

// Content hash over everything that determines a spec's outcome: the system
// kind, the *effective* soc_config (override or registry defaults), the
// workload profile's content fingerprint, the dynamic length and the seed.
// Scenario/point *names* are deliberately excluded — two names wrapping the
// same physical experiment must share a fingerprint, which is what makes an
// outcome cache content-addressed.
u64 run_spec_fingerprint(const run_spec& spec);

}  // namespace meek::sim

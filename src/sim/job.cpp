#include "sim/job.h"

#include "area/area_model.h"
#include "common/bits.h"
#include "baselines/nzdc.h"
#include "bigcore/ooo_core.h"
#include "mem/functional_memory.h"
#include "workloads/generator.h"

namespace meek::sim {
namespace {

run_outcome run_big_core(const big_core_config& cfg, const program& prog) {
    functional_memory memory;
    ooo_core core(cfg, memory);
    core.load_program(prog);
    const run_result r = core.run(run_limits{}, nullptr);
    run_outcome out;
    out.cycles = r.cycles;
    out.instructions = r.instructions;
    out.ipc = core.stats().ipc();
    return out;
}

run_outcome run_meek(const soc_config& cfg, const program& prog) {
    meek_soc soc(cfg);
    soc.load_program(prog);
    const meek_run_result r = soc.run();
    run_outcome out;
    out.cycles = r.big.cycles;
    out.instructions = r.big.instructions;
    out.ipc = soc.big_core().stats().ipc();
    out.verified_ok = r.verified_ok;
    out.stats = r.soc;
    out.error = r.error;
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        const little_core_stats& s = soc.little(i).stats();
        out.replayed_instructions += s.replayed_instructions;
        const cycle_t waits = s.stall_lsl_empty + s.stall_watermark + s.stall_srcp;
        out.checker_compute_cycles += s.busy_cycles > waits ? s.busy_cycles - waits : 0;
    }
    return out;
}

}  // namespace

std::string outcome_invariant_error(const run_outcome& out, system_kind system,
                                    u32 commit_width) {
    const double ipc = out.cycles == 0 ? 0.0
                                       : static_cast<double>(out.instructions) /
                                             static_cast<double>(out.cycles);
    if (out.ipc != ipc) {
        return "invariant: ipc " + std::to_string(out.ipc) + " != instructions/cycles " +
               std::to_string(ipc);
    }
    if (system == system_kind::meek && out.verified_ok &&
        out.replayed_instructions != out.instructions) {
        return "invariant: verified run replayed " + std::to_string(out.replayed_instructions) +
               " of " + std::to_string(out.instructions) + " instructions";
    }
    if (out.cycles * commit_width < out.instructions) {
        return "invariant: " + std::to_string(out.instructions) + " instructions in " +
               std::to_string(out.cycles) + " cycles exceed commit width " +
               std::to_string(commit_width);
    }
    return {};
}

run_outcome execute(const run_spec& spec) {
    // Pull the workload through the spec's provider when one is attached
    // (shared cache), otherwise generate a private copy.
    std::shared_ptr<const generated_workload> shared_wl;
    std::optional<generated_workload> local_wl;
    if (spec.workloads != nullptr) {
        shared_wl = spec.workloads->workload_for(spec.workload, spec.instructions,
                                                 spec.workload_seed);
    } else {
        local_wl = generate_workload(spec.workload, spec.instructions,
                                     spec.workload_seed);
    }
    const generated_workload& wl = shared_wl ? *shared_wl : *local_wl;
    const soc_config cfg = spec.soc_override ? *spec.soc_override : spec.sc.soc();

    run_outcome out;
    u32 commit_width = cfg.big.commit_width;
    switch (spec.sc.system) {
        case system_kind::vanilla:
            out = run_big_core(cfg.big, wl.prog);
            break;
        case system_kind::meek:
            out = run_meek(cfg, wl.prog);
            break;
        case system_kind::ea_lockstep: {
            const big_core_config big = area_model{}.ea_lockstep_config(cfg);
            commit_width = big.commit_width;
            out = run_big_core(big, wl.prog);
            break;
        }
        case system_kind::nzdc: {
            if (!spec.workload.nzdc_supported) {
                out.skipped = true;
                break;
            }
            const nzdc_program transformed = transform_nzdc(wl.prog);
            out = run_big_core(cfg.big, transformed.prog);
            break;
        }
    }
    if (!out.skipped && out.error.empty()) {
        out.error = outcome_invariant_error(out, spec.sc.system, commit_width);
    }
    out.scenario = spec.sc.name;
    out.workload = spec.workload.name;
    return out;
}

std::vector<run_outcome> execute_all(executor& ex, const std::vector<run_spec>& specs) {
    return ex.map(specs, /*base_seed=*/0,
                  [](const run_spec& spec, const job_context&) { return execute(spec); });
}

u64 run_spec_fingerprint(const run_spec& spec) {
    const soc_config cfg = spec.soc_override ? *spec.soc_override : spec.sc.soc();
    fnv1a h;
    h.u(static_cast<u64>(spec.sc.system));
    h.u(soc_config_fingerprint(cfg));
    h.u(profile_fingerprint(spec.workload));
    h.u(spec.instructions);
    h.u(spec.workload_seed);
    return h.h;
}

}  // namespace meek::sim

#include "report/runner.h"

#include <algorithm>

#include "bigcore/ooo_core.h"
#include "mem/functional_memory.h"
#include "serve/workload_cache.h"

namespace meek {
namespace {

// Every suite driver routes workload generation through a per-call
// content-addressed cache: the systems evaluated for one (profile,
// instructions, seed) point share a single generated program instead of each
// job rebuilding it. One entry per profile is enough; the floor keeps tiny
// spans from thrashing.
serve::workload_cache make_session_cache(std::size_t num_profiles) {
    return serve::workload_cache(std::max<std::size_t>(8, num_profiles));
}

sim::run_spec make_spec(const sim::scenario& sc, const workload_profile& profile,
                        u64 instructions, u64 seed, workload_source* workloads) {
    sim::run_spec spec;
    spec.sc = sc;
    spec.workload = profile;
    spec.instructions = instructions;
    spec.workload_seed = seed;
    spec.workloads = workloads;
    return spec;
}

// The Fig. 6 job list for one workload, in fixed reduction order.
std::vector<sim::run_spec> fig6_specs(const workload_profile& profile,
                                      const figure6_options& opts,
                                      workload_source* workloads) {
    std::vector<sim::run_spec> specs;
    auto add = [&](const sim::scenario& sc) {
        specs.push_back(make_spec(sc, profile, opts.instructions, opts.seed, workloads));
    };
    add(sim::vanilla_scenario());
    add(sim::meek_scenario(opts.little_cores));
    if (opts.run_lockstep) add(sim::ea_lockstep_scenario());
    if (opts.run_nzdc) add(sim::nzdc_scenario());
    return specs;
}

slowdown_row reduce_fig6(const workload_profile& profile,
                         std::span<const sim::run_outcome> outs) {
    slowdown_row row;
    row.workload = profile.name;
    row.suite = profile.suite;

    double baseline = 0.0;
    for (const sim::run_outcome& out : outs) {
        if (out.scenario == "vanilla") {
            row.baseline_cycles = out.cycles;
            baseline = static_cast<double>(out.cycles);
        }
    }
    if (baseline == 0.0) return row;

    for (const sim::run_outcome& out : outs) {
        const double slowdown = static_cast<double>(out.cycles) / baseline;
        if (out.scenario == "ea-lockstep") {
            row.lockstep = slowdown;
        } else if (out.scenario == "nzdc") {
            row.nzdc = out.skipped ? 0.0 : slowdown;
        } else if (out.scenario.starts_with("meek/")) {
            row.meek = slowdown;
            row.meek_stats = out.stats;
        }
    }
    return row;
}

meek_measurement reduce_meek(const sim::run_outcome& baseline,
                             const sim::run_outcome& meek) {
    meek_measurement m;
    m.baseline_cycles = baseline.cycles;
    m.meek.big.cycles = meek.cycles;
    m.meek.big.instructions = meek.instructions;
    m.meek.soc = meek.stats;
    m.meek.verified_ok = meek.verified_ok;
    m.slowdown = baseline.cycles == 0
                     ? 0.0
                     : static_cast<double>(meek.cycles) /
                           static_cast<double>(baseline.cycles);
    return m;
}

}  // namespace

system_run run_on_big_core(const big_core_config& cfg, const program& prog,
                           const run_limits& limits) {
    functional_memory memory;
    ooo_core core(cfg, memory);
    core.load_program(prog);
    const run_result r = core.run(limits, nullptr);
    system_run out;
    out.cycles = r.cycles;
    out.instructions = r.instructions;
    out.ipc = core.stats().ipc();
    return out;
}

std::vector<slowdown_row> measure_suite(std::span<const workload_profile> profiles,
                                        const figure6_options& opts,
                                        sim::executor& ex) {
    serve::workload_cache cache = make_session_cache(profiles.size());
    std::vector<sim::run_spec> specs;
    std::vector<std::size_t> first_of;  // index of each profile's first spec
    for (const workload_profile& p : profiles) {
        first_of.push_back(specs.size());
        for (sim::run_spec& spec : fig6_specs(p, opts, &cache)) {
            specs.push_back(std::move(spec));
        }
    }
    const std::vector<sim::run_outcome> outs = sim::execute_all(ex, specs);

    std::vector<slowdown_row> rows;
    rows.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const std::size_t begin = first_of[i];
        const std::size_t end = i + 1 < first_of.size() ? first_of[i + 1] : outs.size();
        rows.push_back(reduce_fig6(
            profiles[i], std::span(outs).subspan(begin, end - begin)));
    }
    return rows;
}

meek_measurement measure_meek(const soc_config& cfg, const workload_profile& profile,
                              u64 instructions, u64 seed) {
    // The caller's exact config is simulated via soc_override — a soc_config
    // customized beyond the registry knobs must not be silently replaced by
    // Table-II defaults. The baseline likewise runs on the caller's big core.
    serve::workload_cache cache = make_session_cache(1);
    sim::run_spec baseline =
        make_spec(sim::vanilla_scenario(), profile, instructions, seed, &cache);
    baseline.soc_override = cfg;
    sim::run_spec meek = make_spec(
        sim::meek_scenario(cfg.num_little_cores, cfg.fabric.kind, cfg.little.tuning),
        profile, instructions, seed, &cache);
    meek.soc_override = cfg;
    return reduce_meek(sim::execute(baseline), sim::execute(meek));
}

std::vector<meek_measurement> measure_meek_suite(
    const sim::scenario& sc, std::span<const workload_profile> profiles,
    u64 instructions, sim::executor& ex, u64 seed) {
    serve::workload_cache cache = make_session_cache(profiles.size());
    std::vector<sim::run_spec> specs;
    specs.reserve(profiles.size() * 2);
    for (const workload_profile& p : profiles) {
        specs.push_back(
            make_spec(sim::vanilla_scenario(), p, instructions, seed, &cache));
        specs.push_back(make_spec(sc, p, instructions, seed, &cache));
    }
    const std::vector<sim::run_outcome> outs = sim::execute_all(ex, specs);

    std::vector<meek_measurement> ms;
    ms.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        ms.push_back(reduce_meek(outs[2 * i], outs[2 * i + 1]));
    }
    return ms;
}

double verification_throughput(const sim::run_outcome& out) {
    return out.checker_compute_cycles == 0
               ? 0.0
               : static_cast<double>(out.replayed_instructions) /
                     static_cast<double>(out.checker_compute_cycles);
}

}  // namespace meek

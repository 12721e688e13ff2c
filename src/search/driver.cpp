#include "search/driver.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "area/area_model.h"
#include "fault/campaign.h"
#include "serve/json.h"
#include "serve/workload_cache.h"
#include "sim/job.h"
#include "workloads/generator.h"

namespace meek::search {
namespace {

// ------------------------------------------------------------------ rungs ---

// One evaluation pass: which budget, and whether coverage is probed. Halving
// runs a cheap probe-free rung 0 before the full-budget rung 1; the other
// strategies are a single full rung 0.
struct rung_budget {
    u64 instructions = 0;
    bool probe = false;
};

sim::run_spec perf_spec(const design_point& pt, const workload_profile& profile,
                        const rung_budget& budget, const search_options& opts) {
    sim::run_spec spec;
    spec.sc = pt.sc;
    spec.workload = profile;
    spec.instructions = budget.instructions;
    spec.workload_seed = opts.seed;
    spec.soc_override = pt.soc;
    return spec;
}

// The probe is one single-shard campaign: it runs inline on the worker that
// evaluates the point, never as a batch nested inside that worker's batch.
fault_campaign_config probe_config(const search_options& opts) {
    fault_campaign_config fc;
    fc.num_faults = opts.probe.faults;
    fc.gap_instructions = opts.probe.gap_instructions;
    fc.seed = opts.probe.seed;
    fc.faults_per_shard = std::max<u32>(1, fc.num_faults);
    return fc;
}

u64 probe_program_length(const fault_campaign_config& fc) {
    return u64{fc.num_faults} * (fc.gap_instructions + 2'000) + 50'000;
}

// ------------------------------------------------------------- evaluation ---

point_result reduce_point(const design_point& pt, const sim::run_outcome& out,
                          u64 baseline_cycles, const area_model& areas) {
    point_result r;
    r.name = pt.name;
    r.system = pt.sc.system;
    r.off_registry = pt.off_registry;
    r.baseline_cycles = baseline_cycles;
    r.skipped = out.skipped;
    r.error = out.error;
    if (r.skipped || !r.error.empty()) return r;
    r.cycles = out.cycles;

    r.slowdown = baseline_cycles == 0
                     ? 0.0
                     : static_cast<double>(out.cycles) /
                           static_cast<double>(baseline_cycles);
    const double big_area = areas.big_core_area(pt.soc.big);
    switch (pt.sc.system) {
        case sim::system_kind::vanilla:
            // The baseline itself: no silicon added, nothing detected.
            r.slowdown = 1.0;
            break;
        case sim::system_kind::meek:
            r.area_mm2 = areas.meek_extra_area(pt.soc);
            r.stall_collecting = out.stats.stall_collecting;
            r.stall_forwarding = out.stats.stall_forwarding;
            r.stall_checker = out.stats.stall_checker;
            // Coverage is filled by the probe phase.
            break;
        case sim::system_kind::ea_lockstep:
            // Equal-silicon construction: the two scaled cores occupy exactly
            // big + MEEK-extra, so the silicon added on top of one vanilla
            // big core is the same extra budget. Cycle-level DMR detects any
            // single fault by comparison.
            r.area_mm2 = areas.meek_extra_area(pt.soc);
            r.coverage = 1.0;
            break;
        case sim::system_kind::nzdc:
            // Compiler transform: zero silicon; duplicated execution checks
            // every supported instruction.
            r.coverage = 1.0;
            break;
    }
    r.overhead = big_area > 0.0 ? r.area_mm2 / big_area : 0.0;
    return r;
}

// One rung's measurements over the candidate subset, parallel to
// `candidates`.
std::vector<point_result> evaluate_rung(const std::vector<design_point>& points,
                                        const std::vector<std::size_t>& candidates,
                                        const workload_profile& profile,
                                        const rung_budget& budget,
                                        const search_options& opts, sim::executor& ex,
                                        serve::outcome_cache* outcomes) {
    if (candidates.empty()) return {};

    // Phase A: performance runs — one shared vanilla baseline plus one run
    // per point, longest submitted first, deduped through the completed-
    // result cache when one is attached.
    serve::workload_cache workloads(/*capacity=*/4);
    std::vector<sim::run_spec> specs;
    specs.reserve(candidates.size() + 1);
    sim::run_spec baseline;
    baseline.sc = sim::vanilla_scenario();
    baseline.workload = profile;
    baseline.instructions = budget.instructions;
    baseline.workload_seed = opts.seed;
    specs.push_back(baseline);
    for (const std::size_t idx : candidates) {
        specs.push_back(perf_spec(points[idx], profile, budget, opts));
    }
    for (sim::run_spec& spec : specs) spec.workloads = &workloads;

    const std::vector<sim::run_outcome> outs = ex.map(
        specs, /*base_seed=*/0,
        [outcomes](const sim::run_spec& spec, const sim::job_context&) {
            return outcomes != nullptr ? outcomes->outcome_for(spec)
                                       : sim::execute(spec);
        });
    const u64 baseline_cycles = outs[0].cycles;

    const area_model areas;
    std::vector<point_result> results;
    results.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        results.push_back(
            reduce_point(points[candidates[i]], outs[i + 1], baseline_cycles, areas));
    }

    // Phase B: coverage probes for the MEEK points — one single-shard fault
    // campaign per point over a shared probe program, each an independent
    // executor job that runs its campaign inline.
    if (budget.probe) {
        std::vector<std::size_t> probe_pos;  // positions into `candidates`
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (points[candidates[i]].sc.system == sim::system_kind::meek &&
                results[i].ranked()) {
                probe_pos.push_back(i);
            }
        }
        if (!probe_pos.empty()) {
            const fault_campaign_config fc = probe_config(opts);
            const std::shared_ptr<const generated_workload> probe_wl =
                workloads.workload_for(profile, probe_program_length(fc),
                                       opts.probe.seed);
            const std::vector<campaign_result> probes = ex.map(
                probe_pos, /*base_seed=*/0,
                [&points, &candidates, &probe_wl, &fc, &ex](const std::size_t pos,
                                                            const sim::job_context&) {
                    return run_fault_campaign(points[candidates[pos]].soc,
                                              probe_wl->prog, fc, ex);
                });
            for (std::size_t i = 0; i < probe_pos.size(); ++i) {
                point_result& r = results[probe_pos[i]];
                r.probe_detected = probes[i].detected;
                r.probe_masked = probes[i].masked;
                r.coverage = probes[i].detection_rate();
            }
        }
    }

    return results;
}

// Successive-halving rung-0 score: lower is better. Coverage is not measured
// on the cheap rung, so promotion ranks the perf/area trade alone; skipped
// and errored points sort last.
double rung0_score(const point_result& r) {
    if (!r.ranked()) return 1e300;
    return r.slowdown * (1.0 + r.overhead);
}

}  // namespace

search_result run_search(const std::vector<design_point>& points,
                         const search_options& opts, sim::executor& ex,
                         serve::outcome_cache* outcomes) {
    search_result out;
    out.universe = points.size();

    const workload_profile* profile = find_profile(opts.workload);
    if (profile == nullptr || points.empty()) return out;

    std::vector<std::size_t> candidates(points.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    if (opts.strategy == strategy_kind::random_sample) {
        candidates = sample_indices(points.size(), opts.sample_count, opts.sample_seed);
    }

    rung_budget full;
    full.instructions = opts.instructions;
    full.probe = true;

    if (opts.strategy == strategy_kind::successive_halving) {
        rung_budget cheap;
        cheap.instructions =
            std::max<u64>(2'000, opts.instructions / std::max<u64>(2, opts.halving_divisor));
        cheap.probe = false;
        const std::vector<point_result> r0 =
            evaluate_rung(points, candidates, *profile, cheap, opts, ex, outcomes);
        std::vector<double> scores;
        scores.reserve(r0.size());
        for (const point_result& r : r0) scores.push_back(rung0_score(r));
        candidates = promote(candidates, scores, opts.halving_keep);
    }

    out.pruned = points.size() - candidates.size();

    out.evaluated = evaluate_rung(points, candidates, *profile, full, opts, ex, outcomes);

    // Frontier over the ranked measurements, translated back to
    // evaluated-row indices.
    std::vector<objectives> objs;
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < out.evaluated.size(); ++i) {
        if (!out.evaluated[i].ranked()) continue;
        objs.push_back(out.evaluated[i].objs());
        live.push_back(i);
    }
    for (const std::size_t f : pareto_frontier(objs)) out.frontier.push_back(live[f]);
    return out;
}

std::string to_csv(const search_result& r, bool frontier_only) {
    std::string csv =
        "name,system,off_registry,skipped,area_mm2,overhead,slowdown,coverage,"
        "cycles,baseline_cycles,probe_detected,probe_masked,frontier\n";
    std::vector<bool> on_frontier(r.evaluated.size(), false);
    for (const std::size_t i : r.frontier) on_frontier[i] = true;
    char buf[160];
    for (std::size_t i = 0; i < r.evaluated.size(); ++i) {
        if (frontier_only && !on_frontier[i]) continue;
        const point_result& p = r.evaluated[i];
        csv += p.name;
        csv += ',';
        csv += sim::system_kind_name(p.system);
        std::snprintf(buf, sizeof buf,
                      ",%d,%d,%.6f,%.6f,%.6f,%.6f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%d\n",
                      p.off_registry ? 1 : 0, p.skipped ? 1 : 0, p.area_mm2,
                      p.overhead, p.slowdown, p.coverage, p.cycles,
                      p.baseline_cycles, p.probe_detected, p.probe_masked,
                      on_frontier[i] ? 1 : 0);
        csv += buf;
    }
    return csv;
}

std::string to_ndjson(const search_result& r, bool frontier_only) {
    std::string out;
    std::vector<bool> on_frontier(r.evaluated.size(), false);
    for (const std::size_t i : r.frontier) on_frontier[i] = true;
    for (std::size_t i = 0; i < r.evaluated.size(); ++i) {
        if (frontier_only && !on_frontier[i]) continue;
        const point_result& p = r.evaluated[i];
        serve::json_object_writer w;
        w.field("name", p.name);
        w.field("system", sim::system_kind_name(p.system));
        w.field("off_registry", p.off_registry);
        w.field("skipped", p.skipped);
        if (!p.error.empty()) w.field("error", p.error);
        w.field_fixed("area_mm2", p.area_mm2, 6);
        w.field_fixed("overhead", p.overhead, 6);
        w.field_fixed("slowdown", p.slowdown, 6);
        w.field_fixed("coverage", p.coverage, 6);
        w.field("cycles", p.cycles);
        w.field("baseline_cycles", p.baseline_cycles);
        w.field("probe_detected", p.probe_detected);
        w.field("probe_masked", p.probe_masked);
        w.field("frontier", on_frontier[i]);
        out += w.str();
        out += '\n';
    }
    return out;
}

}  // namespace meek::search

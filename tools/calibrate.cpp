#include <cstdio>
#include <vector>
#include "report/runner.h"
#include "fault/campaign.h"
#include "area/area_model.h"
#include "workloads/generator.h"

using namespace meek;

int main() {
    area_model areas;
    soc_config cfg;
    std::printf("BOOM area: %.3f mm2, MEEK extra: %.3f (%.1f%%), EA scale %.3f\n",
        areas.big_core_area(cfg.big), areas.meek_extra_area(cfg),
        100*areas.meek_overhead_fraction(cfg), areas.ea_lockstep_scale(cfg));
    std::printf("little default %.3f optimized %.3f\n",
        areas.little_core_area({.tuning=little_core_tuning::default_rocket}),
        areas.little_core_area({.tuning=little_core_tuning::optimized}));

    sim::executor ex;
    figure6_options opts; opts.instructions = 120000;
    std::vector<workload_profile> profiles;
    for (const char* name : {"hmmer","mcf","libquantum","blackscholes","swaptions","dedup","streamcluster"}) {
        profiles.push_back(*find_profile(name));
    }
    for (const slowdown_row& row : measure_suite(profiles, opts, ex)) {
        std::printf("%-14s meek %.3f lockstep %.3f nzdc %.3f | stalls col %llu fwd %llu chk %llu / base %llu\n",
            row.workload.c_str(), row.meek, row.lockstep, row.nzdc,
            (unsigned long long)row.meek_stats.stall_collecting,
            (unsigned long long)row.meek_stats.stall_forwarding,
            (unsigned long long)row.meek_stats.stall_checker,
            (unsigned long long)row.baseline_cycles);
    }
    // scalability on swaptions + blackscholes
    for (u32 n : {2u,4u,6u}) {
        soc_config c; c.num_little_cores = n;
        for (const char* name : {"blackscholes","swaptions","dedup"}) {
            auto m = measure_meek(c, *find_profile(name), 120000);
            std::printf("  %u-core %-14s slowdown %.3f\n", n, name, m.slowdown);
        }
    }
    // AXI
    {
        soc_config c; c.fabric.kind = fabric_kind::axi_interconnect;
        for (const char* name : {"dedup","streamcluster","blackscholes"}) {
            auto m = measure_meek(c, *find_profile(name), 120000);
            std::printf("  AXI %-14s slowdown %.3f (fwd stall %llu)\n", name, m.slowdown,
                (unsigned long long)m.meek.soc.stall_forwarding);
        }
    }
    // detection latency quick (sharded through the executor)
    {
        fault_campaign_config fc; fc.num_faults = 60; fc.gap_instructions = 6000;
        const auto wl = generate_workload(*find_profile("blackscholes"), 500000, 7);
        auto res = run_fault_campaign(sim::meek_scenario(4).soc(), wl.prog, fc, ex);
        std::printf("faults: det %llu masked %llu mean %.0f ns max %.0f ns\n",
            (unsigned long long)res.detected, (unsigned long long)res.masked,
            res.latency_ns.mean(), res.latency_ns.max());
        for (const auto& f : res.faults) {
            // A masked fault has no latency — print '-' instead of a bogus 0
            // so eyeballed averages are not dragged down.
            const auto lat = f.latency_cycles();
            char lat_str[32];
            if (lat) {
                std::snprintf(lat_str, sizeof lat_str, "%.0fns", *lat * 0.3125);
            } else {
                std::snprintf(lat_str, sizeof lat_str, "-");
            }
            std::printf("  %s kind=%d seq=%llu lat=%s err=%d\n",
                        f.detected ? "det   " : "masked", (int)f.corrupted_kind,
                        (unsigned long long)f.inject_seq, lat_str, (int)f.kind);
        }
    }
    return 0;
}
// (extended below by calibration iterations)

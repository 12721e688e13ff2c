// meek_search — design-space exploration with a Pareto-frontier reducer.
//
// Enumerates every scenario in the sim registry plus off-registry MEEK points
// from a declarative parameter grid, evaluates each point on one workload
// (slowdown vs the vanilla big core, silicon from the area model, detection
// coverage from a fault-campaign probe), and prints the Pareto frontier over
// (area, slowdown, coverage).
//
//   meek_search                                  default grid, exhaustive
//   meek_search --strategy halving --keep 0.25   cheap rung, then survivors
//   meek_search --threads 4                      evaluate on 4 threads
//
// The sweep runs in this process; `--threads` is the only parallelism.
// Numeric flags must parse whole and in range (`--instructions` >= 1,
// `--keep` in (0, 1], `--threads` at most 1024); a bad value is a usage error
// (exit 2, no rows).
//
// stdout carries only result rows (CSV by default, `--format ndjson` for
// line-delimited JSON; `--all` emits dominated rows too, with a frontier 0/1
// column) — byte-identical for a given search at any thread count. Progress
// and session statistics go to stderr.
//
// Grid axes (repeatable; comma-separated values):
//   --grid cores=2,4,6    little-core counts      --grid lsl=2048,4096  LSL bytes
//   --grid fabric=f2,axi  forwarding fabric       --grid depth=8,16     DC-Buffer depth
//   --grid tuning=opt,def little-core tuning      --grid unroll=1,4,8   divider unroll
//   --grid freq=1600,2000 checker clock (MHz)
// With no --grid flags the default sweep applies (lsl x depth x freq around
// the Table II point); --no-registry restricts the universe to grid points.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cli_number.h"
#include "search/driver.h"
#include "serve/outcome_cache.h"
#include "sim/executor.h"
#include "workloads/profile.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--workload NAME] [--instructions N] [--seed N]\n"
        "          [--strategy exhaustive|random|halving] [--samples N]\n"
        "          [--sample-seed N] [--keep F] [--budget-div N]\n"
        "          [--probe-faults N] [--probe-seed N]\n"
        "          [--grid key=v1,v2,...] [--no-registry]\n"
        "          [--threads N] [--format csv|ndjson] [--all]\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    search::search_options opts;
    search::parameter_grid grid;
    bool grid_given = false;
    bool include_registry = true;
    bool frontier_only = true;
    bool ndjson = false;
    u32 threads = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        auto number_flag = [&]<typename T>(const char* flag, T lo,
                                           T hi = std::numeric_limits<T>::max()) {
            return cli::parse_number(flag, next_value(flag), lo, hi);
        };
        if (arg == "--workload") {
            opts.workload = next_value("--workload");
        } else if (arg == "--instructions") {
            opts.instructions = number_flag("--instructions", u64{1});
        } else if (arg == "--seed") {
            opts.seed = number_flag("--seed", u64{0});
        } else if (arg == "--strategy") {
            const auto kind = search::parse_strategy(next_value("--strategy"));
            if (!kind) return usage(argv[0]);
            opts.strategy = *kind;
        } else if (arg == "--samples") {
            opts.sample_count = number_flag("--samples", std::size_t{0});
        } else if (arg == "--sample-seed") {
            opts.sample_seed = number_flag("--sample-seed", u64{0});
        } else if (arg == "--keep") {
            // (0, 1]: the smallest positive double is the open lower bound.
            opts.halving_keep = number_flag("--keep", std::nextafter(0.0, 1.0), 1.0);
        } else if (arg == "--budget-div") {
            opts.halving_divisor = number_flag("--budget-div", u64{0});
        } else if (arg == "--probe-faults") {
            opts.probe.faults = number_flag("--probe-faults", u32{0});
        } else if (arg == "--probe-seed") {
            opts.probe.seed = number_flag("--probe-seed", u64{0});
        } else if (arg == "--grid") {
            const char* spec = next_value("--grid");
            std::string error;
            if (!search::parse_grid_axis(grid, spec, &error)) {
                std::fprintf(stderr, "bad --grid axis '%s': %s\n", spec, error.c_str());
                return 2;
            }
            grid_given = true;
        } else if (arg == "--no-registry") {
            include_registry = false;
        } else if (arg == "--threads") {
            threads = number_flag("--threads", u32{0}, sim::k_max_threads);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = cli::parse_number("--threads", arg.c_str() + 10, u32{0},
                                        sim::k_max_threads);
        } else if (arg == "--format") {
            const std::string v = next_value("--format");
            if (v == "ndjson") {
                ndjson = true;
            } else if (v != "csv") {
                return usage(argv[0]);
            }
        } else if (arg == "--all") {
            frontier_only = false;
        } else {
            return usage(argv[0]);
        }
    }

    if (find_profile(opts.workload) == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
        return 1;
    }
    if (!grid_given) grid = search::default_grid();

    const std::vector<search::design_point> points =
        search::enumerate_points(grid, include_registry);
    if (points.empty()) {
        std::fprintf(stderr, "empty universe (--no-registry with no grid axes?)\n");
        return 1;
    }

    sim::executor ex(threads);
    serve::outcome_cache outcomes;
    std::fprintf(stderr,
                 "# universe: %zu points (%s registry), strategy %s, workload %s, "
                 "%llu instr, probe %u faults, %u thread(s)\n",
                 points.size(), include_registry ? "with" : "no",
                 search::strategy_name(opts.strategy), opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.instructions),
                 opts.probe.faults, ex.num_threads());

    const search::search_result result = search::run_search(points, opts, ex, &outcomes);

    const std::string rendered = ndjson ? search::to_ndjson(result, frontier_only)
                                        : search::to_csv(result, frontier_only);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);

    for (const search::point_result& p : result.evaluated) {
        if (!p.error.empty()) {
            std::fprintf(stderr, "# error: %s: %s\n", p.name.c_str(), p.error.c_str());
        }
    }
    const serve::outcome_cache_stats os = outcomes.stats();
    const sim::executor_timing t = ex.timing();
    std::fprintf(stderr,
                 "# evaluated=%zu pruned=%zu frontier=%zu\n"
                 "# outcomes: hits=%llu misses=%llu hit_rate=%.1f%%\n"
                 "# job wall-time ms: min=%.2f mean=%.2f max=%.2f total=%.2f\n",
                 result.evaluated.size(), result.pruned, result.frontier.size(),
                 static_cast<unsigned long long>(os.hits),
                 static_cast<unsigned long long>(os.misses), 100.0 * os.hit_rate(),
                 t.min_ms, t.mean_ms, t.max_ms, t.total_ms);
    return 0;
}

// meek_search — sharded design-space exploration with a Pareto-frontier
// reducer.
//
// Enumerates every scenario in the sim registry plus off-registry MEEK points
// from a declarative parameter grid, evaluates each point on one workload
// (slowdown vs the vanilla big core, silicon from the area model, detection
// coverage from a fault-campaign probe), and prints the Pareto frontier over
// (area, slowdown, coverage).
//
//   meek_search                                  default grid, exhaustive
//   meek_search --strategy halving --keep 0.25   cheap rung, then survivors
//   meek_search --shard 0/4 --checkpoint-dir d   evaluate every 4th point
//   meek_search --workers 4 --checkpoint-dir d   spawn 4 shard processes,
//                                                wait, merge — one command
//
// Sharding: each `--shard k/n` invocation evaluates its slice and persists
// per-point checkpoints; the invocation that finds every other shard's
// checkpoints present emits the complete merged frontier, byte-identical to
// an unsharded run. `--resume` also reuses this shard's own completed
// checkpoints, so a killed shard restarts at its first missing point.
// `--workers n` is the single-command form of the same protocol: it spawns n
// copies of this invocation as `--shard k/n` child processes (the serve
// layer's process-endpoint transport), waits for them, and then emits the
// merged frontier itself.
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "search/dispatch.h"
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
        "          [--shard K/N | --workers N] [--checkpoint-dir DIR] [--resume]\n"
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
    bool shard_given = false;
    u32 workers = 0;
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
        if (arg == "--workload") {
            opts.workload = next_value("--workload");
        } else if (arg == "--instructions") {
            opts.instructions = std::strtoull(next_value("--instructions"), nullptr, 10);
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next_value("--seed"), nullptr, 10);
        } else if (arg == "--strategy") {
            const auto kind = search::parse_strategy(next_value("--strategy"));
            if (!kind) return usage(argv[0]);
            opts.strategy = *kind;
        } else if (arg == "--samples") {
            opts.sample_count = std::strtoull(next_value("--samples"), nullptr, 10);
        } else if (arg == "--sample-seed") {
            opts.sample_seed = std::strtoull(next_value("--sample-seed"), nullptr, 10);
        } else if (arg == "--keep") {
            opts.halving_keep = std::strtod(next_value("--keep"), nullptr);
        } else if (arg == "--budget-div") {
            opts.halving_divisor = std::strtoull(next_value("--budget-div"), nullptr, 10);
        } else if (arg == "--probe-faults") {
            opts.probe.faults =
                static_cast<u32>(std::strtoul(next_value("--probe-faults"), nullptr, 10));
        } else if (arg == "--probe-seed") {
            opts.probe.seed = std::strtoull(next_value("--probe-seed"), nullptr, 10);
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
        } else if (arg == "--shard") {
            const char* v = next_value("--shard");
            char* end = nullptr;
            opts.shard_index = static_cast<u32>(std::strtoul(v, &end, 10));
            if (end == nullptr || *end != '/') return usage(argv[0]);
            opts.shard_count = static_cast<u32>(std::strtoul(end + 1, nullptr, 10));
            if (opts.shard_count == 0 || opts.shard_index >= opts.shard_count) {
                std::fprintf(stderr, "--shard wants K/N with K < N\n");
                return 2;
            }
            shard_given = true;
        } else if (arg == "--workers") {
            workers = static_cast<u32>(std::strtoul(next_value("--workers"), nullptr, 10));
        } else if (arg == "--checkpoint-dir") {
            opts.checkpoint_dir = next_value("--checkpoint-dir");
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--threads") {
            threads = static_cast<u32>(std::strtoul(next_value("--threads"), nullptr, 10));
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = static_cast<u32>(std::strtoul(arg.c_str() + 10, nullptr, 10));
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
    if (opts.shard_count > 1 && opts.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--shard needs --checkpoint-dir to merge across runs\n");
        return 2;
    }
    if (workers > 0 && shard_given) {
        std::fprintf(stderr, "--workers spawns its own --shard children; pick one\n");
        return 2;
    }
    if (workers > 1 && opts.checkpoint_dir.empty()) {
        std::fprintf(stderr, "--workers needs --checkpoint-dir for the shard merge\n");
        return 2;
    }
    if (!grid_given) grid = search::default_grid();

    if (workers > 1) {
        // Re-issue this exact invocation as one child per shard (minus the
        // --workers flag), wait, then fall through and merge: with every
        // checkpoint present the search below simulates nothing.
        search::shard_dispatch_options dispatch;
        dispatch.shard_count = workers;
        for (int i = 0; i < argc; ++i) {
            if (std::strcmp(argv[i], "--workers") == 0) {
                ++i;  // skip the value too
                continue;
            }
            dispatch.argv_base.emplace_back(argv[i]);
        }
        std::fprintf(stderr, "# dispatching %u shard worker(s)\n", workers);
        const search::shard_dispatch_result spawned = search::dispatch_shards(dispatch);
        if (!spawned.ok) {
            if (!spawned.error.empty()) {
                std::fprintf(stderr, "shard dispatch failed: %s\n", spawned.error.c_str());
            }
            for (std::size_t k = 0; k < spawned.exit_codes.size(); ++k) {
                if (spawned.exit_codes[k] != 0) {
                    std::fprintf(stderr, "shard %zu/%u exited with %d\n", k, workers,
                                 spawned.exit_codes[k]);
                }
            }
            return 1;
        }
        opts.shard_index = 0;
        opts.shard_count = workers;
        opts.resume = true;
    }

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
                 "%llu instr, probe %u faults, shard %u/%u, %u thread(s)\n",
                 points.size(), include_registry ? "with" : "no",
                 search::strategy_name(opts.strategy), opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.instructions),
                 opts.probe.faults, opts.shard_index, opts.shard_count,
                 ex.num_threads());

    const search::search_result result = search::run_search(points, opts, ex, &outcomes);

    if (!result.complete) {
        std::fprintf(stderr, "# shard %u/%u done; waiting for shard(s):",
                     opts.shard_index, opts.shard_count);
        for (const u32 s : result.missing_shards) std::fprintf(stderr, " %u", s);
        std::fprintf(stderr,
                     "\n# re-run the missing shards against the same "
                     "--checkpoint-dir, then any shard emits the merged frontier\n");
        return 0;
    }

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
                 "# evaluated=%zu pruned=%zu resumed=%llu frontier=%zu\n"
                 "# outcomes: hits=%llu misses=%llu hit_rate=%.1f%%\n"
                 "# job wall-time ms: min=%.2f mean=%.2f max=%.2f total=%.2f\n",
                 result.evaluated.size(), result.pruned,
                 static_cast<unsigned long long>(result.resumed_points),
                 result.frontier.size(), static_cast<unsigned long long>(os.hits),
                 static_cast<unsigned long long>(os.misses), 100.0 * os.hit_rate(),
                 t.min_ms, t.mean_ms, t.max_ms, t.total_ms);
    return 0;
}

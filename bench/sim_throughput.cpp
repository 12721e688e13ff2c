// sim_throughput — simulation-kernel throughput harness: how many simulated
// instructions per wall-second the simulator itself retires, per system
// scenario. This is the perf trajectory of the *simulator* (host MIPS), not
// of the modeled SoC — the number that bounds how long the figure benches
// and search sweeps take.
//
// Each scenario (vanilla big core, EA-LockStep, nZDC, MEEK with 4 checkers —
// the Fig. 6 system set) runs the same generated workload through the
// sim::executor substrate; workload generation is hoisted into a shared
// cache so the timed region is simulation only. The best of `--repeat` runs
// is reported, machine-readable, one line per scenario:
//
//   sim_throughput: scenario=meek/f2/opt/4 workload=hmmer instructions=536829
//       wall_ms=148.21 mips=3.622 sim_ipc=0.557 verified=1
//
// `--check` is the CI gate for the event-driven low-domain advance:
//   * the meek scenario is re-run in exhaustive reference mode
//     (MEEK_LOW_ADVANCE=exhaustive) and the two run_outcomes must match
//     field-for-field — the determinism contract, enforced on every CI run;
//   * event-driven throughput must stay within a guard band of the
//     exhaustive reference (>= 0.85x): the fast path being *slower* than
//     the mode it optimizes signals a hot-path regression. The two modes'
//     repeats are interleaved and timed on the thread's CPU clock, so a
//     busy neighbour on a shared host slows both alike instead of whichever
//     mode it happened to overlap.
// Absolute MIPS is deliberately not gated — CI hosts differ; the trajectory
// is tracked via the BENCH_soc.json artifact instead.
//
// Options: --quick (CI size: 60k instructions, 2 reps), --instructions N,
// --workload NAME, --repeat R, --check, --json PATH (default BENCH_soc.json,
// empty string disables the artifact).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "../tools/cli_number.h"
#include "common/atomic_file.h"
#include "serve/workload_cache.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads/profile.h"

using namespace meek;

namespace {

struct bench_line {
    std::string scenario;
    std::string workload;
    u64 instructions = 0;
    double wall_ms = 0.0;
    double mips = 0.0;     // simulated instructions / wall second / 1e6
    double sim_ipc = 0.0;  // modeled IPC, carried for context
    bool verified = false;
};

struct timed_outcome {
    sim::run_outcome out;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;  // the calling thread's CPU time (sim::execute is serial)
};

double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// An aborted run (sim::run_outcome::error) has no throughput to report: it
// is printed and the bench exits 1 rather than timing partial counters.
timed_outcome run_once(const sim::run_spec& spec) {
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = thread_cpu_ms();
    timed_outcome r;
    r.out = sim::execute(spec);
    r.cpu_ms = thread_cpu_ms() - c0;
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!r.out.error.empty()) {
        std::fprintf(stderr, "sim_throughput: %s on %s: %s\n", spec.sc.name.c_str(),
                     spec.workload.name.c_str(), r.out.error.c_str());
        std::exit(1);
    }
    return r;
}

timed_outcome best_of(const sim::run_spec& spec, u32 repeat) {
    timed_outcome best;
    for (u32 i = 0; i < repeat; ++i) {
        timed_outcome r = run_once(spec);
        if (i == 0 || r.wall_ms < best.wall_ms) best = r;
    }
    return best;
}

bench_line to_line(const sim::run_spec& spec, const timed_outcome& t) {
    bench_line l;
    l.scenario = spec.sc.name;
    l.workload = spec.workload.name;
    l.instructions = t.out.instructions;
    l.wall_ms = t.wall_ms;
    l.mips = t.wall_ms > 0.0
                 ? static_cast<double>(t.out.instructions) / (t.wall_ms * 1e3)
                 : 0.0;
    l.sim_ipc = t.out.ipc;
    l.verified = t.out.verified_ok;
    return l;
}

void print_line(const bench_line& l) {
    std::printf(
        "sim_throughput: scenario=%s workload=%s instructions=%llu "
        "wall_ms=%.2f mips=%.3f sim_ipc=%.3f verified=%d\n",
        l.scenario.c_str(), l.workload.c_str(),
        static_cast<unsigned long long>(l.instructions), l.wall_ms, l.mips,
        l.sim_ipc, l.verified ? 1 : 0);
    std::fflush(stdout);
}

// Field-for-field comparison of the two advance modes' outcomes; prints the
// first divergent field so a CI failure names the counter that moved.
bool outcomes_identical(const sim::run_outcome& a, const sim::run_outcome& b) {
    auto diff = [](const char* field, u64 x, u64 y) {
        std::printf("[check] outcome mismatch: %s event=%llu exhaustive=%llu\n",
                    field, static_cast<unsigned long long>(x),
                    static_cast<unsigned long long>(y));
        return false;
    };
    if (a.instructions != b.instructions)
        return diff("instructions", a.instructions, b.instructions);
    if (a.cycles != b.cycles) return diff("cycles", a.cycles, b.cycles);
    if (a.verified_ok != b.verified_ok)
        return diff("verified_ok", a.verified_ok, b.verified_ok);
    if (a.replayed_instructions != b.replayed_instructions)
        return diff("replayed_instructions", a.replayed_instructions,
                    b.replayed_instructions);
    if (a.checker_compute_cycles != b.checker_compute_cycles)
        return diff("checker_compute_cycles", a.checker_compute_cycles,
                    b.checker_compute_cycles);
    if (a.stats.segments_started != b.stats.segments_started)
        return diff("segments_started", a.stats.segments_started,
                    b.stats.segments_started);
    if (a.stats.segments_verified != b.stats.segments_verified)
        return diff("segments_verified", a.stats.segments_verified,
                    b.stats.segments_verified);
    if (a.stats.segments_failed != b.stats.segments_failed)
        return diff("segments_failed", a.stats.segments_failed,
                    b.stats.segments_failed);
    if (a.stats.errors_detected != b.stats.errors_detected)
        return diff("errors_detected", a.stats.errors_detected,
                    b.stats.errors_detected);
    if (a.stats.stall_collecting != b.stats.stall_collecting)
        return diff("stall_collecting", a.stats.stall_collecting,
                    b.stats.stall_collecting);
    if (a.stats.stall_forwarding != b.stats.stall_forwarding)
        return diff("stall_forwarding", a.stats.stall_forwarding,
                    b.stats.stall_forwarding);
    if (a.stats.stall_checker != b.stats.stall_checker)
        return diff("stall_checker", a.stats.stall_checker, b.stats.stall_checker);
    return true;
}

// Scenario/workload names come from the registries ([a-z0-9/_-]) — no JSON
// escaping needed.
void append_json_line(std::string& out, const bench_line& l, bool last) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\":\"%s\",\"workload\":\"%s\","
                  "\"instructions\":%llu,\"wall_ms\":%.2f,\"mips\":%.3f,"
                  "\"sim_ipc\":%.3f,\"verified\":%s}%s\n",
                  l.scenario.c_str(), l.workload.c_str(),
                  static_cast<unsigned long long>(l.instructions), l.wall_ms,
                  l.mips, l.sim_ipc, l.verified ? "true" : "false",
                  last ? "" : ",");
    out += buf;
}

}  // namespace

int main(int argc, char** argv) {
    u64 instructions = 200'000;
    std::string workload = "hmmer";
    u32 repeat = 3;
    bool check = false;
    std::string json_path = "BENCH_soc.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            instructions = 60'000;
            repeat = 2;
        } else if (arg == "--instructions") {
            instructions = cli::parse_number<u64>("--instructions", value("--instructions"), 1);
        } else if (arg == "--workload") {
            workload = value("--workload");
        } else if (arg == "--repeat") {
            repeat = cli::parse_number<u32>("--repeat", value("--repeat"), 1);
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--json") {
            json_path = value("--json");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--instructions N] "
                         "[--workload NAME] [--repeat R] [--check] "
                         "[--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    const workload_profile* profile = find_profile(workload);
    if (profile == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    // Shared generation cache: the first execute() per (profile, len, seed)
    // builds the program, the timed repeats replay from the cache.
    serve::workload_cache workloads(8);

    const std::vector<sim::scenario> scenarios = {
        sim::vanilla_scenario(),
        sim::ea_lockstep_scenario(),
        sim::nzdc_scenario(),
        sim::meek_scenario(4),
    };

    std::vector<bench_line> lines;
    sim::run_spec meek_spec;
    for (const sim::scenario& sc : scenarios) {
        sim::run_spec spec;
        spec.sc = sc;
        spec.workload = *profile;
        spec.instructions = instructions;
        spec.workloads = &workloads;
        if (sc.system == sim::system_kind::meek) meek_spec = spec;
        // Warm the workload cache outside the timed region.
        (void)workloads.workload_for(*profile, instructions, spec.workload_seed);
        const timed_outcome best = best_of(spec, repeat);
        if (best.out.skipped) {
            std::printf("sim_throughput: scenario=%s workload=%s skipped=1\n",
                        sc.name.c_str(), profile->name.c_str());
            continue;
        }
        const bench_line l = to_line(spec, best);
        print_line(l);
        lines.push_back(l);
    }

    bool check_ok = true;
    double event_mips = 0.0, exhaustive_mips = 0.0;
    if (check) {
        // Reference mode: same spec, exhaustive per-cycle ticking selected
        // through the same env knob users have (read at SoC construction).
        // Repeats alternate event, exhaustive, event, ... and each mode keeps
        // its fastest run by thread CPU time.
        timed_outcome ev, ex;
        for (u32 i = 0; i < repeat; ++i) {
            const timed_outcome e = run_once(meek_spec);
            setenv("MEEK_LOW_ADVANCE", "exhaustive", 1);
            const timed_outcome x = run_once(meek_spec);
            unsetenv("MEEK_LOW_ADVANCE");
            if (i == 0 || e.cpu_ms < ev.cpu_ms) ev = e;
            if (i == 0 || x.cpu_ms < ex.cpu_ms) ex = x;
        }

        auto cpu_mips = [](const timed_outcome& t) {
            return t.cpu_ms > 0.0
                       ? static_cast<double>(t.out.instructions) / (t.cpu_ms * 1e3)
                       : 0.0;
        };
        event_mips = cpu_mips(ev);
        exhaustive_mips = cpu_mips(ex);
        std::printf("sim_throughput_modes: scenario=%s event_mips=%.3f "
                    "exhaustive_mips=%.3f ratio=%.2fx\n",
                    meek_spec.sc.name.c_str(), event_mips, exhaustive_mips,
                    exhaustive_mips > 0.0 ? event_mips / exhaustive_mips : 0.0);

        const bool identical = outcomes_identical(ev.out, ex.out);
        std::printf("[check] event-driven == exhaustive (field-for-field): %s\n",
                    identical ? "OK" : "FAIL");
        if (!identical) check_ok = false;

        // 15% guard band: both modes do the same modeled work; the event
        // path only skips provably-dead ticks, so it can only honestly lose
        // by scheduling noise. A real fast-path regression lands far below.
        const bool fast_enough = event_mips >= 0.85 * exhaustive_mips;
        std::printf("[check] event-driven mips >= 0.85x exhaustive: %s\n",
                    fast_enough ? "OK" : "FAIL");
        if (!fast_enough) check_ok = false;
    }

    if (!json_path.empty()) {
        std::string doc = "{\n  \"schema\": \"meek.bench.soc.v1\",\n";
        char hdr[256];
        std::snprintf(hdr, sizeof hdr,
                      "  \"workload\": \"%s\",\n  \"instructions\": %llu,\n"
                      "  \"repeat\": %u,\n",
                      workload.c_str(),
                      static_cast<unsigned long long>(instructions), repeat);
        doc += hdr;
        if (check) {
            char chk[256];
            std::snprintf(chk, sizeof chk,
                          "  \"check\": {\"ok\": %s, \"event_mips\": %.3f, "
                          "\"exhaustive_mips\": %.3f},\n",
                          check_ok ? "true" : "false", event_mips,
                          exhaustive_mips);
            doc += chk;
        }
        doc += "  \"scenarios\": [\n";
        for (std::size_t i = 0; i < lines.size(); ++i) {
            append_json_line(doc, lines[i], i + 1 == lines.size());
        }
        doc += "  ]\n}\n";
        std::string err;
        if (!write_file_atomic(json_path, doc, &err)) {
            std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                         err.c_str());
            return 2;
        }
    }
    return check_ok ? 0 : 1;
}

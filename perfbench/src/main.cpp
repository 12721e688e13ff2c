// perfbench — the repo benchmark harness. One workload per invocation:
//
//   perfbench --workload kernel|campaign|serve --seed N --seconds S --trace 0|1
//             [--workers N] [--tiny] [--root DIR] [--trace-out PATH]
//
// Protocol: time setup() at least fifteen times and for at least a second
// (setup_s is the median), run one warm-up pass that fixes the reference
// results, then run passes back to back in a closed loop for the measured
// time. --trace 0 reports the end-to-end metrics. --trace 1 spends half the
// time on untraced passes and half on passes with obs::tracer on in wall
// mode; the per-layer metrics come from the traced half and the workload's
// own figures from the untraced half, and the difference between the two
// halves is the tracing overhead.
//
// Human-readable "perfbench:" lines come first; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/atomic_file.h"
#include "obs/trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct metric_def {
    const char* name;
    const char* unit;
};

// Gated end-to-end metrics: every workload reports each of them.
constexpr metric_def k_end_to_end[] = {
    {"setup_s", "s"},
    {"ops_per_cpu_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// The median pass time and each workload's own end-to-end figures (the
// paper's headlines and the workload's throughput and latency), printed on
// every run and carried in the traced run's per-layer object. 0 where the
// workload does not produce it.
constexpr metric_def k_own[] = {
    {"pass_ms", "ms"},
    {"meek_mips", "MIPS"},         {"vanilla_mips", "MIPS"},
    {"meek_slowdown", "ratio"},    {"faults_per_s", "1/s"},
    {"detect_p50_ns", "ns"},       {"detect_p99_ns", "ns"},
    {"detected_frac", "ratio"},    {"rows_per_s", "1/s"},
    {"row_p50_ms", "ms"},          {"row_p99_ms", "ms"},
};

// Per-layer metrics from the traced run. 0 where the workload does not
// exercise the layer.
constexpr metric_def k_layers[] = {
    {"workloads.gen_ms", "ms"},
    {"workloads.len_ratio", "ratio"},
    {"bigcore.host_ns_per_instr", "ns"},
    {"bigcore.ipc", "ratio"},
    {"meek.check_host_ns_per_instr", "ns"},
    {"meek.residual_host_ns_per_instr", "ns"},
    {"meek.stall_checker_frac", "ratio"},
    {"meek.stall_forwarding_frac", "ratio"},
    {"meek.stall_collecting_frac", "ratio"},
    {"deu.host_ns_per_commit", "ns"},
    {"deu.packets_per_ki", "count/ki"},
    {"deu.status_words_per_ki", "count/ki"},
    {"fabric.host_ns_per_packet", "ns"},
    {"fabric.transmissions_per_ki", "count/ki"},
    {"fabric.retries_per_ki", "count/ki"},
    {"fabric.busy_frac", "ratio"},
    {"littlecore.busy_frac", "ratio"},
    {"littlecore.stall_lsl_empty_frac", "ratio"},
    {"littlecore.replay_ratio", "ratio"},
    {"fault.host_ms_per_fault", "ms"},
    {"fault.shard_ms_p50", "ms"},
    {"fault.shard_ms_max", "ms"},
    {"sched.busy_frac", "ratio"},
    {"sched.queue_wait_ms_p99", "ms"},
    {"sched.job_ms_p50", "ms"},
    {"sched.steals", "count/pass"},
    {"serve.parse_us_p50", "us"},
    {"serve.resolve_us_p50", "us"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.serialize_us_p50", "us"},
    {"serve.workload_hit_rate", "ratio"},
    {"serve.outcome_hit_rate", "ratio"},
    {"self_ms.bench", "ms/pass"},
    {"self_ms.workloads", "ms/pass"},
    {"self_ms.bigcore", "ms/pass"},
    {"self_ms.meek", "ms/pass"},
    {"self_ms.deu", "ms/pass"},
    {"self_ms.fabric", "ms/pass"},
    {"self_ms.fault", "ms/pass"},
    {"self_ms.sim", "ms/pass"},
    {"self_ms.sched", "ms/pass"},
    {"self_ms.serve", "ms/pass"},
    {"trace.overhead_frac", "ratio"},
    {"host.main_cpu_frac", "ratio"},
    {"host.process_cpu_frac", "ratio"},
};

constexpr const char* k_self_layers[] = {"bench", "deu",   "fabric", "fault", "bigcore",
                                         "meek",  "sched", "serve",  "sim",   "workloads"};

// setup() runs at least k_setups times and for at least k_setup_budget_s, so
// a set-up of well under a millisecond (serve) is still a median over many.
constexpr std::size_t k_setups = 15;
constexpr std::size_t k_max_setups = 1000;
constexpr double k_setup_budget_s = 1.0;


[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload kernel|campaign|serve --seed N "
                 "--seconds S --trace 0|1 [--workers N] [--tiny] [--root DIR] "
                 "[--trace-out PATH]\n",
                 why);
    std::exit(2);
}

options parse_args(int argc, char** argv) {
    options opt;
    opt.workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                opt.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(value());
                have_seed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
                have_seconds = true;
            } else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                have_trace = true;
            } else if (a == "--workers") {
                opt.workers = static_cast<u32>(std::stoul(value()));
            } else if (a == "--tiny") {
                opt.tiny = true;
            } else if (a == "--root") {
                opt.root = value();
            } else if (a == "--trace-out") {
                opt.trace_out = value();
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    if (!(opt.seconds > 0.0) || opt.seconds > 600.0) usage("--seconds must be in (0, 600]");
    if (opt.workers == 0 || opt.workers > 64) usage("--workers must be in [1, 64]");
    return opt;
}

void print_metric(const char* name, double value, const char* unit) {
    std::printf("perfbench: metric=%s value=%.6g unit=%s\n", name, value, unit);
}

void print_region(const char* region, const std::vector<region_timer::sample>& samples) {
    std::vector<double> wall, thread, process;
    for (const auto& s : samples) {
        wall.push_back(s.wall * 1e3);
        thread.push_back(s.thread_cpu * 1e3);
        process.push_back(s.process_cpu * 1e3);
    }
    std::printf(
        "perfbench: region=%s samples=%zu wall_ms_p50=%.3f thread_cpu_ms_p50=%.3f "
        "process_cpu_ms_p50=%.3f wall_ms_max=%.3f\n",
        region, samples.size(), median(wall), median(thread), median(process),
        quantile(wall, 1.0));
}

void print_json(const tally& checks, const metric_map& values,
                std::initializer_list<std::span<const metric_def>> tables) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    const char* sep = "";
    for (const auto& table : tables) {
        for (const metric_def& d : table) {
            const auto it = values.find(d.name);
            double v = it == values.end() ? 0.0 : it->second;
            if (!std::isfinite(v)) v = 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, d.name, v,
                        d.unit);
            sep = ", ";
        }
    }
    std::printf("}}\n");
}

// Spans of one traced phase: validated, then summed into the totals.
void take_spans(workload& w, std::vector<meek::obs::span_record>& spans,
                std::map<std::string, double>& totals,
                std::map<std::string, double>* self_ms) {
    spans = meek::obs::tracer::instance().drain();
    const std::string err = meek::obs::validate_span_nesting(spans);
    if (!err.empty()) std::fprintf(stderr, "perfbench: span nesting: %s\n", err.c_str());
    w.checks.add(require(err.empty(), "span nesting"));
    add_span_ms(spans, totals);
    if (self_ms != nullptr) {
        for (const auto& [layer, ms] : self_ms_by_layer(spans)) (*self_ms)[layer] += ms;
    }
}

int run(const options& opt) {
    std::unique_ptr<workload> w = make_workload(opt);
    if (!w) usage(("unknown workload " + opt.workload).c_str());

    std::vector<region_timer::sample> setups;
    const double setup_deadline = wall_s() + k_setup_budget_s;
    while (setups.size() < k_setups ||
           (setups.size() < k_max_setups && wall_s() < setup_deadline)) {
        const region_timer t;
        w->setup({});
        setups.push_back(t.stop());
    }
    w->pass({});  // warm-up: caches fill, lazy set-up finishes, references fixed
    w->reset();

    // Untraced closed loop: the end-to-end numbers.
    const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    std::vector<region_timer::sample> passes;
    double wall_sum = 0.0, thread_sum = 0.0, process_sum = 0.0;
    u64 ops = 0;
    const double deadline = wall_s() + budget;
    do {
        const region_timer t;
        ops += w->pass({});
        passes.push_back(t.stop());
        wall_sum += passes.back().wall;
        thread_sum += passes.back().thread_cpu;
        process_sum += passes.back().process_cpu;
    } while (wall_s() < deadline || passes.size() < 3);

    std::vector<double> pass_wall, pass_cpu, setup_wall;
    for (const auto& s : passes) {
        pass_wall.push_back(s.wall);
        pass_cpu.push_back(s.process_cpu);
    }
    for (const auto& s : setups) setup_wall.push_back(s.wall);
    metric_map e2e;
    e2e["setup_s"] = median(setup_wall);
    // Throughput is judged on the CPU time a pass costs, summed over all the
    // process's threads, at the median pass. On a shared VM the wall time of
    // a pass also holds the time the host ran other tenants on our vCPUs and
    // the time idle vCPUs took to wake for a handoff; the OS leaves both out
    // of CPU time (steal time is not charged to tasks). The wall-time figures
    // are reported beside it.
    e2e["ops_per_cpu_s"] =
        static_cast<double>(ops) / static_cast<double>(passes.size()) / median(pass_cpu);
    e2e["peak_rss_mb"] = peak_rss_mb();

    metric_map own;
    own["pass_ms"] = median(pass_wall) * 1e3;
    w->own_metrics(own);
    std::printf("perfbench: workload=%s seed=%llu workers=%u passes=%zu digest=%016llx\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.workers, passes.size(), static_cast<unsigned long long>(w->digest()));
    print_region("setup", setups);
    print_region("pass", passes);
    for (const auto& d : k_end_to_end) print_metric(d.name, e2e[d.name], d.unit);
    for (const auto& d : k_own) {
        if (own.count(d.name)) print_metric(d.name, own[d.name], d.unit);
    }

    if (!opt.trace) {
        print_json(w->checks, e2e, {k_end_to_end});
        return 0;
    }

    metric_map layer = own;
    layer["host.main_cpu_frac"] = thread_sum / wall_sum;
    layer["host.process_cpu_frac"] = process_sum / wall_sum;

    meek::obs::tracer& tracer = meek::obs::tracer::instance();
    tracer.enable(meek::obs::trace_clock_mode::wall);
    tracer.drain();

    trace_totals totals;
    std::vector<meek::obs::span_record> setup_spans, last_spans;
    {
        meek::obs::trace_span span(bench_root(0), "bench.setup");
        w->setup(span.context());
    }
    take_spans(*w, setup_spans, totals.setup_ms, nullptr);
    w->reset();

    std::map<std::string, double> self_ms;
    std::vector<region_timer::sample> traced;
    const double traced_deadline = wall_s() + opt.seconds / 2.0;
    for (u64 i = 0; i < passes.size() && (i < 3 || wall_s() < traced_deadline); ++i) {
        const region_timer t;
        {
            meek::obs::trace_span span(bench_root(1 + 2 * i), "bench.pass");
            w->pass(span.context());
        }
        traced.push_back(t.stop());
        {
            meek::obs::trace_span span(bench_root(2 + 2 * i), "bench.probe");
            w->probe(span.context());
        }
        take_spans(*w, last_spans, totals.pass_ms, &self_ms);
        ++totals.passes;
    }
    tracer.disable();
    print_region("traced_pass", traced);

    // Export the traced setup plus the last traced pass as one Chrome trace,
    // and check that the exported document round-trips with valid nesting.
    std::vector<meek::obs::span_record> exported = setup_spans;
    exported.insert(exported.end(), last_spans.begin(), last_spans.end());
    const std::string doc = meek::obs::chrome_trace_json(exported, tracer.spans_dropped());
    std::vector<meek::obs::span_record> parsed;
    const bool parsed_ok = meek::obs::parse_chrome_trace_json(doc, &parsed);
    w->checks.add(require(parsed_ok && parsed.size() == exported.size() &&
                              meek::obs::validate_span_nesting(parsed).empty(),
                          "exported Chrome trace round-trip"));
    if (!opt.trace_out.empty() && !meek::write_file_atomic(opt.trace_out, doc)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
    }

    std::vector<double> traced_wall;
    for (const auto& s : traced) traced_wall.push_back(s.wall);
    layer["trace.overhead_frac"] = median(traced_wall) / median(pass_wall) - 1.0;
    for (const char* l : k_self_layers) {
        layer[std::string("self_ms.") + l] = self_ms[l] / static_cast<double>(totals.passes);
    }
    w->layer_metrics(totals, layer);
    for (const auto& d : k_layers) print_metric(d.name, layer[d.name], d.unit);

    print_json(w->checks, layer, {k_own, k_layers});
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = parse_args(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

// serve_bench — client-side driver for the evaluation service: builds a
// mixed request batch (several scenarios over several workload profiles),
// pushes it through an in-process serve::service, and reports end-to-end
// request throughput, simulated-instruction throughput, workload-cache hit
// rate, and per-job wall-time skew.
//
// The service is driven through its real wire interface (serialized NDJSON
// in, parsed NDJSON out), so the measured path includes protocol encode +
// decode, not just the simulator.
//
// Options:
//   --requests N       total requests in the batch (default 100)
//   --instructions N   dynamic length per evaluation (default 20000)
//   --threads N        worker threads (default: MEEK_THREADS / hardware)
//   --no-cache         disable the workload cache (capacity 0) for A/B runs
//   --seed N           workload seed the batch shares (default 7); also
//                      drives the load-gen arrival schedule
//
// Load-generator mode (open-loop QPS sweep over the same request mix):
//   --load-gen         run the sweep instead of the single-batch bench
//   --qps A,B,...      arrival rates to sweep (default 1000)
//   --load-requests N  arrivals per QPS point (default 200)
//   --wall             dispatch arrivals in wall-clock time against the live
//                      service (default: virtual-time queue simulation over
//                      the deterministic per-template service times, whose
//                      output is byte-identical run to run — the CI-pinnable
//                      mode)
//   --stats-json PATH  write the sweep's observability snapshot (per-QPS
//                      latency histograms + the service's own stats) as one
//                      meek.stats.v1 JSON line, atomically (temp + rename)
//   --slo SPEC         evaluate SPEC (e.g. "p99<=250us,error_rate<=0.1%")
//                      at every QPS point — in virtual mode over sliding
//                      arrival-time windows of the latency stream, so a bad
//                      tail window cannot hide behind a good start — print
//                      one serve_bench_slo: report per point, attach the
//                      worst point's verdict to --stats-json, and exit 1
//                      when any point violates
//   --trace-json PATH  enable request tracing and export the span journal
//                      as Chrome trace-event JSON after the run
//   --trace-clock MODE trace timestamps: wall (default) or virtual
//   --admission        overload sweeps: bound the load-gen queue so arrivals
//                      past the cap are shed instead of served. In virtual
//                      mode this is the deterministic open_loop_admission
//                      queue-depth model; in wall mode it configures the
//                      live service's admission controller (in-flight jobs)
//                      and shed arrivals come back as overloaded rows.
//                      Latency percentiles and --slo cover admitted
//                      requests only — that is the point of shedding.
//   --max-inflight N   the admission cap (default 64); implies --admission
//
// Each QPS point prints one line:
//   serve_bench_lat: mode=<virtual|wall> qps=.. requests=.. servers=..
//                    completed=.. shed=.. p50_ns=.. p90_ns=.. p99_ns=..
//                    p999_ns=.. mean_ns=.. max_ns=..
// In virtual mode every field is an exact u64, so the whole line is stable
// across runs at a fixed (seed, qps, requests, threads). `completed` counts
// admitted-and-served arrivals; completed + shed == requests.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/atomic_file.h"
#include "obs/loadgen.h"
#include "obs/slo.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/service.h"

using namespace meek;

namespace {

// Sliding windows per QPS point for the --slo evaluation: enough to expose
// a degrading tail, few enough that each window keeps a useful sample count
// at the default --load-requests.
constexpr u32 k_slo_windows = 8;

int run_load_gen(serve::service& svc, const std::vector<std::string>& mix_lines,
                 const std::vector<u64>& qps_points, u64 load_requests, u64 seed,
                 bool wall, u64 admission_queue,
                 const std::string& stats_json_path, const obs::slo_spec* slo) {
    // Resolve every template once through the real wire path: the outcome's
    // cycle count (1 cycle == 1 ns) is the deterministic service time the
    // virtual-time queue runs on.
    std::vector<u64> service_ns(mix_lines.size(), 0);
    for (const serve::response_row& row : svc.evaluate(mix_lines)) {
        if (!row.error.empty()) {
            std::fprintf(stderr, "load-gen template %llu failed: %s\n",
                         static_cast<unsigned long long>(row.request_index),
                         row.error.c_str());
            return 1;
        }
        service_ns[row.request_index] = static_cast<u64>(row.outcome.cycles);
    }

    const u32 servers = svc.pool().num_threads();
    obs::metrics_snapshot loadgen_snap;
    obs::slo_report worst_slo;
    bool any_slo = false;
    u64 total_shed = 0;

    for (const u64 qps : qps_points) {
        const obs::arrival_schedule_config cfg{.qps = qps,
                                               .requests = load_requests,
                                               .seed = seed,
                                               .mix_size = mix_lines.size(),
                                               .jitter = true};
        const std::vector<obs::arrival> arrivals = obs::build_arrival_schedule(cfg);

        obs::log_histogram lat;
        std::vector<obs::log_histogram> windows;
        u64 completed = 0;
        u64 shed = 0;
        if (!wall) {
            obs::open_loop_result res = obs::simulate_open_loop(
                arrivals, service_ns, servers, slo != nullptr ? k_slo_windows : 0,
                obs::open_loop_admission{.max_queue = admission_queue});
            lat = std::move(res.latency_ns);
            windows = std::move(res.window_latency);
            completed = res.completed;
            shed = res.shed;
        } else {
            // Open loop against the live service: each arrival fires at its
            // scheduled offset regardless of completions (no coordinated
            // omission), one dispatch thread per request. A shed arrival
            // comes back as an in-slot overloaded row (the service's own
            // admission controller decided) and stays out of the latency
            // histogram, matching the virtual-time accounting.
            obs::atomic_log_histogram wall_lat;
            std::atomic<u64> wall_shed{0};
            const auto t0 = std::chrono::steady_clock::now();
            std::vector<std::thread> threads;
            threads.reserve(arrivals.size());
            for (const obs::arrival& a : arrivals) {
                threads.emplace_back([&svc, &mix_lines, &wall_lat, &wall_shed, t0,
                                      a] {
                    const auto due = t0 + std::chrono::nanoseconds(a.arrival_ns);
                    std::this_thread::sleep_until(due);
                    const auto rows = svc.evaluate({mix_lines[a.mix_index]});
                    const bool overloaded =
                        !rows.empty() && rows.front().error == "overloaded";
                    const auto d =
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - due);
                    if (overloaded) {
                        wall_shed.fetch_add(1, std::memory_order_relaxed);
                    } else {
                        wall_lat.record(d.count() > 0 ? static_cast<u64>(d.count())
                                                      : 0);
                    }
                });
            }
            for (std::thread& t : threads) t.join();
            lat = wall_lat.snapshot();
            completed = lat.count();
            shed = wall_shed.load(std::memory_order_relaxed);
        }

        std::printf(
            "serve_bench_lat: mode=%s qps=%llu requests=%llu servers=%u "
            "completed=%llu shed=%llu p50_ns=%llu p90_ns=%llu p99_ns=%llu "
            "p999_ns=%llu mean_ns=%llu max_ns=%llu\n",
            wall ? "wall" : "virtual", static_cast<unsigned long long>(qps),
            static_cast<unsigned long long>(load_requests), servers,
            static_cast<unsigned long long>(completed),
            static_cast<unsigned long long>(shed),
            static_cast<unsigned long long>(lat.p50()),
            static_cast<unsigned long long>(lat.p90()),
            static_cast<unsigned long long>(lat.p99()),
            static_cast<unsigned long long>(lat.p999()),
            static_cast<unsigned long long>(lat.count() ? lat.sum() / lat.count()
                                                       : 0),
            static_cast<unsigned long long>(lat.count() ? lat.max() : 0));
        loadgen_snap.add_histogram("loadgen.q" + std::to_string(qps) + ".latency_ns",
                                   lat);
        loadgen_snap.set_counter("loadgen.q" + std::to_string(qps) + ".shed", shed);
        total_shed += shed;

        if (slo != nullptr) {
            // Virtual mode evaluates over the arrival-time windows (any bad
            // window violates); wall mode has no deterministic windowing and
            // treats the whole point as one window.
            const obs::slo_report report =
                windows.empty()
                    ? obs::evaluate_slo(*slo, lat, /*errors=*/0, completed)
                    : obs::evaluate_slo_windows(*slo, windows, /*errors=*/0,
                                                completed);
            const std::string prefix =
                "serve_bench_slo: qps=" + std::to_string(qps) + " ";
            std::fputs(obs::format_slo_report(report, prefix).c_str(), stdout);
            if (!any_slo || (report.violated && !worst_slo.violated) ||
                (report.violated == worst_slo.violated &&
                 report.max_burn_rate > worst_slo.max_burn_rate)) {
                worst_slo = report;
            }
            any_slo = true;
        }
    }

    if (!stats_json_path.empty()) {
        obs::metrics_snapshot snap = svc.stats_snapshot();
        for (const obs::histogram_entry& h : loadgen_snap.histograms) {
            snap.add_histogram(h.name, h.hist);
        }
        snap.set_gauge("loadgen.servers", servers);
        snap.set_counter("loadgen.requests_per_point", load_requests);
        snap.set_counter("admission.shed", total_shed);
        if (admission_queue > 0) {
            snap.set_gauge("admission.max_queue", admission_queue);
        }
        std::string error;
        const std::string doc =
            obs::stats_json(snap, any_slo ? &worst_slo : nullptr) + "\n";
        if (!write_file_atomic(stats_json_path, doc, &error)) {
            std::fprintf(stderr, "cannot write --stats-json '%s': %s\n",
                         stats_json_path.c_str(), error.c_str());
            return 1;
        }
    }
    return any_slo && worst_slo.violated ? 1 : 0;
}

// Drain the tracer and write the catapult export; shared by both modes.
int export_trace_json(const std::string& path) {
    if (path.empty()) return 0;
    obs::tracer& tr = obs::tracer::instance();
    const std::string doc = obs::chrome_trace_json(tr.drain(), tr.spans_dropped());
    std::string error;
    if (!write_file_atomic(path, doc, &error)) {
        std::fprintf(stderr, "cannot write --trace-json '%s': %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    u64 num_requests = 100;
    u64 instructions = 20'000;
    u64 seed = 7;
    serve::service_options opts;
    bool use_cache = true;
    bool load_gen = false;
    bool wall = false;
    bool admission = false;
    u64 max_inflight = 0;  // 0 => default cap when --admission is set
    u64 load_requests = 200;
    std::vector<u64> qps_points;
    std::string stats_json_path;
    std::string trace_json_path;
    std::string slo_text;
    obs::trace_clock_mode trace_clock = obs::trace_clock_mode::wall;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> u64 {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return std::strtoull(argv[++i], nullptr, 10);
        };
        auto next_string = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--requests") {
            num_requests = value("--requests");
        } else if (arg == "--instructions") {
            instructions = value("--instructions");
        } else if (arg == "--threads") {
            opts.threads = static_cast<u32>(value("--threads"));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = static_cast<u32>(std::strtoul(arg.c_str() + 10, nullptr, 10));
        } else if (arg == "--seed") {
            seed = value("--seed");
        } else if (arg == "--no-cache") {
            use_cache = false;
        } else if (arg == "--load-gen") {
            load_gen = true;
        } else if (arg == "--wall") {
            wall = true;
        } else if (arg == "--admission") {
            admission = true;
        } else if (arg == "--max-inflight") {
            max_inflight = value("--max-inflight");
            admission = true;
        } else if (arg == "--load-requests") {
            load_requests = value("--load-requests");
        } else if (arg == "--qps") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--qps requires a value\n");
                return 2;
            }
            const std::string list = argv[++i];
            for (std::size_t pos = 0; pos < list.size();) {
                const std::size_t comma = list.find(',', pos);
                const std::string item =
                    list.substr(pos, comma == std::string::npos ? comma : comma - pos);
                const u64 q = std::strtoull(item.c_str(), nullptr, 10);
                if (q == 0) {
                    std::fprintf(stderr, "bad --qps value '%s'\n", item.c_str());
                    return 2;
                }
                qps_points.push_back(q);
                if (comma == std::string::npos) break;
                pos = comma + 1;
            }
        } else if (arg == "--stats-json") {
            stats_json_path = next_string("--stats-json");
        } else if (arg == "--trace-json") {
            trace_json_path = next_string("--trace-json");
        } else if (arg == "--trace-clock") {
            const std::string mode = next_string("--trace-clock");
            if (mode == "wall") {
                trace_clock = obs::trace_clock_mode::wall;
            } else if (mode == "virtual") {
                trace_clock = obs::trace_clock_mode::virtual_;
            } else {
                std::fprintf(stderr, "--trace-clock must be wall or virtual\n");
                return 2;
            }
        } else if (arg == "--slo") {
            slo_text = next_string("--slo");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--requests N] [--instructions N] [--threads N] "
                         "[--seed N] [--no-cache] [--load-gen] [--qps A,B,...] "
                         "[--load-requests N] [--wall] [--admission] "
                         "[--max-inflight N] [--stats-json PATH] "
                         "[--slo SPEC] [--trace-json PATH] "
                         "[--trace-clock wall|virtual]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!use_cache) opts.cache_capacity = 0;

    obs::slo_spec slo;
    if (!slo_text.empty()) {
        std::string error;
        if (!obs::parse_slo_spec(slo_text, &slo, &error)) {
            std::fprintf(stderr, "bad --slo spec: %s\n", error.c_str());
            return 2;
        }
    }
    if (!trace_json_path.empty()) obs::tracer::instance().enable(trace_clock);

    // The mixed batch: vanilla + an EA-LockStep point + four MEEK configs,
    // round-robined over profiles that stress different parts of the model
    // (integer, pointer-chasing, FP, divider-heavy).
    const std::vector<std::string> scenarios = {
        "vanilla",        "meek/f2/opt/4", "meek/f2/opt/2",
        "meek/axi/def/4", "meek/f2/def/6", "ea-lockstep",
    };
    const std::vector<std::string> workloads = {"hmmer", "mcf", "blackscholes",
                                                "swaptions"};

    if (load_gen) {
        // The sweep's request mix: every scenario × workload combination of
        // the same batch the single-shot bench runs, one template each.
        std::vector<std::string> mix_lines;
        for (const std::string& sc : scenarios) {
            for (const std::string& wl : workloads) {
                serve::run_request req;
                req.scenario = sc;
                req.workload = wl;
                req.instructions = instructions;
                req.seed = seed;
                mix_lines.push_back(serve::to_json(req));
            }
        }
        if (qps_points.empty()) qps_points.push_back(1000);
        const u64 admission_queue = admission ? (max_inflight > 0 ? max_inflight : 64) : 0;
        if (admission && wall) {
            // Wall mode sheds in the live service itself: its admission
            // controller caps executor in-flight jobs at the same limit the
            // virtual-time model applies to its queue.
            opts.admission.enabled = true;
            opts.admission.max_inflight_jobs = admission_queue;
        }
        serve::service svc(opts);
        const int rc =
            run_load_gen(svc, mix_lines, qps_points, load_requests, seed, wall,
                         admission_queue, stats_json_path,
                         slo_text.empty() ? nullptr : &slo);
        const int trace_rc = export_trace_json(trace_json_path);
        return rc != 0 ? rc : trace_rc;
    }

    std::ostringstream batch;
    for (u64 i = 0; i < num_requests; ++i) {
        serve::run_request req;
        req.id = "r" + std::to_string(i);
        req.scenario = scenarios[i % scenarios.size()];
        req.workload = workloads[(i / scenarios.size()) % workloads.size()];
        req.instructions = instructions;
        req.seed = seed;
        batch << serve::to_json(req) << '\n';
    }

    serve::service svc(opts);
    std::istringstream in(batch.str());
    std::ostringstream out;

    const auto start = std::chrono::steady_clock::now();
    const serve::batch_stats stats = svc.serve_stream(in, out);
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Parse the rows back (the client half of the protocol) and aggregate.
    u64 rows = 0, errors = 0, simulated_instructions = 0;
    {
        std::istringstream rows_in(out.str());
        std::string line;
        while (std::getline(rows_in, line)) {
            std::string err;
            const auto row = serve::parse_response(line, &err);
            if (!row) {
                std::fprintf(stderr, "bad response row: %s\n", err.c_str());
                return 1;
            }
            ++rows;
            if (!row->error.empty()) {
                ++errors;
            } else {
                simulated_instructions += row->outcome.instructions;
            }
        }
    }

    const serve::workload_cache_stats cs = svc.cache().stats();
    const sim::executor_timing t = svc.pool().timing();
    std::printf("serve_bench: %llu requests -> %llu rows (%llu errors) in %.3f s\n",
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(errors), elapsed_s);
    std::printf("  throughput: %.1f requests/s, %.2f Minstr/s simulated (%u threads)\n",
                elapsed_s > 0 ? static_cast<double>(stats.requests) / elapsed_s : 0.0,
                elapsed_s > 0 ? static_cast<double>(simulated_instructions) / elapsed_s / 1e6
                              : 0.0,
                svc.pool().num_threads());
    std::printf("  cache: %llu hits / %llu lookups (%.1f%% hit rate), %llu evictions\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.lookups()), 100.0 * cs.hit_rate(),
                static_cast<unsigned long long>(cs.evictions));
    std::printf("  job wall-time ms: min %.2f mean %.2f max %.2f total %.2f\n",
                t.min_ms, t.mean_ms, t.max_ms, t.total_ms);
    // The same '# sched:' stderr line fig6/fig7 emit, so serve-path steal
    // behaviour is visible in CI logs batch by batch.
    bench::print_scheduler_summary(svc.pool());
    if (const int trace_rc = export_trace_json(trace_json_path); trace_rc != 0) {
        return trace_rc;
    }
    bool slo_violated = false;
    if (!slo_text.empty()) {
        // Single-batch mode has no windowed stream; the whole batch's
        // end-to-end request latency is one window.
        obs::log_histogram request_latency;
        for (const obs::histogram_entry& h : svc.stats_snapshot().histograms) {
            if (h.name == "service.request_ns") request_latency = h.hist;
        }
        const obs::slo_report report =
            obs::evaluate_slo(slo, request_latency, errors, rows);
        std::fputs(obs::format_slo_report(report, "serve_bench_slo: ").c_str(),
                   stdout);
        slo_violated = report.violated;
    }
    return errors == 0 && !slo_violated ? 0 : 1;
}

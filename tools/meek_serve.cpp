// meek_serve — the batched multi-SoC evaluation daemon.
//
// Modes:
//   meek_serve                      stdin/stdout loop: each blank-line-
//                                   terminated group of NDJSON request lines
//                                   is one batch; rows stream back per batch.
//   meek_serve --requests FILE      one-shot: serve every batch in FILE,
//                                   then exit.
//   meek_serve --listen ADDR        network daemon: accept clients on a
//                                   tcp:HOST:PORT or unix:PATH endpoint and
//                                   serve each connection's batches (framed:
//                                   each batch's rows end with a blank line).
//
// Options:
//   --threads N            worker threads, at most 1024 (default: MEEK_THREADS
//                          / hardware)
//   --cache-capacity N     workload cache entries (default 64; 0 disables)
//   --outcome-capacity N   completed-result cache entries (default 256;
//                          0 disables — every request simulates)
//   --stream               flush rows as they settle instead of once per
//                          batch: each row is written once its jobs and all
//                          earlier rows are done (the same bytes; only
//                          latency changes)
//   --batch-max-lines N    per-batch buffering caps: lines past either cap
//   --batch-max-bytes N    become in-slot overloaded rows with
//                          "retry_after_ms":100 (0 = unlimited); the only
//                          way the service sheds load
//   --max-connections N    --listen: exit after serving N clients (0 = run
//                          until killed); probes that send no request do not
//                          consume the budget
//   --accept-threads N     --listen: serve up to N client connections
//                          concurrently (default 4, at least 1)
//   --stats-json PATH      after serving, write the session's observability
//                          snapshot (meek.stats.v1: counters, gauges, and
//                          per-stage latency histograms) as one JSON line,
//                          atomically (temp file + rename)
//   --trace-json PATH      enable request tracing and, after serving, export
//                          the span journal as Chrome trace-event JSON
//                          (atomically; load in Perfetto / chrome://tracing)
//   --trace-clock MODE     trace timestamps: wall (default) or virtual —
//                          deterministic per-timeline ticks, byte-identical
//                          exports at any thread count
//   --quiet                suppress the stderr session summary
//
// Numeric values must parse whole and in range (the `--flag=N` forms too); a
// bad value is a usage error (exit 2, nothing on stdout).
//
// stdout carries only response rows — byte-identical for a given input at
// any thread count, tracing on or off — so it can be diffed against golden
// expectations; the session summary (cache hit rate, job timing) goes to
// stderr.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "cli_number.h"
#include "common/atomic_file.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "serve/transport.h"
#include "sim/executor.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--requests FILE | --listen ADDR] [--threads N] "
                 "[--cache-capacity N] [--outcome-capacity N] [--stream] "
                 "[--batch-max-lines N] [--batch-max-bytes N] "
                 "[--max-connections N] [--accept-threads N] "
                 "[--stats-json PATH] [--trace-json PATH] "
                 "[--trace-clock wall|virtual] [--quiet]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string requests_file;
    std::string listen_spec;
    std::string stats_json_path;
    std::string trace_json_path;
    obs::trace_clock_mode trace_clock = obs::trace_clock_mode::wall;
    serve::service_options opts;
    u64 max_connections = 0;
    u32 accept_threads = 4;
    bool quiet = false;

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
        if (arg == "--requests") {
            requests_file = next_value("--requests");
        } else if (arg == "--listen") {
            listen_spec = next_value("--listen");
        } else if (arg == "--max-connections") {
            max_connections = number_flag("--max-connections", u64{0});
        } else if (arg == "--accept-threads") {
            accept_threads = number_flag("--accept-threads", u32{1});
        } else if (arg == "--stream") {
            opts.streaming = true;
        } else if (arg == "--batch-max-lines") {
            opts.limits.max_lines = number_flag("--batch-max-lines", u64{0});
        } else if (arg == "--batch-max-bytes") {
            opts.limits.max_bytes = number_flag("--batch-max-bytes", u64{0});
        } else if (arg == "--threads") {
            opts.threads = number_flag("--threads", u32{0}, sim::k_max_threads);
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = cli::parse_number("--threads", arg.c_str() + 10, u32{0},
                                             sim::k_max_threads);
        } else if (arg == "--cache-capacity") {
            opts.cache_capacity = number_flag("--cache-capacity", std::size_t{0});
        } else if (arg.rfind("--cache-capacity=", 0) == 0) {
            opts.cache_capacity =
                cli::parse_number("--cache-capacity", arg.c_str() + 17, std::size_t{0});
        } else if (arg == "--outcome-capacity") {
            opts.outcome_capacity = number_flag("--outcome-capacity", std::size_t{0});
        } else if (arg.rfind("--outcome-capacity=", 0) == 0) {
            opts.outcome_capacity =
                cli::parse_number("--outcome-capacity", arg.c_str() + 19, std::size_t{0});
        } else if (arg == "--stats-json") {
            stats_json_path = next_value("--stats-json");
        } else if (arg == "--trace-json") {
            trace_json_path = next_value("--trace-json");
        } else if (arg == "--trace-clock") {
            const std::string mode = next_value("--trace-clock");
            if (mode == "wall") {
                trace_clock = obs::trace_clock_mode::wall;
            } else if (mode == "virtual") {
                trace_clock = obs::trace_clock_mode::virtual_;
            } else {
                std::fprintf(stderr, "--trace-clock must be wall or virtual\n");
                return 2;
            }
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (!requests_file.empty() && !listen_spec.empty()) {
        std::fprintf(stderr, "--requests and --listen are mutually exclusive\n");
        return 2;
    }

    const bool tracing = !trace_json_path.empty();
    if (tracing) obs::tracer::instance().enable(trace_clock);

    serve::service svc(opts);
    serve::serve_connections_stats conn_stats;
    bool listened = false;

    if (!listen_spec.empty()) {
        std::string error;
        const auto addr = serve::parse_endpoint(listen_spec, &error);
        if (!addr) {
            std::fprintf(stderr, "bad --listen endpoint: %s\n", error.c_str());
            return 2;
        }
        const auto lis = serve::listener::open(*addr, &error);
        if (!lis) {
            std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
            return 1;
        }
        // The resolved address (ephemeral tcp ports in particular) goes to
        // stderr so a driver can discover where to connect.
        std::fprintf(stderr, "# listening on %s\n", lis->address().describe().c_str());
        conn_stats = serve::serve_connections(
            svc, *lis,
            {.max_connections = max_connections, .accept_threads = accept_threads});
        listened = true;
        if (!quiet) {
            std::fprintf(stderr, "# connections=%llu\n",
                         static_cast<unsigned long long>(conn_stats.connections));
        }
    } else if (!requests_file.empty()) {
        std::ifstream in(requests_file);
        if (!in) {
            std::fprintf(stderr, "cannot open requests file '%s'\n",
                         requests_file.c_str());
            return 1;
        }
        svc.serve_stream(in, std::cout);
    } else {
        svc.serve_stream(std::cin, std::cout);
    }

    if (!stats_json_path.empty()) {
        obs::metrics_snapshot snap = svc.stats_snapshot();
        if (listened) {
            snap.set_counter("connections.connections", conn_stats.connections);
            snap.set_counter("connections.requests", conn_stats.requests);
            snap.set_counter("connections.rows", conn_stats.rows);
            snap.set_counter("connections.errors", conn_stats.errors);
            snap.set_counter("connections.jobs", conn_stats.jobs);
        }
        if (tracing) {
            obs::tracer& tr = obs::tracer::instance();
            snap.set_counter("trace.spans_recorded", tr.spans_recorded());
            snap.set_counter("trace.spans_dropped", tr.spans_dropped());
        }
        std::string error;
        const std::string doc = obs::stats_json(snap) + "\n";
        if (!write_file_atomic(stats_json_path, doc, &error)) {
            std::fprintf(stderr, "cannot write --stats-json '%s': %s\n",
                         stats_json_path.c_str(), error.c_str());
            return 1;
        }
    }

    if (tracing) {
        obs::tracer& tr = obs::tracer::instance();
        const std::string doc =
            obs::chrome_trace_json(tr.drain(), tr.spans_dropped());
        std::string error;
        if (!write_file_atomic(trace_json_path, doc, &error)) {
            std::fprintf(stderr, "cannot write --trace-json '%s': %s\n",
                         trace_json_path.c_str(), error.c_str());
            return 1;
        }
    }

    if (!quiet) {
        // Every mode reads the session totals from the service's registry, so
        // the line matches --stats-json's service.* counters (listen mode
        // included, where no single serve_stream call sees every batch).
        const obs::metrics_snapshot snap = svc.stats_snapshot();
        const auto count = [&snap](std::string_view name) {
            const u64* v = snap.counter_value(name);
            return static_cast<unsigned long long>(v ? *v : 0);
        };
        const serve::workload_cache_stats cs = svc.cache().stats();
        const serve::outcome_cache_stats os = svc.outcomes().stats();
        const sim::executor_timing t = svc.pool().timing();
        const sched::pool_stats ps = svc.pool().scheduler_stats();
        std::fprintf(stderr,
                     "# requests=%llu rows=%llu errors=%llu jobs=%llu threads=%u "
                     "shed=%llu stream_errors=%llu client_aborts=%llu\n"
                     "# cache: hits=%llu misses=%llu evictions=%llu hit_rate=%.1f%%\n"
                     "# outcomes: hits=%llu misses=%llu evictions=%llu hit_rate=%.1f%%\n"
                     "# job wall-time ms: min=%.2f mean=%.2f max=%.2f total=%.2f\n"
                     "# sched: executed=%llu busy_ms=%.2f\n",
                     count("service.requests"), count("service.rows"),
                     count("service.errors"), count("service.jobs"),
                     svc.pool().num_threads(), count("service.shed"),
                     count("service.stream_errors"), count("service.client_aborts"),
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     static_cast<unsigned long long>(cs.evictions),
                     100.0 * cs.hit_rate(),
                     static_cast<unsigned long long>(os.hits),
                     static_cast<unsigned long long>(os.misses),
                     static_cast<unsigned long long>(os.evictions),
                     100.0 * os.hit_rate(), t.min_ms, t.mean_ms, t.max_ms,
                     t.total_ms, static_cast<unsigned long long>(ps.executed),
                     ps.busy_ms);
    }
    return 0;
}

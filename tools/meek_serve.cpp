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
//   --threads N            worker threads (default: MEEK_THREADS / hardware)
//   --cache-capacity N     workload cache entries (default 64; 0 disables)
//   --outcome-capacity N   completed-result cache entries (default 256;
//                          0 disables — every request simulates)
//   --stream               flush rows as they settle instead of once per
//                          batch: each row is written once its jobs and all
//                          earlier rows are done (the same bytes; only
//                          latency changes)
//   --admission            enable admission control (with the default limits
//                          below; any limit flag also enables it)
//   --max-inflight N       shed when N executor jobs are already in flight
//   --max-queue-lines N    shed when N admitted lines are in unfinished
//                          batches (a line is retired at its batch's end)
//   --max-queue-bytes N    shed when those lines hold N request bytes
//   --line-rate R          token-bucket line rate: R lines/second sustained
//   --retry-after-ms N     base retry hint in shed rows (default 100)
//   --batch-max-lines N    per-batch buffering caps: lines past either cap
//   --batch-max-bytes N    become in-slot overloaded rows (0 = unlimited)
//   --max-connections N    --listen: exit after serving N clients (0 = run
//                          until killed); probes that send no request do not
//                          consume the budget
//   --accept-threads N     --listen: serve up to N client connections
//                          concurrently (default 4)
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
//   --slo SPEC             evaluate SPEC (e.g. "p99<=250us,error_rate<=1%")
//                          against the session's end-to-end request latency
//                          after serving: report to stderr, "slo" section in
//                          --stats-json, exit 1 on violation. With admission
//                          enabled the spec also drives the shed/admit
//                          feedback loop: per-batch burn rates above 1
//                          tighten the effective limits, recovery loosens
//                          them back
//   --quiet                suppress the stderr session summary
//
// stdout carries only response rows — byte-identical for a given input at
// any thread count, tracing on or off — so it can be diffed against golden
// expectations; the session summary (cache hit rate, job timing) goes to
// stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/atomic_file.h"
#include "obs/slo.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "serve/transport.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--requests FILE | --listen ADDR] [--threads N] "
                 "[--cache-capacity N] [--outcome-capacity N] [--stream] "
                 "[--admission] [--max-inflight N] "
                 "[--max-queue-lines N] [--max-queue-bytes N] [--line-rate R] "
                 "[--retry-after-ms N] [--batch-max-lines N] "
                 "[--batch-max-bytes N] [--max-connections N] "
                 "[--accept-threads N] [--stats-json PATH] [--trace-json PATH] "
                 "[--trace-clock wall|virtual] [--slo SPEC] [--quiet]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string requests_file;
    std::string listen_spec;
    std::string stats_json_path;
    std::string trace_json_path;
    std::string slo_text;
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
        if (arg == "--requests") {
            requests_file = next_value("--requests");
        } else if (arg == "--listen") {
            listen_spec = next_value("--listen");
        } else if (arg == "--max-connections") {
            max_connections = std::strtoull(next_value("--max-connections"), nullptr, 10);
        } else if (arg == "--accept-threads") {
            const unsigned long v =
                std::strtoul(next_value("--accept-threads"), nullptr, 10);
            accept_threads = v > 0 ? static_cast<u32>(v) : 1;
        } else if (arg == "--stream") {
            opts.streaming = true;
        } else if (arg == "--admission") {
            opts.admission.enabled = true;
        } else if (arg == "--max-inflight") {
            opts.admission.max_inflight_jobs =
                std::strtoull(next_value("--max-inflight"), nullptr, 10);
            opts.admission.enabled = true;
        } else if (arg == "--max-queue-lines") {
            opts.admission.max_queue_lines =
                std::strtoull(next_value("--max-queue-lines"), nullptr, 10);
            opts.admission.enabled = true;
        } else if (arg == "--max-queue-bytes") {
            opts.admission.max_queue_bytes =
                std::strtoull(next_value("--max-queue-bytes"), nullptr, 10);
            opts.admission.enabled = true;
        } else if (arg == "--line-rate") {
            opts.admission.line_rate = std::strtod(next_value("--line-rate"), nullptr);
            opts.admission.enabled = true;
        } else if (arg == "--retry-after-ms") {
            opts.admission.retry_after_ms =
                std::strtoull(next_value("--retry-after-ms"), nullptr, 10);
        } else if (arg == "--batch-max-lines") {
            opts.limits.max_lines =
                std::strtoull(next_value("--batch-max-lines"), nullptr, 10);
        } else if (arg == "--batch-max-bytes") {
            opts.limits.max_bytes =
                std::strtoull(next_value("--batch-max-bytes"), nullptr, 10);
        } else if (arg == "--threads") {
            opts.threads = static_cast<u32>(std::strtoul(next_value("--threads"), nullptr, 10));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = static_cast<u32>(std::strtoul(arg.c_str() + 10, nullptr, 10));
        } else if (arg == "--cache-capacity") {
            opts.cache_capacity = std::strtoul(next_value("--cache-capacity"), nullptr, 10);
        } else if (arg.rfind("--cache-capacity=", 0) == 0) {
            opts.cache_capacity = std::strtoul(arg.c_str() + 17, nullptr, 10);
        } else if (arg == "--outcome-capacity") {
            opts.outcome_capacity =
                std::strtoul(next_value("--outcome-capacity"), nullptr, 10);
        } else if (arg.rfind("--outcome-capacity=", 0) == 0) {
            opts.outcome_capacity = std::strtoul(arg.c_str() + 19, nullptr, 10);
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
        } else if (arg == "--slo") {
            slo_text = next_value("--slo");
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

    obs::slo_spec slo;
    if (!slo_text.empty()) {
        std::string error;
        if (!obs::parse_slo_spec(slo_text, &slo, &error)) {
            std::fprintf(stderr, "bad --slo spec: %s\n", error.c_str());
            return 2;
        }
    }
    const bool tracing = !trace_json_path.empty();
    if (tracing) obs::tracer::instance().enable(trace_clock);

    // With admission on, the --slo spec doubles as the shed/admit feedback
    // signal: the service tightens its own limits while the spec burns.
    if (!slo_text.empty() && opts.admission.enabled) opts.slo_feedback = slo;

    serve::service svc(opts);
    serve::batch_stats stats;
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
        const serve::serve_connections_stats cs = serve::serve_connections(
            svc, *lis,
            {.max_connections = max_connections, .accept_threads = accept_threads});
        stats.requests = cs.requests;
        stats.rows = cs.rows;
        stats.errors = cs.errors;
        stats.jobs = cs.jobs;
        conn_stats = cs;
        listened = true;
        if (!quiet) {
            std::fprintf(stderr, "# connections=%llu\n",
                         static_cast<unsigned long long>(cs.connections));
        }
    } else if (!requests_file.empty()) {
        std::ifstream in(requests_file);
        if (!in) {
            std::fprintf(stderr, "cannot open requests file '%s'\n",
                         requests_file.c_str());
            return 1;
        }
        stats = svc.serve_stream(in, std::cout);
    } else {
        stats = svc.serve_stream(std::cin, std::cout);
    }

    // SLO verdict first (it feeds the stats JSON): evaluated against the
    // session's end-to-end per-request latency, error rows over merged rows.
    obs::slo_report slo_report;
    if (!slo_text.empty()) {
        obs::log_histogram request_latency;
        for (const obs::histogram_entry& h : svc.stats_snapshot().histograms) {
            if (h.name == "service.request_ns") request_latency = h.hist;
        }
        slo_report =
            obs::evaluate_slo(slo, request_latency, stats.errors, stats.rows);
        std::fputs(obs::format_slo_report(slo_report, "# slo: ").c_str(), stderr);
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
        std::string admission_doc;
        if (svc.admission().enabled()) admission_doc = svc.admission().to_json();
        const std::string doc =
            obs::stats_json(snap, slo_text.empty() ? nullptr : &slo_report,
                            admission_doc.empty() ? nullptr : &admission_doc) +
            "\n";
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
                     "# sched: executed=%llu steals=%llu steal_attempts=%llu "
                     "steal_success=%.1f%% busy_ms=%.2f\n",
                     static_cast<unsigned long long>(stats.requests),
                     static_cast<unsigned long long>(stats.rows),
                     static_cast<unsigned long long>(stats.errors),
                     static_cast<unsigned long long>(stats.jobs),
                     svc.pool().num_threads(),
                     static_cast<unsigned long long>(stats.shed),
                     static_cast<unsigned long long>(stats.stream_errors),
                     static_cast<unsigned long long>(stats.client_aborts),
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     static_cast<unsigned long long>(cs.evictions),
                     100.0 * cs.hit_rate(),
                     static_cast<unsigned long long>(os.hits),
                     static_cast<unsigned long long>(os.misses),
                     static_cast<unsigned long long>(os.evictions),
                     100.0 * os.hit_rate(), t.min_ms, t.mean_ms, t.max_ms,
                     t.total_ms, static_cast<unsigned long long>(ps.executed()),
                     static_cast<unsigned long long>(ps.steals()),
                     static_cast<unsigned long long>(ps.steal_attempts()),
                     100.0 * ps.steal_success_rate(), ps.busy_ms());
        if (svc.admission().enabled()) {
            const serve::admission_stats adm = svc.admission().stats();
            std::fprintf(stderr,
                         "# admission: admitted=%llu shed=%llu scale=%.3f "
                         "tightenings=%llu recoveries=%llu\n",
                         static_cast<unsigned long long>(adm.admitted),
                         static_cast<unsigned long long>(adm.shed),
                         svc.admission().scale(),
                         static_cast<unsigned long long>(adm.slo_tightenings),
                         static_cast<unsigned long long>(adm.slo_recoveries));
        }
    }
    return slo_report.violated ? 1 : 0;
}

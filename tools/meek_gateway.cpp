// meek_gateway — the sharding front-end for a pool of meek_serve workers.
//
// Accepts the same blank-line-framed NDJSON batches as meek_serve on stdin
// (or --requests FILE), shards each batch's request lines cost-aware across
// the worker pool (sched::balanced_assignment over sim::cost_hint estimates,
// so the long requests spread instead of piling on one worker), and merges
// the returned rows preserving global (request, repeat) order — stdout is
// byte-identical to a single-process meek_serve run of the same input. A
// worker that dies mid-batch turns into error rows in its slots; the batch
// never aborts, and the dead worker is respawned (processes) or reconnected
// (endpoints) before the next batch.
//
// Worker pool:
//   meek_gateway --workers 3                 spawn 3 meek_serve child
//                                            processes (sibling binary of
//                                            this one, or --worker-cmd PATH)
//   meek_gateway --endpoint tcp:host:port
//                --endpoint unix:/tmp/w.sock connect to running framed
//                                            daemons (meek_serve --listen),
//                                            one worker per --endpoint
//
// Options:
//   --workers N            child worker processes (default 2)
//   --worker-cmd PATH      worker binary (default: meek_serve next to argv[0])
//   --endpoint ADDR        repeatable; use remote sockets instead of children
//   --threads N            per-worker simulation threads (children only)
//   --cache-capacity N     per-worker workload cache entries (children only)
//   --outcome-capacity N   per-worker outcome cache entries (children only)
//   --requests FILE        one-shot: serve the file's batches, then exit
//   --framed               terminate each output batch with a blank line
//   --stats-json PATH      after serving, write the gateway's observability
//                          snapshot (meek.stats.v1: totals, per-worker
//                          error-row/respawn counts, worker round-trip
//                          latency histogram) as one JSON line, atomically
//                          (temp file + rename)
//   --trace-json PATH      enable request tracing (the gateway mints a trace
//                          per request line and injects it into the lines it
//                          forwards, so worker-side spans join the same
//                          trace) and export the gateway's span journal as
//                          Chrome trace-event JSON after serving
//   --trace-clock MODE     trace timestamps: wall (default) or virtual
//                          (deterministic ticks, worker-count independent)
//   --slo SPEC             evaluate SPEC against the worker round-trip
//                          latency after serving: report to stderr, "slo"
//                          section in --stats-json, exit 1 on violation
//   --quiet                suppress the stderr session summary
//
// Streaming and admission control (mirror meek_serve):
//   --stream               emit each request's merged rows as soon as it
//                          settles instead of buffering the whole batch; the
//                          byte stream is identical either way
//   --admission            enable admission control with default limits
//   --max-queue-lines N    shed lines past N queued in the current batch
//   --max-queue-bytes N    shed lines past N bytes buffered
//   --line-rate N          token-bucket cap on admitted lines per second
//   --retry-after-ms N     retry_after_ms base for shed rows (default 100)
//   --batch-max-lines N    hard cap on buffered lines per batch
//   --batch-max-bytes N    hard cap on buffered bytes per batch
//   Each --max-*/--line-rate flag implies --admission. With both --slo and
//   --admission, the worker round-trip burn rate against the SLO spec
//   tightens/recovers admission scale after every batch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "obs/slo.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/gateway.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--workers N] [--worker-cmd PATH] [--endpoint ADDR]... \n"
                 "          [--threads N] [--cache-capacity N] [--outcome-capacity N]\n"
                 "          [--requests FILE] [--framed] [--stats-json PATH]\n"
                 "          [--trace-json PATH] [--trace-clock wall|virtual] "
                 "[--slo SPEC] [--quiet]\n"
                 "          [--stream] [--admission] [--max-queue-lines N]\n"
                 "          [--max-queue-bytes N] [--line-rate N] "
                 "[--retry-after-ms N]\n"
                 "          [--batch-max-lines N] [--batch-max-bytes N]\n",
                 argv0);
    return 2;
}

// The default worker command: the meek_serve binary that was built next to
// this gateway. Falls back to PATH lookup when argv0 carries no directory.
std::string sibling_meek_serve(const char* argv0) {
    const std::filesystem::path self(argv0);
    if (!self.has_parent_path()) return "meek_serve";
    return (self.parent_path() / "meek_serve").string();
}

}  // namespace

int main(int argc, char** argv) {
    serve::gateway_options opts;
    std::string worker_cmd = sibling_meek_serve(argv[0]);
    std::vector<std::string> worker_extra_args;
    std::string requests_file;
    std::string stats_json_path;
    std::string trace_json_path;
    std::string slo_text;
    obs::trace_clock_mode trace_clock = obs::trace_clock_mode::wall;
    bool framed = false;
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
        if (arg == "--workers") {
            opts.workers = static_cast<u32>(std::strtoul(next_value("--workers"), nullptr, 10));
        } else if (arg == "--worker-cmd") {
            worker_cmd = next_value("--worker-cmd");
        } else if (arg == "--endpoint") {
            std::string error;
            const auto addr = serve::parse_endpoint(next_value("--endpoint"), &error);
            if (!addr) {
                std::fprintf(stderr, "bad --endpoint: %s\n", error.c_str());
                return 2;
            }
            opts.endpoints.push_back(*addr);
        } else if (arg == "--threads" || arg == "--cache-capacity" ||
                   arg == "--outcome-capacity") {
            worker_extra_args.push_back(arg);
            worker_extra_args.push_back(next_value(arg.c_str()));
        } else if (arg == "--requests") {
            requests_file = next_value("--requests");
        } else if (arg == "--framed") {
            framed = true;
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
        } else if (arg == "--stream") {
            opts.streaming = true;
        } else if (arg == "--admission") {
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
            opts.admission.line_rate =
                std::strtoull(next_value("--line-rate"), nullptr, 10);
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
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (opts.endpoints.empty() && opts.workers == 0) {
        std::fprintf(stderr, "--workers must be positive (or give --endpoint)\n");
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

    opts.worker_argv = {worker_cmd, "--framed", "--quiet"};
    opts.worker_argv.insert(opts.worker_argv.end(), worker_extra_args.begin(),
                            worker_extra_args.end());
    if (!slo_text.empty() && opts.admission.enabled) opts.slo_feedback = slo;

    serve::gateway gw(opts);
    if (!gw.ok()) {
        std::fprintf(stderr, "no worker came up (cmd '%s', %zu endpoint(s))\n",
                     worker_cmd.c_str(), opts.endpoints.size());
        return 1;
    }

    serve::gateway_stats stats;
    if (!requests_file.empty()) {
        std::ifstream in(requests_file);
        if (!in) {
            std::fprintf(stderr, "cannot open requests file '%s'\n",
                         requests_file.c_str());
            return 1;
        }
        stats = gw.serve_stream(in, std::cout, framed);
    } else {
        stats = gw.serve_stream(std::cin, std::cout, framed);
    }

    // SLO verdict first (it feeds the stats JSON): evaluated against the
    // worker round-trip latency, error rows over merged rows.
    obs::slo_report slo_report;
    if (!slo_text.empty()) {
        obs::metrics_snapshot snap;
        gw.contribute_metrics(snap, stats);
        obs::log_histogram worker_rt;
        for (const obs::histogram_entry& h : snap.histograms) {
            if (h.name == "gateway.worker_rt_ns") worker_rt = h.hist;
        }
        slo_report = obs::evaluate_slo(slo, worker_rt, stats.errors, stats.rows);
        std::fputs(obs::format_slo_report(slo_report, "# slo: ").c_str(), stderr);
    }

    if (!stats_json_path.empty()) {
        obs::metrics_snapshot snap;
        gw.contribute_metrics(snap, stats);
        if (tracing) {
            obs::tracer& tr = obs::tracer::instance();
            snap.set_counter("trace.spans_recorded", tr.spans_recorded());
            snap.set_counter("trace.spans_dropped", tr.spans_dropped());
        }
        std::string error;
        std::string admission_doc;
        if (gw.admission().enabled()) admission_doc = gw.admission().to_json();
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
        std::fprintf(stderr,
                     "# gateway: workers=%zu alive=%zu requests=%llu rows=%llu "
                     "errors=%llu worker_failures=%llu respawned=%llu "
                     "shed=%llu stream_errors=%llu client_aborts=%llu\n",
                     gw.worker_count(), gw.alive_workers(),
                     static_cast<unsigned long long>(stats.requests),
                     static_cast<unsigned long long>(stats.rows),
                     static_cast<unsigned long long>(stats.errors),
                     static_cast<unsigned long long>(stats.worker_failures),
                     static_cast<unsigned long long>(stats.workers_respawned),
                     static_cast<unsigned long long>(stats.shed),
                     static_cast<unsigned long long>(stats.stream_errors),
                     static_cast<unsigned long long>(stats.client_aborts));
        if (gw.admission().enabled()) {
            const serve::admission_stats adm = gw.admission().stats();
            std::fprintf(stderr,
                         "# admission: admitted=%llu shed=%llu scale=%.3f "
                         "tightenings=%llu recoveries=%llu\n",
                         static_cast<unsigned long long>(adm.admitted),
                         static_cast<unsigned long long>(adm.shed),
                         gw.admission().scale(),
                         static_cast<unsigned long long>(adm.slo_tightenings),
                         static_cast<unsigned long long>(adm.slo_recoveries));
        }
    }
    return slo_report.violated ? 1 : 0;
}

#include "serve/gateway.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "common/log.h"
#include "obs/trace.h"
#include "sched/placement.h"
#include "serve/protocol.h"
#include "sim/job.h"

namespace meek::serve {
namespace {

// Translate a worker row's sub-batch request index to the global one in
// place. The writer emits "request" as the first key, so this touches only
// the row's numeric prefix — every other byte passes through verbatim, which
// is what keeps the merged stream byte-identical to a single-process run.
bool rewrite_request_index(std::string* line, u64 global_index) {
    const std::size_t key = line->find("\"request\":");
    if (key == std::string::npos) return false;
    const std::size_t start = key + 10;
    std::size_t end = start;
    while (end < line->size() &&
           std::isdigit(static_cast<unsigned char>((*line)[end]))) {
        ++end;
    }
    if (end == start) return false;
    line->replace(start, end - start, std::to_string(global_index));
    return true;
}

// The sharding cost of one request line: the same estimate the executor uses
// to place the eventual sim jobs, scaled by the request's repeats. Lines that
// do not parse or resolve cost nothing — the worker answers them with one
// error row without simulating.
double line_cost(const parsed_request& parsed) {
    if (!parsed.ok()) return 0.0;
    sim::run_spec spec;
    if (!resolve_request(parsed.request, /*repeat=*/0, &spec).empty()) return 0.0;
    return sim::cost_hint(spec) * static_cast<double>(parsed.request.repeats);
}

// Insert ',"trace":{...}' before the closing brace of a request line the
// gateway verified parses, preserving every other byte — the worker adopts
// the gateway's context and parents its "request" span under our root.
std::string inject_trace_field(const std::string& line, const obs::trace_context& ctx) {
    const std::size_t close = line.rfind('}');
    if (close == std::string::npos) return line;
    std::string out = line.substr(0, close);
    out += ",\"trace\":{\"trace_id\":" + std::to_string(ctx.trace_id) +
           ",\"span_id\":" + std::to_string(ctx.span_id) + "}";
    out += line.substr(close);
    return out;
}

void record_gateway_span(obs::tracer& tracer, u64 trace_id, u64 span_id,
                         u64 parent_span_id, const char* name, u64 begin_ns,
                         u64 end_ns) {
    obs::span_record rec;
    rec.trace_id = trace_id;
    rec.span_id = span_id;
    rec.parent_span_id = parent_span_id;
    rec.begin_ns = begin_ns;
    rec.end_ns = end_ns;
    std::snprintf(rec.name, sizeof rec.name, "%s", name);
    tracer.record(rec);
}

}  // namespace

// One endpoint of the pool: a spawned child process or a connected socket.
struct gateway::worker {
    std::unique_ptr<child_process> proc;
    std::unique_ptr<fd_stream> sock;
    std::optional<endpoint_address> endpoint;  // reconnect target (socket workers)
    bool failed = false;
    std::string failure;  // diagnostic detail (not part of the wire protocol)

    std::iostream* io() {
        if (proc) return &proc->io();
        return sock.get();
    }

    // Revival backoff, in batches: the first retry is immediate, but a
    // worker that keeps failing to come back is retried at doubling
    // intervals (capped) — a dead TCP endpoint means a blocking connect()
    // with no timeout, and paying that stall on every batch would let one
    // unreachable host throttle the whole session.
    u32 retry_backoff = 1;
    u32 batches_until_retry = 0;

    // Session-lifetime observability, surfaced per worker index through
    // gateway::contribute_metrics. error_rows counts both error rows this
    // worker actually returned and rows synthesized for slots it owed when
    // it failed mid-batch; respawns counts successful revivals.
    u64 error_rows = 0;
    u64 respawns = 0;

    void fail(const std::string& why) {
        failed = true;
        if (failure.empty()) failure = why;
    }

    void revive() {
        failed = false;
        failure.clear();
        retry_backoff = 1;
        batches_until_retry = 0;
    }

    void revival_failed() {
        batches_until_retry = retry_backoff;
        retry_backoff = std::min<u32>(retry_backoff * 2, 16);
    }
};

gateway::gateway(const gateway_options& opts) : opts_(opts), admission_(opts.admission) {
    if (!opts_.endpoints.empty()) {
        for (const endpoint_address& addr : opts_.endpoints) {
            auto w = std::make_unique<worker>();
            w->endpoint = addr;
            std::string error;
            w->sock = connect_endpoint(addr, &error);
            if (!w->sock) w->fail("connect " + addr.describe() + ": " + error);
            workers_.push_back(std::move(w));
        }
        return;
    }
    for (u32 i = 0; i < opts_.workers; ++i) {
        auto w = std::make_unique<worker>();
        std::string error;
        w->proc = child_process::spawn(opts_.worker_argv, {}, &error);
        if (!w->proc) w->fail("spawn: " + error);
        workers_.push_back(std::move(w));
    }
}

gateway::~gateway() {
    // EOF on every child's stdin first, then reap: a pool of workers shuts
    // down in parallel instead of one blocking wait at a time. A worker that
    // desynced may be deaf to EOF (blocked mid-write, wedged), so failed
    // workers are killed outright — wait() must never hang the front-end.
    for (const auto& w : workers_) {
        if (!w->proc) continue;
        w->proc->close_stdin();
        if (w->failed) w->proc->kill();
    }
    for (const auto& w : workers_) {
        if (w->proc) w->proc->wait();
    }
}

std::size_t gateway::alive_workers() const {
    std::size_t n = 0;
    for (const auto& w : workers_) {
        if (!w->failed) ++n;
    }
    return n;
}

std::size_t gateway::revive_workers() {
    std::size_t revived = 0;
    for (const auto& wp : workers_) {
        worker& w = *wp;
        // A process worker that exited after a clean batch would otherwise be
        // counted healthy until this batch's write came back EPIPE — the
        // "dead worker looks healthy" hole.
        if (!w.failed && w.proc && w.proc->poll_exited()) {
            w.fail("worker exited between batches");
        }
        if (!w.failed) continue;
        if (w.batches_until_retry > 0) {
            --w.batches_until_retry;
            continue;
        }
        if (w.endpoint) {
            std::string error;
            if (auto sock = connect_endpoint(*w.endpoint, &error)) {
                w.sock = std::move(sock);
                w.revive();
                ++w.respawns;
                ++revived;
            } else {
                w.revival_failed();
            }
        } else if (!opts_.worker_argv.empty()) {
            if (w.proc) {
                w.proc->kill();
                w.proc->wait();
            }
            std::string error;
            if (auto proc = child_process::spawn(opts_.worker_argv, {}, &error)) {
                w.proc = std::move(proc);
                w.revive();
                ++w.respawns;
                ++revived;
            } else {
                w.revival_failed();
            }
        }
        // Still failed: the worker stays evicted — the assignment below
        // simply routes nothing to it.
    }
    return revived;
}

std::vector<std::string> gateway::evaluate(const std::vector<std::string>& lines,
                                           gateway_stats* stats) {
    std::vector<std::string> out;
    run_batch(lines, /*overflow=*/0, stats, [&out](std::vector<std::string>&& rows) {
        for (std::string& row : rows) out.push_back(std::move(row));
    });
    return out;
}

void gateway::run_batch(const std::vector<std::string>& lines, u64 overflow,
                        gateway_stats* stats, const row_sink& sink) {
    const std::size_t num_workers = workers_.size();
    const std::size_t revived = revive_workers();
    const std::size_t failed_before = num_workers - alive_workers();

    // Per-request bookkeeping, from the gateway's own parse of each line.
    // The worker runs the same parser, so "how many rows does a healthy
    // worker owe for this line" is answerable here: one per repeat, except
    // that any error row settles the request with that single row.
    struct request_state {
        std::size_t owner = 0;  // worker index the line was assigned to
        std::string id;         // echoed into synthesized error rows
        u64 repeats = 1;
        u64 rows_received = 0;
        u64 error_rows = 0;
        bool settled_by_error = false;
        // Streaming emit state: `settled` = every row the request will ever
        // get is in `rows` (worker answered past it, or settled locally);
        // `emitted` = the sink took them.
        bool settled = false;
        bool emitted = false;
        std::vector<std::pair<u64, std::string>> rows;  // (repeat, final line)
    };
    std::vector<request_state> requests(lines.size() + overflow);

    // The reorder window over requests: the sink takes request g's rows once
    // requests 0..g-1 are out and g has settled. Reader threads advance it
    // concurrently; `emit_mutex` serializes both the window state and the
    // sink itself. Buffered mode is the degenerate case where everything
    // settles before the single final drain.
    std::mutex emit_mutex;
    std::size_t next_emit = 0;
    u64 emitted_rows = 0;
    const auto drain = [&] {  // emit_mutex held
        while (next_emit < requests.size() && requests[next_emit].settled) {
            request_state& rs = requests[next_emit];
            std::stable_sort(
                rs.rows.begin(), rs.rows.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
            std::vector<std::string> batch;
            batch.reserve(rs.rows.size());
            for (auto& [repeat, line] : rs.rows) batch.push_back(std::move(line));
            rs.rows.clear();
            emitted_rows += batch.size();
            rs.emitted = true;
            ++next_emit;
            sink(std::move(batch));
        }
    };

    // Tracing, resolved once per batch: the gateway is the outermost entry
    // point, so each line gets a root "gateway.request" span (trace adopted
    // from an incoming "trace" field, minted otherwise) and — for lines that
    // parse — the context is injected into the forwarded bytes so the
    // worker's own "request" span parents under ours. Virtual-clock ticks
    // run per line timeline, so exported timestamps are worker-count
    // independent.
    obs::tracer& tracer = obs::tracer::instance();
    const bool tracing = tracer.enabled();
    const u64 batch_seq = tracing ? batch_seq_++ : batch_seq_;
    struct line_trace {
        obs::trace_context root;  // {trace id, root "gateway.request" span}
        u64 parent_span = 0;      // adopted caller span (0 when minted)
        u64 root_begin = 0;
        u64 worker_rt_begin = 0;
    };
    std::vector<line_trace> line_traces(tracing ? lines.size() : 0);
    std::vector<bool> inject(lines.size(), false);

    // Pass 1: parse every line once — id/repeats for error-row synthesis,
    // cost for the sharding below. A blank line (possible through the
    // evaluate() API; the stream path filters them) must never reach a
    // worker — it would read as that worker's batch terminator and desync
    // the stream — so it is settled locally with the same error row a
    // single-process service would emit. So is every batch-cap overflow
    // slot past the lines: its content was never buffered.
    std::vector<double> costs(lines.size(), 0.0);
    std::vector<u64> admitted_bytes;  // queue accounting to retire at the end
    u64 shed = overflow;
    const auto settle_locally = [&requests](std::size_t i, const response_row& row) {
        request_state& rs = requests[i];
        rs.settled_by_error = true;
        rs.settled = true;
        ++rs.error_rows;
        rs.rows.emplace_back(0, to_json(row));
    };
    for (std::size_t i = lines.size(); i < requests.size(); ++i) {
        settle_locally(i, overloaded_row(i, admission_.options().retry_after_ms));
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
        request_state& rs = requests[i];
        const parsed_request parsed = parse_request(strip_cr(lines[i]));
        if (parsed.ok()) {
            rs.id = parsed.request.id;
            rs.repeats = parsed.request.repeats;
            // Admission gate, at parse time: a shed line settles locally with
            // one overloaded row and is never forwarded — rejected work must
            // not spend worker capacity. Lines that do not parse are free
            // (the worker answers them with one error row, no simulation),
            // and stats probes stay free for the same reason as in
            // serve::service.
            const admission_controller::decision gate =
                admission_.admit_line(lines[i].size(), rs.repeats);
            if (!gate.admit) {
                ++shed;
                settle_locally(i, overloaded_row(i, gate.retry_after_ms, rs.id));
            } else {
                admitted_bytes.push_back(lines[i].size());
            }
        }
        if (!rs.settled) costs[i] = line_cost(parsed);
        if (tracing) {
            line_trace& lt = line_traces[i];
            u64 trace_id = 0;
            if (parsed.ok() && parsed.request.trace) {
                trace_id = parsed.request.trace->trace_id;
                lt.parent_span = parsed.request.trace->span_id;
            } else {
                trace_id = obs::mint_trace_id(batch_seq, i);
                // Only lines the gateway verified parse get the context
                // injected: appending to a malformed or stats line would
                // change what the worker answers.
                inject[i] = parsed.ok();
            }
            lt.root.trace_id = trace_id;
            lt.root.span_id =
                obs::derive_span_id(trace_id, lt.parent_span, "gateway.request");
            lt.root_begin = tracer.now_ns(trace_id);
        }
        if (is_blank_line(lines[i])) {
            response_row err;
            err.request_index = i;
            err.error = parsed.error;  // "bad json: ...", as the worker would say
            settle_locally(i, err);
        }
    }

    // The bytes forwarded to workers: verbatim, except for the injected
    // trace context when tracing.
    std::vector<std::string> traced_lines;
    if (tracing) {
        traced_lines.reserve(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
            traced_lines.push_back(inject[i]
                                       ? inject_trace_field(lines[i], line_traces[i].root)
                                       : lines[i]);
        }
    }
    const std::vector<std::string>& wire_lines = tracing ? traced_lines : lines;

    // Pass 2: cost-aware sharding over the *live* workers. The assignment is
    // a pure function of (costs, live set), so for a healthy pool it never
    // depends on runtime timing; which worker owns a line can shift when the
    // pool degrades, but row bytes and order are functions of the global
    // index, so the merged output cannot. With no live worker at all, lines
    // keep a nominal owner whose slots the synthesis below fills with error
    // rows.
    std::vector<std::size_t> alive;
    for (std::size_t k = 0; k < num_workers; ++k) {
        if (!workers_[k]->failed) alive.push_back(k);
    }
    std::vector<std::vector<std::size_t>> owned(num_workers);  // global indices
    const std::vector<std::size_t> bins =
        sched::balanced_assignment(costs, std::max<std::size_t>(alive.size(), 1));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        request_state& rs = requests[i];
        if (alive.empty()) {
            rs.owner = num_workers == 0 ? 0 : i % num_workers;
        } else {
            rs.owner = alive[bins[i]];
        }
        if (!rs.settled && num_workers > 0) owned[rs.owner].push_back(i);
    }

    // Requests settled locally (blank lines, admission shed, overflow) at the
    // head of the batch can stream out before any worker responds.
    {
        std::lock_guard lock(emit_mutex);
        drain();
    }

    // Fan the sub-batches out, one thread per live worker: write the framed
    // sub-batch, then read rows until the blank end-of-batch marker. Each
    // row is credited to its request as it arrives — remap the worker-local
    // index, rewrite it in the raw line, bucket by (global request, repeat)
    // — and, since a worker answers its sub-batch in order, a row for local
    // index j settles every owned request before j; the marker settles them
    // all. Settling advances the emit window, so completed requests stream
    // while other workers are still computing. A row that does not parse or
    // points outside the sub-batch means the stream is not trustworthy
    // beyond this point — fail the worker and let the slot synthesis below
    // cover whatever it still owed.
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < num_workers; ++k) {
        if (owned[k].empty() || workers_[k]->failed) continue;
        threads.emplace_back([this, k, &owned, &wire_lines, &requests, tracing,
                              &line_traces, &tracer, &emit_mutex, &drain] {
            worker& w = *workers_[k];
            std::iostream& io = *w.io();
            const auto rt_start = std::chrono::steady_clock::now();
            const auto note_rt = [this, rt_start] {
                const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - rt_start);
                worker_rt_ns_.record(d.count() > 0 ? static_cast<u64>(d.count()) : 0);
            };
            if (tracing) {
                // Per-line ticks on the line's own timeline: the values a
                // worker-rt span reads never depend on which worker (or how
                // many) ran the sub-batch.
                for (const std::size_t g : owned[k]) {
                    line_traces[g].worker_rt_begin =
                        tracer.now_ns(line_traces[g].root.trace_id);
                }
            }
            for (const std::size_t g : owned[k]) {
                io << wire_lines[g] << '\n';
            }
            io << '\n';
            io.flush();
            if (!io.good()) {
                w.fail("write to worker failed");
                return;
            }
            // Local indices < settled_upto have every row they will get.
            std::size_t settled_upto = 0;
            const auto settle_to = [&](std::size_t local_end) {  // emit_mutex held
                for (; settled_upto < local_end && settled_upto < owned[k].size();
                     ++settled_upto) {
                    requests[owned[k][settled_upto]].settled = true;
                }
            };
            std::string line;
            while (std::getline(io, line)) {
                if (is_blank_line(line)) {  // end-of-batch marker
                    {
                        std::lock_guard lock(emit_mutex);
                        settle_to(owned[k].size());
                        drain();
                    }
                    note_rt();
                    if (tracing) {
                        for (const std::size_t g : owned[k]) {
                            const line_trace& lt = line_traces[g];
                            record_gateway_span(
                                tracer, lt.root.trace_id,
                                obs::derive_span_id(lt.root.trace_id,
                                                    lt.root.span_id,
                                                    "gateway.worker_rt"),
                                lt.root.span_id, "gateway.worker_rt",
                                lt.worker_rt_begin,
                                tracer.now_ns(lt.root.trace_id));
                        }
                    }
                    return;
                }
                std::string raw{strip_cr(line)};
                const std::optional<response_row> row = parse_response(raw);
                if (!row || row->request_index >= owned[k].size()) {
                    w.fail("desynced response stream");
                    return;
                }
                const std::size_t g = owned[k][row->request_index];
                if (!rewrite_request_index(&raw, g)) {
                    w.fail("desynced response stream");
                    return;
                }
                std::lock_guard lock(emit_mutex);
                settle_to(row->request_index);
                request_state& rs = requests[g];
                ++rs.rows_received;
                if (!row->error.empty()) {
                    rs.settled_by_error = true;
                    ++rs.error_rows;
                    ++w.error_rows;
                }
                rs.rows.emplace_back(row->repeat, std::move(raw));
                drain();
            }
            w.fail("EOF before end-of-batch marker");
        });
    }
    for (std::thread& t : threads) t.join();

    // Fill the slots a failed worker still owed: one error row per missing
    // (request, repeat), in place, so the batch shape survives any worker
    // dying — the contract that makes the gateway safe to put in front of a
    // long-running campaign. Requests that already settled (or streamed out)
    // are complete by construction and untouched.
    for (std::size_t g = 0; g < requests.size(); ++g) {
        request_state& rs = requests[g];
        if (rs.emitted || rs.settled) continue;
        if (rs.settled_by_error) {
            rs.settled = true;  // its single error row arrived; nothing owed
            continue;
        }
        const bool owner_failed = num_workers == 0 || workers_[rs.owner]->failed;
        if (!owner_failed) {
            rs.settled = true;  // defensive: a live owner's marker settled it
            continue;
        }
        // A desynced stream can also carry duplicate or out-of-range repeat
        // indices; keep the first row per valid slot and drop the rest, so
        // the one-row-per-(request, repeat) shape holds no matter what the
        // dying worker emitted.
        std::vector<bool> have(rs.repeats, false);
        std::vector<std::pair<u64, std::string>> kept;
        kept.reserve(rs.rows.size());
        for (auto& [repeat, line] : rs.rows) {
            if (repeat < rs.repeats && !have[repeat]) {
                have[repeat] = true;
                kept.emplace_back(repeat, std::move(line));
            }
        }
        rs.rows = std::move(kept);
        for (u64 r = 0; r < rs.repeats; ++r) {
            if (have[r]) continue;
            response_row err;
            err.request_index = g;
            err.repeat = r;
            err.id = rs.id;
            err.error = "gateway: worker " + std::to_string(rs.owner) +
                        " failed mid-batch";
            ++rs.error_rows;
            if (num_workers > 0) ++workers_[rs.owner]->error_rows;
            rs.rows.emplace_back(r, to_json(err));
        }
        rs.settled = true;
    }

    // Final drain: everything has settled, so this flushes the remainder of
    // the window in global (request, repeat) order.
    u64 error_rows = 0;
    {
        std::lock_guard lock(emit_mutex);
        drain();
        for (const request_state& rs : requests) error_rows += rs.error_rows;
    }

    // Close every line's root span now that its rows are merged.
    if (tracing) {
        for (const line_trace& lt : line_traces) {
            record_gateway_span(tracer, lt.root.trace_id, lt.root.span_id,
                                lt.parent_span, "gateway.request", lt.root_begin,
                                tracer.now_ns(lt.root.trace_id));
        }
    }

    for (const u64 bytes : admitted_bytes) admission_.retire_line(bytes);
    admission_.note_batch_overflow(overflow);
    total_errors_ += error_rows;
    total_rows_ += emitted_rows;
    if (stats) {
        stats->requests += requests.size();
        stats->rows += emitted_rows;
        stats->errors += error_rows;
        stats->shed += shed;
        stats->workers_respawned += revived;
        // Only failures that happened during this batch; a worker lost
        // earlier in the session was already counted.
        stats->worker_failures += (num_workers - alive_workers()) - failed_before;
    }
}

bool gateway::serve_batch(std::istream& in, std::ostream& out, gateway_stats* stats,
                          bool framed) {
    // Drain the shared batch reader: admitted lines, then the overflow slots
    // (the caps are sticky, so overflow is always a contiguous tail).
    batch_reader reader(in, opts_.limits);
    std::vector<std::string> lines;
    u64 overflow = 0;
    std::string_view line;
    for (slot_kind kind; (kind = reader.next(&line)) != slot_kind::end;) {
        if (kind == slot_kind::overflow) {
            ++overflow;
        } else {
            lines.emplace_back(line);
        }
    }
    const bool stream_error = reader.stream_error();
    if (stream_error) {
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn,
                 "gateway: input stream died (I/O error, not EOF) after %zu lines",
                 lines.size());
    }
    if (lines.empty() && overflow == 0) return false;

    // `streaming` selects only the flush cadence: after every settled
    // request, or once at the end of the batch.
    bool aborted = false;
    run_batch(lines, overflow, stats, [&](std::vector<std::string>&& rows) {
        if (aborted) return;
        for (const std::string& row : rows) {
            out << row << '\n';
            if (!out) {  // client hung up mid-response
                aborted = true;
                if (stats) stats->client_aborts += 1;
                MEEK_LOG(warn, "gateway: client aborted mid-response");
                return;
            }
        }
        if (opts_.streaming && !rows.empty()) out.flush();
    });

    if (!aborted) {
        if (framed) out << '\n';
        out.flush();
        if (!out) {
            aborted = true;
            if (stats) stats->client_aborts += 1;
        }
    }
    slo_feedback_tick();
    return !aborted && !stream_error;
}

gateway_stats gateway::serve_stream(std::istream& in, std::ostream& out, bool framed) {
    gateway_stats total;
    while (serve_batch(in, out, &total, framed)) {
    }
    return total;
}

void gateway::slo_feedback_tick() {
    if (opts_.slo_feedback.clauses.empty() || !admission_.enabled()) return;
    std::lock_guard lock(slo_mutex_);
    slo_monitor_.observe(worker_rt_ns_.snapshot());
    const std::vector<obs::log_histogram> windows = slo_monitor_.windows();
    const obs::slo_report report = obs::evaluate_slo_windows(
        opts_.slo_feedback, windows, total_errors_, total_rows_);
    admission_.observe_burn_rate(report.max_burn_rate);
}

void gateway::contribute_metrics(obs::metrics_snapshot& snap,
                                 const gateway_stats& totals) const {
    snap.set_counter("gateway.requests", totals.requests);
    snap.set_counter("gateway.rows", totals.rows);
    snap.set_counter("gateway.errors", totals.errors);
    snap.set_counter("gateway.worker_failures", totals.worker_failures);
    snap.set_counter("gateway.workers_respawned", totals.workers_respawned);
    snap.set_counter("gateway.shed", totals.shed);
    snap.set_counter("gateway.stream_errors", totals.stream_errors);
    snap.set_counter("gateway.client_aborts", totals.client_aborts);
    admission_.contribute_metrics(snap);
    snap.set_gauge("gateway.workers", workers_.size());
    snap.set_gauge("gateway.workers_alive", alive_workers());
    snap.add_histogram("gateway.worker_rt_ns", worker_rt_ns_.snapshot());
    for (std::size_t k = 0; k < workers_.size(); ++k) {
        const std::string p = "gateway.worker." + std::to_string(k);
        snap.set_counter(p + ".error_rows", workers_[k]->error_rows);
        snap.set_counter(p + ".respawns", workers_[k]->respawns);
        snap.set_gauge(p + ".alive", workers_[k]->failed ? 0 : 1);
    }
}

}  // namespace meek::serve

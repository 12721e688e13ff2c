#include "serve/service.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <istream>
#include <mutex>
#include <ostream>

#include "common/log.h"
#include "obs/stats_json.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace meek::serve {
namespace {

using clock = std::chrono::steady_clock;

u64 elapsed_ns(clock::time_point from, clock::time_point to) {
    const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
    return d.count() > 0 ? static_cast<u64>(d.count()) : 0;
}

// Trace bookkeeping for one request line.
struct line_trace {
    obs::trace_context root;  // {trace id, root "request" span id}
    u64 parent_span = 0;      // adopted caller span (0 when minted)
    u64 root_begin = 0;
};

// One request line, parsed and resolved into response slots: what the
// batch engine appends to its reorder window per line read.
struct parsed_line {
    struct item {
        response_row row;            // id/error/seed prefilled
        bool has_spec = false;       // true => specs[spec] is dispatchable
        bool stats_row = false;      // row body built from a stats snapshot
        std::size_t spec = 0;        // index into `specs` when has_spec
    };
    std::vector<item> items;          // in repeat order
    std::vector<sim::run_spec> specs;  // this line's dispatchable specs
};

// Parse one line into its response slots: stats probe, parse error, or one
// slot per repeat with a resolved spec. Its tracer ticks land on the line's
// own timeline, so virtual-clock traces do not depend on when the engine
// gets to the line.
parsed_line parse_one_line(std::string_view raw_line, std::size_t index,
                           u64 batch_seq, bool tracing, bool wall_clock,
                           obs::tracer& tracer,
                           obs::atomic_log_histogram& parse_ns,
                           obs::atomic_log_histogram& resolve_ns,
                           workload_cache* cache, line_trace* lt) {
    parsed_line out;
    const auto parse_start = clock::now();
    // Wall-mode span timestamps come from the tracer's own clock, and the
    // parse span starts before the trace id is known — take the pre-parse
    // reading on the (ignored) zero timeline. Virtual mode must not tick a
    // foreign timeline; it stamps after minting instead.
    const u64 pre_parse_ns = tracing && wall_clock ? tracer.now_ns(0) : 0;

    std::string stats_id;
    bool line_parsed_ok = false;
    parsed_request parsed;
    const bool is_stats = parse_stats_request(strip_cr(raw_line), &stats_id);
    if (!is_stats) {
        parsed = parse_request(strip_cr(raw_line));
        line_parsed_ok = parsed.ok();
    }
    parse_ns.record(elapsed_ns(parse_start, clock::now()));

    if (tracing) {
        u64 trace_id = 0;
        if (line_parsed_ok && parsed.request.trace) {
            trace_id = parsed.request.trace->trace_id;
            lt->parent_span = parsed.request.trace->span_id;
        } else {
            trace_id = obs::mint_trace_id(batch_seq, index);
        }
        lt->root.trace_id = trace_id;
        lt->root.span_id = obs::derive_span_id(trace_id, lt->parent_span, "request");
        lt->root_begin = wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);

        obs::span_record parse_span;
        parse_span.trace_id = trace_id;
        parse_span.parent_span_id = lt->root.span_id;
        parse_span.span_id = obs::derive_span_id(trace_id, lt->root.span_id, "parse");
        parse_span.begin_ns = wall_clock ? pre_parse_ns : tracer.now_ns(trace_id);
        parse_span.end_ns = tracer.now_ns(trace_id);
        std::snprintf(parse_span.name, sizeof parse_span.name, "parse");
        tracer.record(parse_span);
    }

    if (is_stats) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.id = std::move(stats_id);
        s.stats_row = true;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        out.items.push_back(std::move(s));
        return out;
    }
    if (!line_parsed_ok) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.error = parsed.error;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        out.items.push_back(std::move(s));
        return out;
    }

    const run_request& req = parsed.request;
    for (u64 r = 0; r < req.repeats; ++r) {
        parsed_line::item s;
        s.row.request_index = index;
        s.row.repeat = r;
        s.row.id = req.id;
        if (tracing) s.row.trace = {lt->root.trace_id, 0};
        sim::run_spec spec;
        const auto resolve_start = clock::now();
        obs::trace_span resolve_span(tracing ? lt->root : obs::trace_context{},
                                     "resolve", r);
        const std::string err = resolve_request(req, r, &spec);
        resolve_span.close();
        resolve_ns.record(elapsed_ns(resolve_start, clock::now()));
        if (!err.empty()) {
            s.row.error = err;
            out.items.push_back(std::move(s));
            break;  // a request that cannot resolve yields one error row
        }
        spec.workloads = cache;
        s.row.seed = spec.workload_seed;
        s.has_spec = true;
        s.spec = out.specs.size();
        out.specs.push_back(std::move(spec));
        out.items.push_back(std::move(s));
    }
    return out;
}

// Close a line's root "request" span.
void close_root_span(obs::tracer& tracer, const line_trace& lt) {
    obs::span_record root;
    root.trace_id = lt.root.trace_id;
    root.span_id = lt.root.span_id;
    root.parent_span_id = lt.parent_span;
    root.begin_ns = lt.root_begin;
    root.end_ns = tracer.now_ns(lt.root.trace_id);
    std::snprintf(root.name, sizeof root.name, "request");
    tracer.record(root);
}

}  // namespace

service::service(const service_options& opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      outcomes_(opts.outcome_capacity),
      pool_(opts.threads) {}

u64 service::run_batch(const line_source& next,
                       const std::function<void(response_row&&)>& emit,
                       const std::function<void()>& flush_run, batch_stats* stats) {
    // Stage histograms, resolved once per batch: recording is relaxed-atomic.
    obs::atomic_log_histogram& parse_ns = metrics_.get_histogram("service.parse_ns");
    obs::atomic_log_histogram& resolve_ns =
        metrics_.get_histogram("service.resolve_ns");
    obs::atomic_log_histogram& request_ns =
        metrics_.get_histogram("service.request_ns");
    // Simulated-work totals, recorded per completed job from the worker-side
    // hook (relaxed atomic adds — order-free, so deterministic sums; cache
    // hits count too, a served result represents that much simulated work).
    obs::counter& sim_instructions = metrics_.get_counter("sim.instructions");
    obs::counter& sim_big_cycles = metrics_.get_counter("sim.big_cycles");

    // Tracing, resolved once per batch. Each line gets a trace: adopted from
    // the wire's "trace" field when present, minted from (batch, line)
    // otherwise — both pure functions of the input, so ids are identical at
    // any thread count. Under the virtual clock, session-thread spans tick
    // on the line's own timeline (= trace id) and executor job spans on the
    // job's span id, so timestamps are schedule-independent too.
    obs::tracer& tracer = obs::tracer::instance();
    const bool tracing = tracer.enabled();
    const bool wall_clock = tracer.clock_mode() == obs::trace_clock_mode::wall;
    const u64 batch_seq = tracing ? batch_seq_.fetch_add(1) : 0;

    // The reorder window: rows in global (request, repeat) order; row k is
    // emitted once rows 0..k-1 are out and k is ready. A deque keeps element
    // references stable while the session thread appends.
    struct pending {
        response_row row;
        bool ready = false;
        bool stats_row = false;  // settled from the snapshot at end of batch
        // Set on a line's last row: settle-time bookkeeping.
        bool line_last = false;
        clock::time_point line_started{};
        line_trace lt;  // root span, closed at settle (tracing only)
    };
    struct window {
        std::mutex m;
        std::condition_variable cv;
        std::deque<pending> rows;
        std::size_t next_emit = 0;
        u64 outstanding = 0;  // submitted jobs whose hook has not run
        u64 errors = 0;       // settled error rows
        bool open = false;    // rows may reach `emit`
    } w;
    w.open = static_cast<bool>(flush_run);

    // Emit every ready row at the front of the window. Called with w.m held,
    // from the session thread and from pool workers (completion hooks).
    auto drain = [&] {
        bool emitted = false;
        while (w.open && w.next_emit < w.rows.size() && w.rows[w.next_emit].ready) {
            pending& p = w.rows[w.next_emit++];
            emit(std::move(p.row));
            emitted = true;
            if (p.line_last) {
                request_ns.record(elapsed_ns(p.line_started, clock::now()));
                if (tracing) close_root_span(tracer, p.lt);
            }
        }
        if (emitted && flush_run) flush_run();
    };

    // The session thread's loop: read, parse, dispatch, line by line.
    u64 lines = 0, jobs = 0, shed = 0;
    bool any_stats_row = false;
    std::string_view line;
    for (slot_kind kind; (kind = next(&line)) != slot_kind::end;) {
        const u64 i = lines++;
        if (kind == slot_kind::overflow) {
            ++shed;
            pending p;
            p.row = overloaded_row(i);
            p.ready = true;
            std::lock_guard lock(w.m);
            ++w.errors;
            w.rows.push_back(std::move(p));
            drain();
            continue;
        }

        const auto line_started = clock::now();
        line_trace lt;
        parsed_line pl = parse_one_line(line, i, batch_seq, tracing, wall_clock, tracer,
                                        parse_ns, resolve_ns, &cache_, &lt);
        jobs += pl.specs.size();

        // Append this line's slots to the window; ready-at-parse slots
        // (errors) can emit right away, stats probes wait for the end.
        std::size_t first_row;
        {
            std::lock_guard lock(w.m);
            first_row = w.rows.size();
            for (std::size_t k = 0; k < pl.items.size(); ++k) {
                parsed_line::item& it = pl.items[k];
                pending p;
                p.row = std::move(it.row);
                p.stats_row = it.stats_row;
                p.ready = !it.has_spec && !it.stats_row;
                if (p.ready && !p.row.error.empty()) ++w.errors;
                any_stats_row = any_stats_row || it.stats_row;
                if (k + 1 == pl.items.size()) {
                    p.line_last = true;
                    p.line_started = line_started;
                    p.lt = lt;
                }
                w.rows.push_back(std::move(p));
            }
            w.outstanding += pl.specs.size();
            drain();
        }
        // Submit the line's jobs; each completion hook fills its slot and
        // advances the window.
        for (std::size_t k = 0; k < pl.items.size(); ++k) {
            const parsed_line::item& it = pl.items[k];
            if (!it.has_spec) continue;
            pool_.submit_indexed(
                first_row + k, /*base_seed=*/0,
                [this, spec = std::move(pl.specs[it.spec])](const sim::job_context&) {
                    return outcomes_.outcome_for(spec);
                },
                [this, &w, &drain, &sim_instructions, &sim_big_cycles](
                    const sim::job_context& ctx, sim::run_outcome result,
                    std::exception_ptr error) {
                    std::lock_guard lock(w.m);
                    pending& p = w.rows[ctx.index];
                    if (error) {
                        // Neighbouring rows may already be on the wire, so a
                        // throwing job settles as an in-slot error row.
                        try {
                            std::rethrow_exception(error);
                        } catch (const std::exception& e) {
                            p.row.error = e.what();
                        } catch (...) {
                            p.row.error = "job failed";
                        }
                        ++w.errors;
                    } else if (!result.error.empty()) {
                        // An aborted simulation is an error, never a row
                        // of partial counters.
                        p.row.error = std::move(result.error);
                        ++w.errors;
                    } else {
                        sim_instructions.add(result.instructions);
                        sim_big_cycles.add(result.cycles);
                        p.row.outcome = std::move(result);
                    }
                    p.ready = true;
                    drain();
                    if (--w.outstanding == 0) w.cv.notify_all();
                },
                tracing ? lt.root : obs::trace_context{});
        }
    }

    // Input exhausted. Once every job has settled — so no hook can touch
    // the stack captures above any more — close the batch's books: add the
    // batch counters, and only then build the stats snapshot (once per
    // batch) and let the rest of the window out.
    std::unique_lock lock(w.m);
    w.cv.wait(lock, [&] { return w.outstanding == 0; });
    const u64 rows = w.rows.size();
    if (stats) {
        stats->requests += lines;
        stats->rows += rows;
        stats->jobs += jobs;
        stats->errors += w.errors;
        stats->shed += shed;
    }
    metrics_.get_counter("service.requests").add(lines);
    metrics_.get_counter("service.rows").add(rows);
    metrics_.get_counter("service.jobs").add(jobs);
    metrics_.get_counter("service.errors").add(w.errors);
    metrics_.get_counter("service.shed").add(shed);

    if (any_stats_row) {
        const std::string snapshot_json = obs::stats_json(stats_snapshot());
        for (std::size_t k = w.next_emit; k < w.rows.size(); ++k) {
            pending& p = w.rows[k];
            if (!p.stats_row) continue;
            json_object_writer row;
            row.field("request", p.row.request_index);
            row.field("repeat", u64{0});
            if (!p.row.id.empty()) row.field("id", p.row.id);
            row.field_raw("stats", snapshot_json);
            p.row.raw = row.str();
            p.ready = true;
        }
    }
    w.open = true;
    drain();
    return lines;
}

std::vector<response_row> service::evaluate(const std::vector<std::string>& lines,
                                            batch_stats* stats) {
    std::vector<response_row> rows;
    std::size_t k = 0;
    run_batch(
        [&](std::string_view* line) {
            if (k == lines.size()) return slot_kind::end;
            *line = lines[k++];
            return slot_kind::line;
        },
        [&rows](response_row&& row) { rows.push_back(std::move(row)); },
        /*flush_run=*/{}, stats);
    return rows;
}

bool service::serve_batch(std::istream& in, std::ostream& out, batch_stats* stats,
                          bool framed) {
    obs::atomic_log_histogram& serialize_ns =
        metrics_.get_histogram("service.serialize_ns");

    // The source: the shared batch reader (framing, CR strip, batch caps).
    batch_reader reader(in, opts_.limits);

    // The sink: serialize each row (its own "serialize" span, a top-level
    // sibling of the line's "request" span) and write it, until the client
    // hangs up (SIGPIPE ignored => badbit on the stream).
    bool aborted = false;
    const auto emit = [&](response_row&& row) {
        if (aborted) return;
        const auto start = clock::now();
        obs::trace_span span(row.trace, "serialize", row.repeat);
        const std::string json = to_json(row);
        span.close();
        serialize_ns.record(elapsed_ns(start, clock::now()));
        out << json << '\n';
        aborted = !out;
    };
    const auto flush = [&] {
        if (aborted) return;
        out.flush();
        aborted = !out;
    };
    const u64 lines = run_batch(
        [&reader](std::string_view* line) { return reader.next(line); }, emit,
        opts_.streaming ? std::function<void()>(flush) : nullptr, stats);

    const bool stream_error = reader.stream_error();
    if (stream_error) {
        metrics_.get_counter("service.stream_errors").add(1);
        if (stats) stats->stream_errors += 1;
        MEEK_LOG(warn,
                 "serve: input stream died (I/O error, not EOF) after %llu lines",
                 static_cast<unsigned long long>(lines));
    }
    if (lines == 0) return false;  // input exhausted before any request line
    if (!aborted) {
        if (framed) out << '\n';  // end-of-batch marker
        out.flush();
        aborted = !out;
    }
    if (aborted) {
        metrics_.get_counter("service.client_aborts").add(1);
        if (stats) stats->client_aborts += 1;
        MEEK_LOG(warn, "serve: client aborted mid-response, dropping connection");
    }
    return !aborted && !stream_error;
}

batch_stats service::serve_stream(std::istream& in, std::ostream& out, bool framed) {
    batch_stats total;
    while (serve_batch(in, out, &total, framed)) {
    }
    return total;
}

obs::metrics_snapshot service::stats_snapshot() const {
    obs::metrics_snapshot snap = metrics_.snapshot();
    const workload_cache_stats cs = cache_.stats();
    snap.set_counter("workload_cache.hits", cs.hits);
    snap.set_counter("workload_cache.misses", cs.misses);
    snap.set_counter("workload_cache.evictions", cs.evictions);
    snap.set_gauge("workload_cache.size", cache_.size());
    const outcome_cache_stats os = outcomes_.stats();
    snap.set_counter("outcome_cache.hits", os.hits);
    snap.set_counter("outcome_cache.misses", os.misses);
    snap.set_counter("outcome_cache.evictions", os.evictions);
    snap.set_gauge("outcome_cache.size", outcomes_.size());
    pool_.contribute_metrics(snap);
    // Derived simulation throughput: simulated instructions per host second
    // of job run time (the sim_throughput bench's MIPS, as a service gauge).
    // Wall-time-derived, so — like the pool's busy time — not part of the
    // deterministic counter set.
    if (const u64* instr = snap.counter_value("sim.instructions")) {
        if (const obs::log_histogram* run = snap.histogram("pool.run_ns");
            run != nullptr && run->sum() > 0) {
            snap.set_gauge("sim.host_instr_per_sec",
                           static_cast<u64>(static_cast<double>(*instr) * 1e9 /
                                            static_cast<double>(run->sum())));
        }
    }
    return snap;
}

}  // namespace meek::serve

// The batched evaluation service: a long-lived session that owns one
// executor and one content-addressed workload cache, accepts batches of
// NDJSON run requests, fans the resolved jobs out across the pool, and
// streams response rows back in deterministic (request, repeat) order.
//
// Determinism contract: for a given batch text, the response byte stream is
// identical at any thread count and any cache capacity — scheduling affects
// wall-clock only. Requests that fail to parse or resolve produce error rows
// in their slot instead of aborting the batch; so does a job that throws.
//
// Batch framing on a stream: one request per line; a blank line (or EOF)
// ends the batch, and a trailing '\r' is stripped by the framing layer
// (serve::batch_reader) so CRLF clients frame identically. serve_stream()
// loops batches until EOF, flushing after each, which is the stdin/stdout
// daemon mode of tools/meek_serve. In *framed* mode — the socket transport's
// wire format — each batch's rows are followed by one blank line, mirroring
// the request framing, so a client can detect end-of-batch without counting
// rows.
//
// One engine evaluates every batch, from evaluate() and serve_batch()
// alike: each line is parsed and resolved the moment it is read,
// its jobs go to the executor with a completion hook, and rows settle
// through a prefix reorder window — row k leaves once rows 0..k-1 have and
// row k is complete, so completion order decides only *when* the window
// advances, never what it contains. A `{"stats":true}` probe holds the
// window until every other row of its batch has settled and the batch's
// counters are in, so the probe sees its whole batch.
//
// Emission cadence (service_options.streaming): with streaming, rows are
// written as the window advances and `out` is flushed after each drained
// run, so a client reads early rows while later lines are still being sent
// and executed. Without it, rows are held until the batch has been read
// and `out` is flushed once per batch. The bytes are identical either way.
//
// Overload behavior: lines past the per-batch caps (batch_limits; sticky,
// so they form the batch's tail) are the one way the service sheds load.
// Each settles immediately with one in-slot
// {"error":"overloaded","retry_after_ms":100} row (never dropped, regardless
// of its repeats), counted in batch_stats::shed and the service.shed counter.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "serve/outcome_cache.h"
#include "serve/protocol.h"
#include "serve/workload_cache.h"
#include "sim/executor.h"
#include "sim/job.h"

namespace meek::serve {

struct service_options {
    u32 threads = 0;                  // 0 => MEEK_THREADS / hardware_concurrency
    std::size_t cache_capacity = 64;  // workload cache entries; 0 disables caching
    std::size_t outcome_capacity = 256;  // completed-result cache; 0 disables
    batch_limits limits;              // per-batch line/byte caps: overflow sheds
    bool streaming = false;           // serve_batch flushes per drained run of rows
};

struct batch_stats {
    u64 requests = 0;  // lines attempted
    u64 rows = 0;      // response rows emitted (includes error rows)
    u64 errors = 0;    // error rows among them
    u64 jobs = 0;      // simulations actually dispatched
    u64 shed = 0;      // "overloaded" rows among the errors (batch-cap overflow)
    u64 stream_errors = 0;  // batches whose input stream died (in.bad())
    u64 client_aborts = 0;  // batches whose output stream died mid-response
};

class service {
public:
    explicit service(const service_options& opts = {});

    // Evaluate one batch of request lines; rows come back ordered by
    // (request index, repeat). No framing and no batch caps apply: every
    // element is a request slot, and a blank one gets its parse-error row.
    std::vector<response_row> evaluate(const std::vector<std::string>& lines,
                                       batch_stats* stats = nullptr);

    // Read one blank-line-terminated batch from `in`, evaluate it, and write
    // one NDJSON row per (request, repeat) to `out` (plus a blank terminator
    // line when `framed`). Returns false when the connection is finished:
    // `in` exhausted before any request line, the input stream died
    // (in.bad(), counted as a stream_error), or `out` failed mid-response (a
    // client hang-up, counted as a client_abort) — a false return tells
    // serve_stream to stop looping instead of burning batches nobody reads.
    bool serve_batch(std::istream& in, std::ostream& out, batch_stats* stats = nullptr,
                     bool framed = false);

    // Drain `in` batch by batch until EOF (or the connection dies), flushing
    // `out` after each batch; returns the aggregate stats of the session.
    batch_stats serve_stream(std::istream& in, std::ostream& out, bool framed = false);

    const workload_cache& cache() const { return cache_; }
    const outcome_cache& outcomes() const { return outcomes_; }
    sim::executor& pool() { return pool_; }
    obs::metrics_registry& metrics() { return metrics_; }

    // The session's full observability picture: the registry's counters and
    // per-stage latency histograms (service.parse_ns / resolve_ns /
    // serialize_ns / request_ns), overlaid with the workload/outcome cache
    // stats and the executor's pool counters + queue-wait/run histograms —
    // the existing stat structs re-plumbed into one sorted snapshot — plus
    // the derived sim.host_instr_per_sec gauge: sim.instructions over the
    // summed job run time (pool.run_ns). This is what `meek_serve
    // --stats-json` exports and what a `{"stats":true}` request line returns
    // inline.
    obs::metrics_snapshot stats_snapshot() const;

private:
    // Yields a batch's slots (see slot_kind); a returned line stays valid
    // until the next call.
    using line_source = std::function<slot_kind(std::string_view* line)>;

    // The one batch engine (see the header comment). `emit` receives every
    // row in (request, repeat) order, under the engine's lock, possibly on a
    // pool worker. With `flush_run` set rows are emitted as the window
    // advances and `flush_run` follows each drained run; without it they
    // are held until the input is exhausted, so a client that writes its
    // whole batch before reading never finds the server blocked on a full
    // socket mid-batch. Adds the batch's counters to `stats` and the
    // registry; returns the number of request slots read.
    u64 run_batch(const line_source& next,
                  const std::function<void(response_row&&)>& emit,
                  const std::function<void()>& flush_run, batch_stats* stats);

    service_options opts_;
    // Declared before the executor: jobs drained by the pool's destructor
    // never touch the registry, but the registry must outlive run_batch()'s
    // recording handles anyway — first is simplest.
    obs::metrics_registry metrics_;
    workload_cache cache_;
    outcome_cache outcomes_;
    sim::executor pool_;
    // Trace minting sequence: batch n, line i => mint_trace_id(n, i), so
    // trace ids are a pure function of the session's input, never of
    // scheduling. Only advanced while tracing is enabled; atomic because
    // concurrent connections run batches on several accept threads.
    std::atomic<u64> batch_seq_{0};
};

}  // namespace meek::serve

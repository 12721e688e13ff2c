// The sharding gateway: a front-end that makes a pool of meek_serve workers
// look like one service.
//
// One logical batch of request lines is sharded *cost-aware* across the live
// worker endpoints: each line's estimated cost (sim::cost_hint of its
// resolved spec, times its repeats) feeds sched::balanced_assignment, so one
// worker does not end up owning all the long requests while the others idle
// — the same placement rule the executor uses for its own deques. On a batch
// of equal-cost lines the assignment degenerates to the old round-robin.
// Each worker evaluates its sub-batch concurrently, and the returned row
// streams are merged back preserving the global (request, repeat) order —
// byte-identical to what a single-process serve::service would emit for the
// same batch, because row content and order are functions of the request
// index, never of which worker ran it. The only rewrite on the way back is
// the "request" index, which is translated from the worker's sub-batch
// numbering to the global one; every other byte of a worker row passes
// through untouched.
//
// Workers are either child processes (`meek_serve --framed --quiet` over
// stdin/stdout pipes) or remote framed socket endpoints (`meek_serve
// --listen`). Worker batches are framed — rows then one blank line — so the
// gateway can detect end-of-batch without counting rows, and a worker that
// dies mid-batch (EOF before the terminator) is detected deterministically:
// every (request, repeat) slot the dead worker still owed becomes an error
// row in its slot, and the rest of the batch is unaffected.
//
// Worker lifecycle between batches: before sharding, every process worker is
// probed (waitpid WNOHANG) so one that crashed after a clean batch is caught
// up front, and every failed worker is revived — process workers respawned
// from the original argv, endpoint workers reconnected. A worker that cannot
// be revived is evicted from the assignment: its share is redistributed over
// the live workers instead of turning into error rows, and further revival
// attempts back off exponentially (in batches, capped) so one unreachable
// host's blocking connect cannot stall every batch of the session. Only when
// *no* worker is alive do slots come back as error rows.
//
// The gateway never simulates and never inspects outcome fields — protocol
// framing, cost estimation, sharding, index rewriting, order-preserving
// merge.
//
// One engine merges every batch: each request's rows leave as soon as that
// request *settles* — its worker has answered every row it owes (workers
// answer their sub-batches in order, so a row for a later sub-batch line
// settles every earlier one) or it was settled locally (blank line,
// admission shed, batch-cap overflow) — advancing a global prefix window, so
// locally settled rows at the head of the batch go out before any worker
// responds. Streaming mode (gateway_options.streaming) selects only the
// flush cadence, as in serve::service: flush after every settled request, or
// once per batch. The bytes are identical either way.
//
// Batch framing and the per-batch caps come from serve::batch_reader, the
// reader serve::service uses, so the caps are sticky in both front ends:
// once a line crosses a cap, it and every later line of the batch become
// in-slot "overloaded" rows, and the gateway's output matches meek_serve's
// byte for byte under caps too.
//
// Overload behavior mirrors serve::service: with admission configured, each
// parseable line is offered to the admission_controller at parse time and a
// shed line settles locally with one in-slot overloaded row (it is never
// forwarded — an overloaded front-end must not spend worker capacity on work
// it is rejecting). Worker-emitted "overloaded" rows pass through untouched,
// like every other error row. The SLO-feedback loop (burn rate over the
// worker round-trip histogram) works as in serve::service.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace meek::serve {

struct gateway_options {
    // Process workers: spawn `workers` copies of `worker_argv` (the command
    // should speak framed batches on stdio, i.e. meek_serve --framed).
    // Ignored when `endpoints` is non-empty.
    u32 workers = 2;
    std::vector<std::string> worker_argv;

    // Remote workers: framed socket endpoints, one worker each.
    std::vector<endpoint_address> endpoints;

    batch_limits limits;          // per-batch line/byte buffering caps
    admission_options admission;  // front-end admission control (default off;
                                  // the in-flight-jobs cap is inert here —
                                  // the gateway runs no jobs of its own)
    bool streaming = false;       // flush per settled request, not per batch
    // Nonempty clauses => after each batch the worker round-trip burn rate
    // against this spec feeds admission (tighten on violation, recover).
    obs::slo_spec slo_feedback;
};

struct gateway_stats {
    u64 requests = 0;          // lines sharded
    u64 rows = 0;              // rows merged (includes error rows)
    u64 errors = 0;            // error rows among them (worker + protocol errors)
    u64 worker_failures = 0;   // workers that died or desynced mid-batch
    u64 workers_respawned = 0; // failed workers revived between batches
    u64 shed = 0;              // lines settled locally with overloaded rows
    u64 stream_errors = 0;     // batches whose input stream died (in.bad())
    u64 client_aborts = 0;     // batches whose output stream died mid-response
};

class gateway {
public:
    // Spawns / connects the pool. A worker that cannot be brought up is
    // recorded as failed (revival is retried before every batch) rather than
    // aborting the gateway; `ok()` is false only when *no* worker came up.
    explicit gateway(const gateway_options& opts);
    ~gateway();

    bool ok() const { return alive_workers() > 0; }
    std::size_t worker_count() const { return workers_.size(); }
    std::size_t alive_workers() const;

    // Shard one batch across the pool and merge the responses: one NDJSON
    // row per (request, repeat) in global order, ready to print. No framing
    // and no batch caps apply: every element is a request slot.
    std::vector<std::string> evaluate(const std::vector<std::string>& lines,
                                      gateway_stats* stats = nullptr);

    // Stream plumbing mirroring serve::service: blank-line framed batches in,
    // merged rows out (plus a blank terminator per batch when `framed`).
    // Returns false when the connection is finished (input exhausted, input
    // stream error, or the client aborted mid-response).
    bool serve_batch(std::istream& in, std::ostream& out,
                     gateway_stats* stats = nullptr, bool framed = false);
    gateway_stats serve_stream(std::istream& in, std::ostream& out,
                               bool framed = false);

    const admission_controller& admission() const { return admission_; }
    admission_controller& admission() { return admission_; }

    // Pour the gateway's observability into `snap`: the session totals as
    // gateway.* counters, the per-sub-batch worker round-trip latency
    // histogram (write of the first request line to the end-of-batch marker,
    // per worker per batch), an alive-workers gauge, and per-worker
    // gateway.worker.<k>.error_rows / .respawns counters — error rows are
    // attributed to the worker that emitted (or, for synthesized rows, owed)
    // them, so one flaky worker is visible by index.
    void contribute_metrics(obs::metrics_snapshot& snap,
                            const gateway_stats& totals) const;

private:
    struct worker;

    // The one merge engine (see the header comment): request slots are
    // `lines` followed by `overflow` batch-cap overflow slots. `sink`
    // receives each request's merged rows the moment the global prefix up to
    // it has settled — possibly from a worker reader thread, serialized under
    // an internal mutex.
    using row_sink = std::function<void(std::vector<std::string>&&)>;
    void run_batch(const std::vector<std::string>& lines, u64 overflow,
                   gateway_stats* stats, const row_sink& sink);

    // Between-batches lifecycle pass: probe process workers for silent exits,
    // then respawn/reconnect every failed worker. Returns how many revived.
    std::size_t revive_workers();

    // Feed the latest worker round-trip window's burn rate into admission.
    void slo_feedback_tick();

    gateway_options opts_;
    std::vector<std::unique_ptr<worker>> workers_;
    admission_controller admission_;
    std::mutex slo_mutex_;
    obs::slo_window_monitor slo_monitor_;
    // Session error/row totals for the slo error_rate clause.
    u64 total_errors_ = 0;
    u64 total_rows_ = 0;
    // Worker sub-batch round-trip latency; recorded concurrently by the
    // per-worker fan-out threads, hence the atomic variant.
    obs::atomic_log_histogram worker_rt_ns_;
    // Trace minting sequence (batch n, line i => mint_trace_id(n, i)); the
    // gateway is the outermost entry point, so minted contexts are injected
    // into forwarded request lines. Only advanced while tracing is enabled.
    u64 batch_seq_ = 0;
};

}  // namespace meek::serve

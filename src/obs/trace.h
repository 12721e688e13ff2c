// Request-scoped tracing: per-request span trees across service → executor,
// recorded into per-thread ring buffers and exported as Chrome trace-event
// (catapult) JSON that Perfetto loads directly.
//
// Context model: a `trace_context` is (trace_id, span_id). The trace id names
// one request line's timeline end to end (minted by the service, or adopted
// from the wire's optional "trace" request field); the span id is the parent
// under which the holder should open child spans. A zero trace id means "no
// tracing": every span constructor degenerates to a no-op, so untraced hot
// paths pay one relaxed atomic load.
//
// Determinism: trace ids are minted as a pure function of (batch sequence,
// line index), and span ids as a pure function of (trace, parent, name, seq)
// — never of scheduling. Under the virtual clock (`trace_clock_mode::
// virtual_`) timestamps are per-timeline tick counters instead of wall time:
// causally ordered events in one timeline read ticks in causal order, so for
// a batch whose per-request spans form a chain, the exported trace is
// byte-identical at any thread/worker count. The wall clock is the default
// and reports real steady-clock nanoseconds.
//
// Recording: each thread lazily registers one bounded SPSC ring with the
// process-wide tracer. record() is lock-free (one release store past the
// slot write); a full ring drops the new span and counts it — never blocks,
// never crashes. Rings of exited threads are flushed into a bounded retired
// store so short-lived threads cannot lose spans. drain() — the cold path —
// consumes everything.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace meek::obs {

struct trace_context {
    u64 trace_id = 0;  // 0 => tracing inactive for this request
    u64 span_id = 0;   // parent for spans opened under this context
    explicit operator bool() const { return trace_id != 0; }
    bool operator==(const trace_context&) const = default;
};

// Span names are stored inline so a record stays POD (lock-free ring slots);
// longer names are truncated at record time.
inline constexpr std::size_t k_span_name_capacity = 23;

struct span_record {
    u64 trace_id = 0;
    u64 span_id = 0;
    u64 parent_span_id = 0;  // 0 => top-level span of its trace
    u64 begin_ns = 0;
    u64 end_ns = 0;
    char name[k_span_name_capacity + 1] = {};
    bool operator==(const span_record&) const = default;
};

// Nonzero trace id, a pure function of (batch sequence, line index).
u64 mint_trace_id(u64 batch_seq, u64 line_index);

// Nonzero span id, a pure function of its coordinates. `seq` disambiguates
// same-named siblings (repeat index, spec index, row index, ...).
u64 derive_span_id(u64 trace_id, u64 parent_span_id, std::string_view name,
                   u64 seq = 0);

enum class trace_clock_mode : u8 { wall, virtual_ };

class tracer {
public:
    // Process-wide instance (leaked on purpose: thread_local ring handles
    // flush into it during thread teardown, which may outlive static
    // destruction order).
    static tracer& instance();

    void enable(trace_clock_mode mode = trace_clock_mode::wall);
    void disable();
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    trace_clock_mode clock_mode() const { return mode_; }

    // Timestamp an event on `timeline`. Wall mode ignores the timeline and
    // returns steady-clock nanoseconds since the tracer was created; virtual
    // mode returns that timeline's next tick (1 tick == 1 µs), so causally
    // ordered reads on one timeline yield deterministic, increasing values.
    u64 now_ns(u64 timeline);

    // Record one completed span into the calling thread's ring (drop-counted
    // when full). No-op while disabled.
    void record(const span_record& rec);

    // Consume every recorded span (live rings + retired store). Cold path.
    std::vector<span_record> drain();

    u64 spans_recorded() const { return recorded_.load(std::memory_order_relaxed); }
    u64 spans_dropped() const { return dropped_.load(std::memory_order_relaxed); }

    // Capacity for rings created after the call (tests shrink it to force
    // overflow). Existing rings keep their size.
    void set_ring_capacity(std::size_t capacity);

    // Test hook: drop all recorded state, counters and virtual-clock ticks,
    // and restore the default ring capacity. Callers must be quiesced.
    void reset();

private:
    tracer() = default;

    struct thread_ring;
    friend struct ring_handle;
    thread_ring& ring_for_this_thread();
    void on_thread_exit(const std::shared_ptr<thread_ring>& ring);
    void consume_ring(thread_ring& ring, std::vector<span_record>* out);

    std::atomic<bool> enabled_{false};
    trace_clock_mode mode_ = trace_clock_mode::wall;
    std::atomic<u64> recorded_{0};
    std::atomic<u64> dropped_{0};

    mutable std::mutex mutex_;  // registry, retired store, virtual ticks
    std::vector<std::shared_ptr<thread_ring>> rings_;
    std::vector<span_record> retired_;
    std::unordered_map<u64, u64> virtual_ticks_;
    std::size_t ring_capacity_ = 16384;
    std::atomic<u64> generation_{0};  // bumped by reset() so stale rings re-register
};

// ------------------------------------------------------- ambient context ---
//
// The thread's current trace context, used for log correlation: log_message
// emitted inside an installed context carries a trace-id prefix. Installed
// with scoped_trace around request-scoped work (service line handling,
// executor job bodies).

const trace_context& current_trace();

class scoped_trace {
public:
    explicit scoped_trace(const trace_context& ctx);
    ~scoped_trace();
    scoped_trace(const scoped_trace&) = delete;
    scoped_trace& operator=(const scoped_trace&) = delete;

private:
    trace_context prev_;
};

// ------------------------------------------------------------ RAII spans ---

// One span under an explicit parent context; records on close/destruction.
// Inactive (free) when the parent has no trace id or tracing is disabled.
class trace_span {
public:
    trace_span() = default;
    // `timeline` overrides the virtual-clock timeline (default: the trace id)
    // for spans whose begin/end are taken on different threads.
    trace_span(const trace_context& parent, std::string_view name, u64 seq = 0,
               u64 timeline = 0);
    ~trace_span() { close(); }
    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

    bool active() const { return active_; }
    void close();  // record now (idempotent)

    // Context for children of this span: {trace_id, this span's id}.
    trace_context context() const;

private:
    bool active_ = false;
    span_record rec_;
    u64 timeline_ = 0;
};

// Per-job span recorder for batch executors: marks the post time at
// construction (on the submitting thread), the body start/end on the worker,
// and records three spans at finish — "job" [posted, finished] under the
// job's parent, with children "queue_wait" [posted, started] and "run"
// [started, finished]. Virtual-clock ticks run on the job's own span id, so
// concurrent jobs of one trace stay deterministic. Copyable so it can ride
// inside the task closure.
class job_span_recorder {
public:
    job_span_recorder() = default;
    job_span_recorder(const trace_context& parent, u64 seq);  // marks "posted"

    bool active() const { return active_; }
    void started();   // queue_wait end == run begin
    void finished();  // run end; records all three spans

    // Ambient context for the job body: {trace_id, job span id}.
    trace_context context() const;

private:
    bool active_ = false;
    trace_context parent_;
    u64 job_span_id_ = 0;
    u64 posted_ns_ = 0;
    u64 started_ns_ = 0;
};

// ---------------------------------------------------------------- export ---

// Chrome trace-event (catapult) JSON: complete "X" (duration) events in
// microseconds, one per span, grouped one trace per tid so Perfetto renders
// one row per request. Span coordinates ride in each event's "args" as hex
// strings (u64 does not survive a JS number). Deterministic: events sorted
// by (trace, begin, -end, span id), timestamps emitted as exact µs.frac.
std::string chrome_trace_json(std::vector<span_record> spans, u64 dropped_spans);

// Parse a chrome_trace_json document back into span records (trace_check and
// round-trip tests). Returns false and sets `error` on malformed input.
bool parse_chrome_trace_json(std::string_view text, std::vector<span_record>* out,
                             u64* dropped_spans = nullptr,
                             std::string* error = nullptr);

// Nesting invariants over a span set: begin <= end; span ids unique per
// trace; every nonzero parent resolves within its trace (unless
// `allow_external_parents` — requests that carried a client's "trace"
// context reference parent spans recorded in the client's process); a
// child's interval lies inside its parent's; parent chains are acyclic.
// Returns "" when all hold, else a description of the first violation.
std::string validate_span_nesting(const std::vector<span_record>& spans,
                                  bool allow_external_parents = false);

}  // namespace meek::obs

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "serve/json.h"

namespace meek::obs {
namespace {

// splitmix64 finalizer: the repo's standard cheap bijective mixer.
constexpr u64 mix64(u64 x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void copy_span_name(char (&dst)[k_span_name_capacity + 1], std::string_view name) {
    const std::size_t n = std::min(name.size(), k_span_name_capacity);
    std::memcpy(dst, name.data(), n);
    dst[n] = '\0';
}

std::string hex_id(u64 v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// Exact microseconds with nanosecond fraction, as a JSON number fragment.
std::string us_fixed(u64 ns) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

// Retired spans (flushed from exited threads) are bounded too: a long-lived
// process whose threads come and go must not grow without limit when nobody
// drains.
constexpr std::size_t k_retired_capacity = 262144;

thread_local trace_context t_current_trace;

u64 ambient_trace_id() { return t_current_trace.trace_id; }

void install_log_trace_hook() {
    static const bool installed = [] {
        set_log_trace_id_hook(&ambient_trace_id);
        return true;
    }();
    (void)installed;
}

}  // namespace

u64 mint_trace_id(u64 batch_seq, u64 line_index) {
    u64 h = mix64(batch_seq ^ 0x6d65656b74726163ULL);  // "meektrac"
    h = mix64(h ^ line_index);
    return h == 0 ? 1 : h;
}

u64 derive_span_id(u64 trace_id, u64 parent_span_id, std::string_view name, u64 seq) {
    u64 h = mix64(trace_id);
    h = mix64(h ^ parent_span_id);
    for (char c : name) h = mix64(h ^ static_cast<u64>(static_cast<u8>(c)));
    h = mix64(h ^ seq);
    return h == 0 ? 1 : h;
}

// ------------------------------------------------------------------ tracer ---

// SPSC ring: the owning thread is the only producer (advances `head`), drain /
// thread-exit flush — serialized by the tracer mutex — the only consumer
// (advances `consumed`). Slots are written before the release store of `head`,
// so a consumer that acquires `head` sees complete records.
struct tracer::thread_ring {
    explicit thread_ring(std::size_t capacity) : slots(capacity) {}
    std::vector<span_record> slots;
    std::atomic<u64> head{0};      // next write index (monotone)
    std::atomic<u64> consumed{0};  // next read index (monotone)
};

// Flushes this thread's unconsumed spans into the tracer when the thread
// exits (thread_local destructor). Named (non-anonymous) so the tracer's
// friend declaration reaches it.
struct ring_handle {
    std::shared_ptr<tracer::thread_ring> ring;
    u64 generation = 0;
    ~ring_handle() {
        if (ring) tracer::instance().on_thread_exit(ring);
    }
};

namespace {

// steady_clock anchor for wall-mode timestamps, fixed at first use.
std::chrono::steady_clock::time_point wall_base() {
    static const auto base = std::chrono::steady_clock::now();
    return base;
}

}  // namespace

tracer& tracer::instance() {
    // Leaked on purpose: ring_handle destructors run during thread teardown,
    // which static destruction must not race.
    static tracer* t = new tracer();
    return *t;
}

void tracer::enable(trace_clock_mode mode) {
    (void)wall_base();  // anchor before any span can ask for a timestamp
    mode_ = mode;
    enabled_.store(true, std::memory_order_release);
}

void tracer::disable() { enabled_.store(false, std::memory_order_release); }

u64 tracer::now_ns(u64 timeline) {
    if (mode_ == trace_clock_mode::wall) {
        return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - wall_base())
                                    .count());
    }
    // Virtual: one tick (1 µs) per causally ordered read on this timeline.
    std::lock_guard<std::mutex> lock(mutex_);
    return ++virtual_ticks_[timeline] * 1000;
}

tracer::thread_ring& tracer::ring_for_this_thread() {
    thread_local ring_handle handle;
    const u64 gen = generation_.load(std::memory_order_acquire);
    if (!handle.ring || handle.generation != gen) {
        if (handle.ring) on_thread_exit(handle.ring);  // stale after reset()
        std::lock_guard<std::mutex> lock(mutex_);
        handle.ring = std::make_shared<thread_ring>(ring_capacity_);
        handle.generation = gen;
        rings_.push_back(handle.ring);
    }
    return *handle.ring;
}

void tracer::record(const span_record& rec) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    thread_ring& ring = ring_for_this_thread();
    const u64 head = ring.head.load(std::memory_order_relaxed);
    const u64 consumed = ring.consumed.load(std::memory_order_acquire);
    if (head - consumed >= ring.slots.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // full: drop-new
        return;
    }
    ring.slots[head % ring.slots.size()] = rec;
    ring.head.store(head + 1, std::memory_order_release);
    recorded_.fetch_add(1, std::memory_order_relaxed);
}

void tracer::consume_ring(thread_ring& ring, std::vector<span_record>* out) {
    const u64 head = ring.head.load(std::memory_order_acquire);
    u64 consumed = ring.consumed.load(std::memory_order_relaxed);
    for (; consumed < head; ++consumed) {
        out->push_back(ring.slots[consumed % ring.slots.size()]);
    }
    ring.consumed.store(consumed, std::memory_order_release);
}

void tracer::on_thread_exit(const std::shared_ptr<thread_ring>& ring) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find(rings_.begin(), rings_.end(), ring);
    if (it == rings_.end()) return;  // ring predates a reset(): discard
    rings_.erase(it);
    std::vector<span_record> remaining;
    consume_ring(*ring, &remaining);
    for (span_record& rec : remaining) {
        if (retired_.size() >= k_retired_capacity) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        retired_.push_back(rec);
    }
}

std::vector<span_record> tracer::drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<span_record> out;
    out.swap(retired_);
    for (const auto& ring : rings_) consume_ring(*ring, &out);
    return out;
}

void tracer::set_ring_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = std::max<std::size_t>(capacity, 1);
}

void tracer::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.clear();  // live thread handles notice via the generation bump
    retired_.clear();
    virtual_ticks_.clear();
    ring_capacity_ = 16384;
    recorded_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
}

// --------------------------------------------------------- ambient context ---

const trace_context& current_trace() { return t_current_trace; }

scoped_trace::scoped_trace(const trace_context& ctx) : prev_(t_current_trace) {
    t_current_trace = ctx;
    install_log_trace_hook();
}

scoped_trace::~scoped_trace() { t_current_trace = prev_; }

// -------------------------------------------------------------- RAII spans ---

trace_span::trace_span(const trace_context& parent, std::string_view name, u64 seq,
                       u64 timeline) {
    tracer& t = tracer::instance();
    if (!parent || !t.enabled()) return;
    active_ = true;
    rec_.trace_id = parent.trace_id;
    rec_.parent_span_id = parent.span_id;
    rec_.span_id = derive_span_id(parent.trace_id, parent.span_id, name, seq);
    copy_span_name(rec_.name, name);
    timeline_ = timeline != 0 ? timeline : parent.trace_id;
    rec_.begin_ns = t.now_ns(timeline_);
}

void trace_span::close() {
    if (!active_) return;
    active_ = false;
    tracer& t = tracer::instance();
    rec_.end_ns = t.now_ns(timeline_);
    t.record(rec_);
}

trace_context trace_span::context() const {
    if (rec_.trace_id == 0) return {};
    return {rec_.trace_id, rec_.span_id};
}

job_span_recorder::job_span_recorder(const trace_context& parent, u64 seq) {
    tracer& t = tracer::instance();
    if (!parent || !t.enabled()) return;
    active_ = true;
    parent_ = parent;
    job_span_id_ = derive_span_id(parent.trace_id, parent.span_id, "job", seq);
    posted_ns_ = t.now_ns(job_span_id_);
}

void job_span_recorder::started() {
    if (!active_) return;
    started_ns_ = tracer::instance().now_ns(job_span_id_);
}

void job_span_recorder::finished() {
    if (!active_) return;
    active_ = false;
    tracer& t = tracer::instance();
    const u64 end_ns = t.now_ns(job_span_id_);

    span_record job;
    job.trace_id = parent_.trace_id;
    job.span_id = job_span_id_;
    job.parent_span_id = parent_.span_id;
    job.begin_ns = posted_ns_;
    job.end_ns = end_ns;
    copy_span_name(job.name, "job");
    t.record(job);

    span_record wait;
    wait.trace_id = parent_.trace_id;
    wait.span_id = derive_span_id(parent_.trace_id, job_span_id_, "queue_wait");
    wait.parent_span_id = job_span_id_;
    wait.begin_ns = posted_ns_;
    wait.end_ns = started_ns_;
    copy_span_name(wait.name, "queue_wait");
    t.record(wait);

    span_record run;
    run.trace_id = parent_.trace_id;
    run.span_id = derive_span_id(parent_.trace_id, job_span_id_, "run");
    run.parent_span_id = job_span_id_;
    run.begin_ns = started_ns_;
    run.end_ns = end_ns;
    copy_span_name(run.name, "run");
    t.record(run);
}

trace_context job_span_recorder::context() const {
    if (parent_.trace_id == 0) return {};
    return {parent_.trace_id, job_span_id_};
}

// ------------------------------------------------------------------ export ---

std::string chrome_trace_json(std::vector<span_record> spans, u64 dropped_spans) {
    std::sort(spans.begin(), spans.end(),
              [](const span_record& a, const span_record& b) {
                  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
                  if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                  if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;  // parents first
                  return a.span_id < b.span_id;
              });

    std::string out;
    out.reserve(64 + spans.size() * 192);
    out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"meek\","
           "\"span_count\":\"";
    out += std::to_string(spans.size());
    out += "\",\"dropped_spans\":\"";
    out += std::to_string(dropped_spans);
    out += "\"},\"traceEvents\":[\n";

    u64 tid = 0;
    u64 last_trace = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span_record& rec = spans[i];
        if (tid == 0 || rec.trace_id != last_trace) {
            ++tid;  // one Perfetto row per trace
            last_trace = rec.trace_id;
        }
        serve::json_object_writer args;
        args.field("trace_id", hex_id(rec.trace_id));
        args.field("span_id", hex_id(rec.span_id));
        args.field("parent_span_id", hex_id(rec.parent_span_id));

        serve::json_object_writer ev;
        ev.field("name", std::string_view(rec.name));
        ev.field("cat", "meek");
        ev.field("ph", "X");
        ev.field_raw("ts", us_fixed(rec.begin_ns));
        ev.field_raw("dur", us_fixed(rec.end_ns - rec.begin_ns));
        ev.field("pid", u64{1});
        ev.field("tid", tid);
        ev.field_raw("args", args.str());
        out += ev.str();
        out += i + 1 < spans.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

namespace {

bool parse_hex_id(const serve::json_value* v, u64* out) {
    if (v == nullptr || !v->is_string()) return false;
    const std::string& s = v->as_string();
    if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X')) return false;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s.c_str() + 2, &end, 16);
    if (end == nullptr || *end != '\0') return false;
    *out = parsed;
    return true;
}

bool fail(std::string* error, std::string msg) {
    if (error) *error = std::move(msg);
    return false;
}

}  // namespace

bool parse_chrome_trace_json(std::string_view text, std::vector<span_record>* out,
                             u64* dropped_spans, std::string* error) {
    out->clear();
    if (dropped_spans) *dropped_spans = 0;
    std::string parse_error;
    const auto doc = serve::json_parse(text, &parse_error);
    if (!doc) return fail(error, "trace json: " + parse_error);
    if (!doc->is_object()) return fail(error, "trace json: top level is not an object");

    if (const serve::json_value* other = doc->get("otherData");
        other != nullptr && other->is_object()) {
        if (const serve::json_value* d = other->get("dropped_spans");
            d != nullptr && d->is_string() && dropped_spans) {
            *dropped_spans = std::strtoull(d->as_string().c_str(), nullptr, 10);
        }
    }

    const serve::json_value* events = doc->get("traceEvents");
    if (events == nullptr || !events->is_array()) {
        return fail(error, "trace json: missing traceEvents array");
    }
    out->reserve(events->items().size());
    std::size_t index = 0;
    for (const serve::json_value& ev : events->items()) {
        const std::string at = "trace event " + std::to_string(index++);
        if (!ev.is_object()) return fail(error, at + ": not an object");
        const serve::json_value* ph = ev.get("ph");
        if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
            return fail(error, at + ": expected complete event (ph == \"X\")");
        }
        const serve::json_value* name = ev.get("name");
        if (name == nullptr || !name->is_string()) {
            return fail(error, at + ": missing name");
        }
        const serve::json_value* ts = ev.get("ts");
        const serve::json_value* dur = ev.get("dur");
        if (ts == nullptr || !ts->is_number() || dur == nullptr || !dur->is_number()) {
            return fail(error, at + ": missing ts/dur");
        }
        const serve::json_value* args = ev.get("args");
        if (args == nullptr || !args->is_object()) {
            return fail(error, at + ": missing args");
        }
        span_record rec;
        if (!parse_hex_id(args->get("trace_id"), &rec.trace_id) ||
            !parse_hex_id(args->get("span_id"), &rec.span_id) ||
            !parse_hex_id(args->get("parent_span_id"), &rec.parent_span_id)) {
            return fail(error, at + ": args need hex trace_id/span_id/parent_span_id");
        }
        // ts/dur are exact 3-decimal microseconds, so ×1000 lands on integers
        // well inside double precision.
        const double begin_us = ts->as_double();
        const double dur_us = dur->as_double();
        if (begin_us < 0 || dur_us < 0) return fail(error, at + ": negative ts/dur");
        rec.begin_ns = static_cast<u64>(begin_us * 1000.0 + 0.5);
        rec.end_ns = rec.begin_ns + static_cast<u64>(dur_us * 1000.0 + 0.5);
        copy_span_name(rec.name, name->as_string());
        out->push_back(rec);
    }
    return true;
}

std::string validate_span_nesting(const std::vector<span_record>& spans,
                                  bool allow_external_parents) {
    // Index spans by (trace, span id); duplicate ids within one trace are a
    // violation on their own.
    std::unordered_map<u64, std::unordered_map<u64, const span_record*>> by_trace;
    for (const span_record& rec : spans) {
        if (rec.trace_id == 0) return "span " + hex_id(rec.span_id) + ": zero trace id";
        if (rec.span_id == 0) {
            return "trace " + hex_id(rec.trace_id) + ": zero span id";
        }
        if (rec.begin_ns > rec.end_ns) {
            return "span " + hex_id(rec.span_id) + ": begin after end";
        }
        auto& trace = by_trace[rec.trace_id];
        if (!trace.emplace(rec.span_id, &rec).second) {
            return "trace " + hex_id(rec.trace_id) + ": duplicate span id " +
                   hex_id(rec.span_id);
        }
    }
    for (const span_record& rec : spans) {
        if (rec.parent_span_id == 0) continue;
        if (rec.parent_span_id == rec.span_id) {
            return "span " + hex_id(rec.span_id) + ": is its own parent";
        }
        const auto& trace = by_trace[rec.trace_id];
        const auto parent_it = trace.find(rec.parent_span_id);
        if (parent_it == trace.end()) {
            if (allow_external_parents) continue;  // parent lives in another journal
            return "span " + hex_id(rec.span_id) + ": orphan parent id " +
                   hex_id(rec.parent_span_id);
        }
        const span_record& parent = *parent_it->second;
        if (rec.begin_ns < parent.begin_ns || rec.end_ns > parent.end_ns) {
            return "span " + hex_id(rec.span_id) + ": escapes parent " +
                   hex_id(rec.parent_span_id) + " interval";
        }
        // Acyclic parent chain: more hops than spans in the trace is a cycle.
        const span_record* walk = &rec;
        std::size_t hops = 0;
        while (walk->parent_span_id != 0 && hops <= trace.size()) {
            const auto it = trace.find(walk->parent_span_id);
            if (it == trace.end()) break;
            walk = it->second;
            ++hops;
        }
        if (hops > trace.size()) {
            return "span " + hex_id(rec.span_id) + ": parent cycle";
        }
    }
    return {};
}

}  // namespace meek::obs

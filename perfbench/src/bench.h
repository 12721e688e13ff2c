// Shared pieces of the repo benchmark: the workload interface the harness runs
// in a closed loop, host timers (wall plus thread and process CPU), order
// statistics, and the trace bookkeeping that turns recorded spans into
// per-layer self times.
//
// The benchmark drives only the library's public functions, as a user
// would. Layers are timed from outside: spans and timers wrap the calls into
// each layer, and component counters come from the public stats() accessors.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace perfbench {

using meek::u32;
using meek::u64;

struct options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;       // self-test size: small inputs, same code paths
    u32 workers = 4;         // executor workers for campaign and serve
    std::string root = ".";  // repository root; serve reads tests/data there
    std::string trace_out;   // Chrome trace JSON written by traced runs
};

// Metric values by name. Units live in the tables in main.cpp, so every run
// prints the same names with the same units.
using metric_map = std::map<std::string, double>;

// Correctness bookkeeping: every checked operation is attempted, and one
// whose checks do not all hold is failed.
struct tally {
    u64 attempted = 0;
    u64 failed = 0;
    void add(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
};

// Logs `what` to stderr when `cond` is false; returns `cond`, so an
// operation can AND its conditions: ok &= require(...).
bool require(bool cond, const char* what);

// Total span duration by span name, in ms. `passes` is the number of traced
// passes the pass-level totals were summed over.
struct trace_totals {
    std::map<std::string, double> pass_ms;   // spans of the traced passes
    std::map<std::string, double> setup_ms;  // spans of the traced setup
    u64 passes = 0;
};

// One benchmark workload. The harness times setup() several times (setup_s),
// runs one untimed warm-up pass that also fixes the reference results, then
// runs pass() back to back for the measured time.
class workload {
public:
    virtual ~workload() = default;

    // Build the inputs (generated workloads, executor or service). Spans go
    // under `parent`, which is inactive unless tracing is on.
    virtual void setup(const meek::obs::trace_context& parent) = 0;

    // One pass over the fixed input set; returns the operations it completed
    // (simulated instructions, injected faults or response rows). Every
    // result is checked into `checks`.
    virtual u64 pass(const meek::obs::trace_context& parent) = 0;

    // Drop accumulated per-pass figures (between warm-up, untraced and
    // traced phases). The reference results survive.
    virtual void reset() = 0;

    // Extra host measurements run after each traced pass, outside its span.
    virtual void probe(const meek::obs::trace_context& parent) { (void)parent; }

    // The workload's own end-to-end figures over the passes since reset().
    virtual void own_metrics(metric_map& out) const = 0;

    // Per-layer figures from the traced passes.
    virtual void layer_metrics(const trace_totals& spans, metric_map& out) const = 0;

    // Digest of the deterministic results (identical for a seed at any
    // worker count).
    virtual u64 digest() const = 0;

    tally checks;

    // Fastest wall time seen for each timed call of a pass (index = the
    // call's position in the pass), over the passes since reset(). Other
    // tenants on a shared host only ever slow a call down, so the fastest
    // time estimates its undisturbed cost; the workloads' own wall-time
    // throughputs use it.
    std::vector<double> unit_best_s;
    void note_unit(std::size_t unit, double seconds) {
        if (unit_best_s.size() <= unit) unit_best_s.resize(unit + 1, 1e300);
        if (seconds < unit_best_s[unit]) unit_best_s[unit] = seconds;
    }
};

// ------------------------------------------------------------- host time ---

double wall_s();
double thread_cpu_s();
double process_cpu_s();
double peak_rss_mb();

// Moves the calling thread around the CPUs the process may use. On a shared
// VM each vCPU's speed depends on what the host runs beside it, for minutes
// at a time, and a lone unpinned thread stays on one vCPU, so one vCPU's
// neighbour would set a whole run. Single-threaded work that steps through
// the rotation costs the average over the vCPUs instead, as multi-threaded
// work does anyway. Placement changes how steady the timings are, never the
// results, so a refused affinity call is ignored.
class cpu_rotation {
public:
    cpu_rotation();
    // Runs the calling thread on the i-th CPU of the rotation (modulo).
    void step(u64 i) const;
    // Lets the calling thread run on every CPU again. Threads inherit their
    // creator's CPUs, so call this before starting any.
    void release() const;

private:
    std::vector<int> cpus_;
};

// Wall, calling-thread CPU and process CPU time of one region.
struct region_timer {
    double wall0 = wall_s();
    double thread0 = thread_cpu_s();
    double process0 = process_cpu_s();
    struct sample {
        double wall = 0.0;
        double thread_cpu = 0.0;
        double process_cpu = 0.0;
    };
    sample stop() const {
        return {wall_s() - wall0, thread_cpu_s() - thread0, process_cpu_s() - process0};
    }
};

// ------------------------------------------------------------ statistics ---

// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// FNV-1a accumulator for result digests.
struct digest_builder {
    u64 h = 0xcbf29ce484222325ULL;
    void add(u64 v);
    void add(std::string_view s);
};

// ---------------------------------------------------------------- traces ---

// Self time (duration minus the union of its children's intervals) of every
// span, summed by layer, in ms. A span's layer is the prefix before '.' for
// the benchmark's own spans ("meek.execute" -> meek); the library's span
// names map to their modules (service spans -> serve, executor job and
// queue_wait -> sched, executor run -> sim).
std::map<std::string, double> self_ms_by_layer(const std::vector<meek::obs::span_record>& spans);

// Sum of span durations by name, in ms, added into `totals`.
void add_span_ms(const std::vector<meek::obs::span_record>& spans,
                 std::map<std::string, double>& totals);

// Open a fresh top-level trace for the benchmark's own spans; `seq` keeps
// ids apart from the traces the service mints (batch sequence 0, 1, ...).
meek::obs::trace_context bench_root(u64 seq);

}  // namespace perfbench

// serve: closed loop, one client, one batch in flight. Each pass builds a
// fresh serve::service in streaming mode (the emission path the ROADMAP
// keeps) and feeds it the golden 50-line batch tests/data/serve_requests.ndjson
// through serve_batch. The simulations are 12k instructions each, so host
// time goes to generation, cache deduplication, parse/serialize and
// scheduling. Every pass's output must equal tests/data/serve_expected.ndjson
// byte for byte. The batch carries its own seeds, so --seed does not change
// this workload's input.
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <tuple>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "workloads.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace perfbench {
namespace {

using namespace meek;

// Output sink that notes when each row's newline arrives.
class row_clock final : public std::streambuf {
public:
    std::string text;
    std::vector<double> newline_s;

protected:
    int_type overflow(int_type c) override {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            const char ch = traits_type::to_char_type(c);
            text.push_back(ch);
            if (ch == '\n') newline_s.push_back(wall_s());
        }
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        text.append(s, static_cast<std::size_t>(n));
        for (std::streamsize i = 0; i < n; ++i) {
            if (s[i] == '\n') newline_s.push_back(wall_s());
        }
        return n;
    }
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

class serve_workload final : public workload {
public:
    explicit serve_workload(const options& opt) : root_(opt.root), workers_(opt.workers) {}

    void setup(const obs::trace_context&) override {
        batch_ = read_file(root_ + "/tests/data/serve_requests.ndjson");
        expected_ = read_file(root_ + "/tests/data/serve_expected.ndjson");
        expected_lines_ = split_lines(expected_);
        distinct_.clear();
        for (const std::string& line : split_lines(batch_)) {
            const serve::parsed_request p = serve::parse_request(line);
            if (!p.ok()) throw std::runtime_error("golden batch line does not parse: " + p.error);
            distinct_.insert({p.request.workload, p.request.instructions, p.request.seed});
        }
        serve::service warm(service_options());
    }

    u64 pass(const obs::trace_context& parent) override {
        const double t0 = wall_s();
        serve::service svc(service_options());
        std::istringstream in(batch_);
        row_clock sink;
        std::ostream out(&sink);
        const double handoff = wall_s();
        {
            obs::trace_span span(parent, "serve.batch");
            svc.serve_batch(in, out);
        }
        const double done = wall_s();
        for (const double t : sink.newline_s) row_latency_s_.push_back(t - handoff);
        check(sink.text);
        if (parent) note_stats(svc.stats_snapshot(), done - handoff);
        note_unit(0, wall_s() - t0);
        return sink.newline_s.size();
    }

    void reset() override {
        unit_best_s.clear();
        row_latency_s_.clear();
        stats_ = {};
    }

    // The generation a pass pays for: each fresh service generates every
    // distinct (profile, length, seed) of the batch once.
    void probe(const obs::trace_context& parent) override {
        std::size_t k = 0;
        for (const auto& [name, instructions, seed] : distinct_) {
            const workload_profile* profile = find_profile(name);
            if (profile == nullptr) continue;
            obs::trace_span span(parent, "workloads.gen", k++);
            generate_workload(*profile, instructions, seed);
        }
    }

    void own_metrics(metric_map& out) const override {
        out["rows_per_s"] = static_cast<double>(expected_lines_.size()) / unit_best_s.at(0);
        std::vector<double> ms;
        for (const double s : row_latency_s_) ms.push_back(s * 1e3);
        out["row_p50_ms"] = quantile(ms, 0.50);
        out["row_p99_ms"] = quantile(ms, 0.99);
    }

    void layer_metrics(const trace_totals& spans, metric_map& out) const override {
        const double passes = static_cast<double>(spans.passes);
        const auto gen = spans.pass_ms.find("workloads.gen");
        auto rate = [](u64 hits, u64 misses) {
            return hits + misses == 0 ? 0.0
                                      : static_cast<double>(hits) / static_cast<double>(hits + misses);
        };
        auto ns_to = [](u64 ns, double scale) { return static_cast<double>(ns) * scale; };
        out["workloads.gen_ms"] = gen == spans.pass_ms.end() ? 0.0 : gen->second / passes;
        out["serve.parse_us_p50"] = ns_to(stats_.parse.p50(), 1e-3);
        out["serve.resolve_us_p50"] = ns_to(stats_.resolve.p50(), 1e-3);
        // Streaming serve_batch dispatches each job through the executor, so
        // its execute stage is the executor's per-job run time.
        out["serve.execute_ms_p50"] = ns_to(stats_.run.p50(), 1e-6);
        out["serve.serialize_us_p50"] = ns_to(stats_.serialize.p50(), 1e-3);
        out["serve.workload_hit_rate"] = rate(stats_.workload_hits, stats_.workload_misses);
        out["serve.outcome_hit_rate"] = rate(stats_.outcome_hits, stats_.outcome_misses);
        out["sched.busy_frac"] = ns_to(stats_.run.sum(), 1e-9) /
                                 (stats_.batch_wall_s * static_cast<double>(workers_));
        out["sched.queue_wait_ms_p99"] = ns_to(stats_.queue_wait.p99(), 1e-6);
        out["sched.job_ms_p50"] = ns_to(stats_.run.p50(), 1e-6);
        out["sched.steals"] = static_cast<double>(stats_.steals) / passes;
    }

    u64 digest() const override {
        digest_builder h;
        h.add(reference_);
        return h.h;
    }

private:
    serve::service_options service_options() const {
        serve::service_options o;
        o.threads = workers_;
        o.streaming = true;
        return o;
    }

    // One operation per expected row: it fails when the row is missing or
    // differs from the golden row. Extra rows fail one more operation.
    void check(const std::string& text) {
        if (text == expected_) {
            checks.attempted += expected_lines_.size();
        } else {
            const std::vector<std::string> got = split_lines(text);
            for (std::size_t i = 0; i < expected_lines_.size(); ++i) {
                checks.add(require(i < got.size() && got[i] == expected_lines_[i],
                                   "serve: row differs from serve_expected.ndjson"));
            }
            if (got.size() > expected_lines_.size()) {
                checks.add(require(false, "serve: more rows than serve_expected.ndjson"));
            }
        }
        if (reference_.empty()) reference_ = text;
    }

    void note_stats(const obs::metrics_snapshot& snap, double batch_wall_s) {
        auto merge = [&](obs::log_histogram& into, const char* name) {
            if (const obs::log_histogram* h = snap.histogram(name)) into.merge(*h);
        };
        auto counter = [&](const char* name) {
            const u64* v = snap.counter_value(name);
            return v == nullptr ? u64{0} : *v;
        };
        merge(stats_.parse, "service.parse_ns");
        merge(stats_.resolve, "service.resolve_ns");
        merge(stats_.serialize, "service.serialize_ns");
        merge(stats_.run, "pool.run_ns");
        merge(stats_.queue_wait, "pool.queue_wait_ns");
        stats_.workload_hits += counter("workload_cache.hits");
        stats_.workload_misses += counter("workload_cache.misses");
        stats_.outcome_hits += counter("outcome_cache.hits");
        stats_.outcome_misses += counter("outcome_cache.misses");
        stats_.steals += counter("pool.steals");
        stats_.batch_wall_s += batch_wall_s;
    }

    // Service counters summed over the traced passes.
    struct layer_stats {
        obs::log_histogram parse, resolve, serialize, run, queue_wait;
        u64 workload_hits = 0, workload_misses = 0;
        u64 outcome_hits = 0, outcome_misses = 0;
        u64 steals = 0;
        double batch_wall_s = 0.0;
    };

    std::string root_;
    u32 workers_;
    std::string batch_;
    std::string expected_;
    std::vector<std::string> expected_lines_;
    std::set<std::tuple<std::string, u64, u64>> distinct_;  // (profile, length, seed)
    std::string reference_;
    std::vector<double> row_latency_s_;
    layer_stats stats_;
};

}  // namespace

std::unique_ptr<workload> make_serve(const options& opt) {
    return std::make_unique<serve_workload>(opt);
}

}  // namespace perfbench

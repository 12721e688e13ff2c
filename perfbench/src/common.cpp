#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

bool require(bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    return cond;
}

double wall_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double clock_s(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

void run_on(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

cpu_rotation::cpu_rotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
}

void cpu_rotation::step(u64 i) const {
    if (!cpus_.empty()) run_on({cpus_[i % cpus_.size()]});
}

void cpu_rotation::release() const { run_on(cpus_); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

void digest_builder::add(u64 v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

void digest_builder::add(std::string_view s) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    add(static_cast<u64>(s.size()));
}

namespace {

std::string span_layer(std::string_view name) {
    if (const auto dot = name.find('.'); dot != std::string_view::npos) {
        return std::string(name.substr(0, dot));
    }
    if (name == "request" || name == "parse" || name == "resolve" || name == "serialize") {
        return "serve";
    }
    if (name == "job" || name == "queue_wait") return "sched";
    if (name == "run") return "sim";
    return "other";
}

}  // namespace

std::map<std::string, double> self_ms_by_layer(
    const std::vector<meek::obs::span_record>& spans) {
    // Children of each (trace, span) pair.
    struct key_hash {
        std::size_t operator()(const std::pair<u64, u64>& k) const {
            return std::hash<u64>{}(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
        }
    };
    std::unordered_map<std::pair<u64, u64>, std::vector<const meek::obs::span_record*>,
                       key_hash>
        children;
    for (const auto& s : spans) {
        if (s.parent_span_id != 0) children[{s.trace_id, s.parent_span_id}].push_back(&s);
    }
    std::map<std::string, double> out;
    for (const auto& s : spans) {
        u64 covered = 0;
        if (auto it = children.find({s.trace_id, s.span_id}); it != children.end()) {
            std::vector<std::pair<u64, u64>> iv;
            for (const auto* c : it->second) {
                const u64 b = std::max(c->begin_ns, s.begin_ns);
                const u64 e = std::min(c->end_ns, s.end_ns);
                if (e > b) iv.emplace_back(b, e);
            }
            std::sort(iv.begin(), iv.end());
            u64 cur_b = 0, cur_e = 0;
            bool open = false;
            for (const auto& [b, e] : iv) {
                if (open && b <= cur_e) {
                    cur_e = std::max(cur_e, e);
                    continue;
                }
                if (open) covered += cur_e - cur_b;
                cur_b = b;
                cur_e = e;
                open = true;
            }
            if (open) covered += cur_e - cur_b;
        }
        const u64 dur = s.end_ns - s.begin_ns;
        out[span_layer(s.name)] += static_cast<double>(dur - std::min(dur, covered)) * 1e-6;
    }
    return out;
}

void add_span_ms(const std::vector<meek::obs::span_record>& spans,
                 std::map<std::string, double>& totals) {
    for (const auto& s : spans) {
        totals[s.name] += static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
    }
}

meek::obs::trace_context bench_root(u64 seq) {
    return {meek::obs::mint_trace_id(u64{1} << 40 | seq, 0), 0};
}

}  // namespace perfbench

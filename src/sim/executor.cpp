#include "sim/executor.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

namespace meek::sim {

u64 derive_stream_seed(u64 base_seed, u64 stream_index) {
    // splitmix64 over the pair; the golden-ratio stride separates adjacent
    // indices far enough that xoshiro's splitmix seeding stays uncorrelated.
    u64 z = base_seed + (stream_index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

u32 resolve_thread_count(u32 requested) {
    if (requested > k_max_threads) {
        throw std::invalid_argument("thread count " + std::to_string(requested) +
                                    " above " + std::to_string(k_max_threads));
    }
    if (requested > 0) return requested;
    if (const char* env = std::getenv("MEEK_THREADS")) {
        const std::string_view text(env);
        u32 v = 0;
        const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
        if (ec == std::errc{} && end == text.data() + text.size() && v >= 1 &&
            v <= k_max_threads) {
            return v;
        }
    }
    return std::clamp<u32>(std::thread::hardware_concurrency(), 1, k_max_threads);
}

executor::executor(u32 num_threads) : pool_(resolve_thread_count(num_threads)) {}

executor_timing executor::timing() const {
    // One code path for the legacy summary and the percentile view: both are
    // projections of the run-time histogram. count/sum/min/max are exact
    // (not bucket representatives), so min <= mean <= max and total >= max
    // hold exactly as they did for the old mutexed accumulator.
    const obs::log_histogram h = run_ns_.snapshot();
    executor_timing t;
    t.jobs = h.count();
    t.min_ms = static_cast<double>(h.min()) / 1e6;
    t.mean_ms = h.mean() / 1e6;
    t.max_ms = static_cast<double>(h.max()) / 1e6;
    t.total_ms = static_cast<double>(h.sum()) / 1e6;
    return t;
}

void executor::reset_timing() {
    run_ns_.reset();
    queue_wait_ns_.reset();
}

void executor::note_job(std::chrono::steady_clock::time_point posted,
                        std::chrono::steady_clock::time_point started,
                        std::chrono::steady_clock::time_point finished) {
    const auto ns = [](auto from, auto to) -> u64 {
        const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
        return d.count() > 0 ? static_cast<u64>(d.count()) : 0;
    };
    queue_wait_ns_.record(ns(posted, started));
    run_ns_.record(ns(started, finished));
}

void executor::contribute_metrics(obs::metrics_snapshot& snap,
                                  std::string_view prefix) const {
    const std::string p(prefix);
    snap.add_histogram(p + ".queue_wait_ns", queue_wait_ns_.snapshot());
    snap.add_histogram(p + ".run_ns", run_ns_.snapshot());
    const sched::pool_stats s = pool_.stats();
    snap.set_counter(p + ".executed", s.executed);
    snap.set_gauge(p + ".threads", pool_.size());
    snap.set_gauge(p + ".busy_us", static_cast<u64>(s.busy_ms * 1000.0));
}

}  // namespace meek::sim

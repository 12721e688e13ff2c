// campaign: run_fault_campaign(soc, prog, cfg, executor) with core-side
// faults on three PARSEC profiles of the Fig. 7 set — blackscholes (FP),
// ferret (the paper's worst detection latency) and dedup (integer, 4 MB
// working set). Each call has four shards, one per worker, so every worker
// is busy; calls run one after another, as fig7 runs them. This exercises
// fault, sched, and the SoC with packet and error hooks attached plus the
// failed-segment path.
#include <memory>
#include <vector>

#include "common/clock.h"
#include "fault/campaign.h"
#include "sim/executor.h"
#include "sim/scenario.h"
#include "workloads.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace perfbench {
namespace {

using namespace meek;

constexpr const char* k_profiles[] = {"blackscholes", "ferret", "dedup"};
constexpr std::size_t k_num_profiles = std::size(k_profiles);
constexpr u32 k_shards = 4;

bool same_record(const fault_record& a, const fault_record& b) {
    return a.inject_seq == b.inject_seq && a.inject_big_cycle == b.inject_big_cycle &&
           a.detect_big_cycle == b.detect_big_cycle && a.detected == b.detected &&
           a.kind == b.kind && a.corrupted_kind == b.corrupted_kind;
}

class campaign_workload final : public workload {
public:
    explicit campaign_workload(const options& opt)
        : seed_(opt.seed), workers_(opt.workers), per_shard_(opt.tiny ? 5 : 50) {}

    void setup(const obs::trace_context& parent) override {
        ex_.reset();
        programs_.clear();
        for (std::size_t k = 0; k < k_num_profiles; ++k) {
            const fault_campaign_config fc = config(k);
            // Every shard replays the program from its start up to its
            // instruction budget; generate with headroom over that budget.
            const u64 budget = fc.shard_warmup_instructions +
                               u64{fc.faults_per_shard} * (fc.gap_instructions + 2'000) +
                               fc.detection_horizon + 50'000;
            obs::trace_span span(parent, "workloads.gen", k);
            programs_.push_back(std::make_unique<const generated_workload>(
                generate_workload(*find_profile(k_profiles[k]), budget * 2, seed_)));
        }
        ex_ = std::make_unique<sim::executor>(workers_);
    }

    u64 pass(const obs::trace_context& parent) override {
        u64 ops = 0;
        for (std::size_t k = 0; k < k_num_profiles; ++k) {
            const fault_campaign_config fc = config(k);
            const double t0 = wall_s();
            campaign_result r;
            {
                obs::trace_span span(parent, "fault.campaign", k);
                r = run_fault_campaign(soc_, programs_[k]->prog, fc, *ex_);
            }
            note_unit(k, wall_s() - t0);
            check(k, fc, r);
            ops += r.faults.size();
        }
        return ops;
    }

    void reset() override {
        unit_best_s.clear();
        ex_->reset_timing();
        ex_->reset_scheduler_stats();
    }

    void own_metrics(metric_map& out) const override {
        const clock_domain big_clock(soc_.big.freq_mhz);
        std::vector<double> latency_ns;
        u64 injected = 0;
        for (const auto& records : refs_) {
            injected += records.size();
            for (const fault_record& f : records) {
                if (f.detected) {
                    latency_ns.push_back(
                        big_clock.cycles_to_ns(f.detect_big_cycle - f.inject_big_cycle));
                }
            }
        }
        double best_s = 0.0;
        for (const double s : unit_best_s) best_s += s;
        out["faults_per_s"] = static_cast<double>(injected) / best_s;
        out["detect_p50_ns"] = quantile(latency_ns, 0.50);
        out["detect_p99_ns"] = quantile(latency_ns, 0.99);
        out["detected_frac"] =
            static_cast<double>(latency_ns.size()) / static_cast<double>(injected);
    }

    void layer_metrics(const trace_totals& spans, metric_map& out) const override {
        const double passes = static_cast<double>(spans.passes);
        const auto campaign = spans.pass_ms.find("fault.campaign");
        const double campaign_ms = campaign == spans.pass_ms.end() ? 0.0 : campaign->second;
        const auto gen = spans.setup_ms.find("workloads.gen");
        const obs::log_histogram run = ex_->run_time_histogram();
        const obs::log_histogram wait = ex_->queue_wait_histogram();
        u64 faults_per_pass = 0;
        for (const auto& records : refs_) faults_per_pass += records.size();

        out["workloads.gen_ms"] = gen == spans.setup_ms.end() ? 0.0 : gen->second;
        out["fault.host_ms_per_fault"] =
            campaign_ms / (static_cast<double>(faults_per_pass) * passes);
        out["fault.shard_ms_p50"] = static_cast<double>(run.p50()) * 1e-6;
        out["fault.shard_ms_max"] = static_cast<double>(run.max()) * 1e-6;
        out["sched.busy_frac"] = static_cast<double>(run.sum()) * 1e-6 /
                                 (campaign_ms * static_cast<double>(ex_->num_threads()));
        out["sched.queue_wait_ms_p99"] = static_cast<double>(wait.p99()) * 1e-6;
        out["sched.job_ms_p50"] = static_cast<double>(run.p50()) * 1e-6;
        out["sched.steals"] =
            static_cast<double>(ex_->scheduler_stats().steals()) / passes;
    }

    u64 digest() const override {
        digest_builder h;
        for (const auto& records : refs_) {
            for (const fault_record& f : records) {
                h.add(f.inject_seq);
                h.add(f.inject_big_cycle);
                h.add(f.detect_big_cycle);
                h.add(u64{f.detected});
                h.add(static_cast<u64>(f.kind));
                h.add(static_cast<u64>(f.corrupted_kind));
            }
        }
        return h.h;
    }

private:
    fault_campaign_config config(std::size_t k) const {
        fault_campaign_config fc;
        fc.num_faults = k_shards * per_shard_;
        fc.faults_per_shard = per_shard_;
        fc.core_side_fault = true;
        fc.seed = sim::derive_stream_seed(seed_, k);
        return fc;
    }

    // One operation per configured fault: it fails when its record is
    // missing or differs from the warm-up pass's, and every fault of a call
    // fails when detected + masked != injected.
    void check(std::size_t k, const fault_campaign_config& fc, const campaign_result& r) {
        if (refs_.size() <= k) refs_.push_back(r.faults);
        const std::vector<fault_record>& ref = refs_[k];
        const bool accounted = require(r.detected + r.masked == r.faults.size(),
                                       "campaign: detected + masked != injected");
        require(r.faults.size() == fc.num_faults, "campaign: fewer faults injected than configured");
        u64 bad = 0;
        for (u32 i = 0; i < fc.num_faults; ++i) {
            if (!accounted || i >= r.faults.size() || i >= ref.size() ||
                !same_record(r.faults[i], ref[i])) {
                ++bad;
            }
        }
        if (accounted) require(bad == 0, "campaign: fault records differ from the first pass");
        checks.attempted += fc.num_faults;
        checks.failed += bad;
    }

    u64 seed_;
    u32 workers_;
    u32 per_shard_;
    soc_config soc_ = sim::meek_scenario(4).soc();
    std::vector<std::unique_ptr<const generated_workload>> programs_;
    std::unique_ptr<sim::executor> ex_;
    std::vector<std::vector<fault_record>> refs_;
};

}  // namespace

std::unique_ptr<workload> make_campaign(const options& opt) {
    return std::make_unique<campaign_workload>(opt);
}

}  // namespace perfbench

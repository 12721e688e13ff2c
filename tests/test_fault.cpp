// Fault-campaign tests: detection guarantees per target class
// (parameterized), latency sanity, masking bounds, report integrity, shard
// checkpoint/resume, early run end, and golden records.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fault/campaign.h"
#include "sim/executor.h"
#include "workloads/generator.h"

namespace meek {
namespace {

campaign_result small_campaign(fault_target target, u32 faults = 25,
                               const char* workload = "hmmer") {
    fault_campaign_config fc;
    fc.num_faults = faults;
    fc.target = target;
    fc.seed = 21;
    const u64 needed = u64{faults} * (fc.gap_instructions + 2000) + 50'000;
    const generated_workload wl = generate_workload(*find_profile(workload), needed, 13);
    return run_fault_campaign(soc_config{}, wl.prog, fc);
}

class campaign_targets : public ::testing::TestWithParam<fault_target> {};

TEST_P(campaign_targets, faults_are_injected_and_detected) {
    const campaign_result r = small_campaign(GetParam());
    EXPECT_GE(r.faults.size(), 20u);
    EXPECT_GT(r.detection_rate(), 0.9);
    for (const fault_record& f : r.faults) {
        if (!f.detected) {
            EXPECT_FALSE(f.latency_cycles().has_value())
                << "masked faults must not report a latency";
            continue;
        }
        EXPECT_GE(f.detect_big_cycle, f.inject_big_cycle);
        // Sub-10us detection at 3.2 GHz.
        ASSERT_TRUE(f.latency_cycles().has_value());
        EXPECT_LT(*f.latency_cycles(), 32'000.0);
    }
}

INSTANTIATE_TEST_SUITE_P(targets, campaign_targets,
                         ::testing::Values(fault_target::runtime_data,
                                           fault_target::runtime_addr,
                                           fault_target::status_word,
                                           fault_target::any),
                         [](const auto& info) {
                             switch (info.param) {
                                 case fault_target::runtime_data: return "data";
                                 case fault_target::runtime_addr: return "addr";
                                 case fault_target::status_word: return "status";
                                 default: return "any";
                             }
                         });

TEST(campaign, address_faults_always_detected) {
    // Address corruption breaks the LSL compare directly: no masking path.
    const campaign_result r = small_campaign(fault_target::runtime_addr, 30);
    EXPECT_EQ(r.masked, 0u);
    EXPECT_EQ(r.detected, r.faults.size());
}

TEST(campaign, injections_respect_gap) {
    const campaign_result r = small_campaign(fault_target::any, 20);
    for (std::size_t i = 1; i < r.faults.size(); ++i) {
        EXPECT_GE(r.faults[i].inject_seq,
                  r.faults[i - 1].inject_seq + 6000u);
    }
}

TEST(campaign, latency_stats_match_records) {
    const campaign_result r = small_campaign(fault_target::runtime_addr, 20);
    ASSERT_GT(r.detected, 0u);
    EXPECT_EQ(r.latency_ns.count(), r.detected);
    EXPECT_GE(r.latency_ns.min(), 0.0);
    EXPECT_GE(r.latency_ns.max(), r.latency_ns.mean());
}

TEST(campaign, transit_faults_caught_by_parity_immediately) {
    fault_campaign_config fc;
    fc.num_faults = 15;
    fc.target = fault_target::runtime_data;
    fc.core_side_fault = false;  // do NOT recompute parity: transit fault
    fc.seed = 5;
    const u64 needed = 15 * (fc.gap_instructions + 2000) + 50'000;
    const generated_workload wl = generate_workload(*find_profile("hmmer"), needed, 13);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc);
    u64 parity_hits = 0;
    for (const fault_record& f : r.faults) {
        parity_hits += f.detected && f.kind == check_error_kind::parity_fault;
    }
    // Load-data flips without parity fixup are caught by the LSL parity check.
    EXPECT_GT(parity_hits, 0u);
}

TEST(campaign, deterministic_given_seed) {
    const campaign_result a = small_campaign(fault_target::any, 10);
    const campaign_result b = small_campaign(fault_target::any, 10);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].inject_seq, b.faults[i].inject_seq);
        EXPECT_EQ(a.faults[i].detect_big_cycle, b.faults[i].detect_big_cycle);
    }
}

TEST(campaign, histogram_covers_detected_faults) {
    const campaign_result r = small_campaign(fault_target::any, 25);
    const histogram h = latency_histogram(r, 3200.0, 16);
    EXPECT_EQ(h.total(), r.detected);
}

// Regression for the masked-fault averaging audit: every latency aggregate
// must be computed over detected faults only. A masked fault carries no
// latency, and folding it in as zero would drag every mean/percentile down —
// exactly the bug latency_cycles() returning optional is meant to prevent.
TEST(campaign, masked_faults_never_enter_latency_aggregates) {
    campaign_result r;
    fault_record fast;
    fast.detected = true;
    fast.inject_big_cycle = 1'000;
    fast.detect_big_cycle = 1'320;  // 320 cycles = 100 ns at 3.2 GHz
    fault_record slow;
    slow.detected = true;
    slow.inject_big_cycle = 2'000;
    slow.detect_big_cycle = 3'280;  // 1280 cycles = 400 ns
    fault_record masked;
    masked.detected = false;
    masked.inject_big_cycle = 4'000;  // detect cycle left at 0: no latency
    r.faults = {fast, masked, slow, masked};
    r.detected = 2;
    r.masked = 2;

    EXPECT_FALSE(masked.latency_cycles().has_value());
    ASSERT_TRUE(fast.latency_cycles().has_value());
    EXPECT_DOUBLE_EQ(*fast.latency_cycles(), 320.0);

    const histogram h = latency_histogram(r, 3200.0, 16);
    EXPECT_EQ(h.total(), 2u) << "only the detected faults are binned";
    EXPECT_DOUBLE_EQ(h.stat().mean(), 250.0)
        << "mean over detected latencies (100, 400) ns — a masked-as-zero bug "
           "would read 125";
    EXPECT_DOUBLE_EQ(h.stat().min(), 100.0)
        << "a masked-as-zero bug would read 0";
}

// --------------------------------------------------------------- resume ---

struct resume_fixture {
    fault_campaign_config fc;
    generated_workload wl;
    soc_config soc;

    explicit resume_fixture(const std::string& dir) {
        fc.num_faults = 20;
        fc.faults_per_shard = 5;  // 4 shards
        fc.seed = 21;
        fc.checkpoint_dir = dir;
        const u64 needed = u64{fc.num_faults} * (fc.gap_instructions + 2000) + 50'000;
        wl = generate_workload(*find_profile("hmmer"), needed, 13);
    }
};

void expect_same_records(const campaign_result& a, const campaign_result& b) {
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.masked, b.masked);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].inject_seq, b.faults[i].inject_seq) << i;
        EXPECT_EQ(a.faults[i].inject_big_cycle, b.faults[i].inject_big_cycle) << i;
        EXPECT_EQ(a.faults[i].detect_big_cycle, b.faults[i].detect_big_cycle) << i;
        EXPECT_EQ(a.faults[i].detected, b.faults[i].detected) << i;
    }
    EXPECT_EQ(a.latency_ns.count(), b.latency_ns.count());
    EXPECT_DOUBLE_EQ(a.latency_ns.mean(), b.latency_ns.mean());
    EXPECT_DOUBLE_EQ(a.latency_ns.max(), b.latency_ns.max());
}

TEST(campaign_resume, checkpointed_rerun_is_bit_identical_and_skips_simulation) {
    const std::string dir = ::testing::TempDir() + "meek_resume_identical";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);
    sim::executor ex(2);

    fault_campaign_config no_ckpt = fx.fc;
    no_ckpt.checkpoint_dir.clear();
    const campaign_result plain = run_fault_campaign(fx.soc, fx.wl.prog, no_ckpt, ex);

    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    EXPECT_EQ(first.resumed_shards, 0u);
    expect_same_records(plain, first);
    EXPECT_GT(first.simulated_instructions, 0u);
    EXPECT_EQ(first.simulated_instructions, plain.simulated_instructions);
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator{}),
              4) << "one checkpoint per shard";

    const campaign_result second = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    EXPECT_EQ(second.resumed_shards, 4u) << "all shards must come from checkpoints";
    expect_same_records(first, second);
    EXPECT_EQ(second.simulated_instructions, 0u) << "resumed shards simulate nothing";
}

TEST(campaign_resume, each_shard_stops_below_its_instruction_budget) {
    const std::string dir = ::testing::TempDir() + "meek_resume_budget";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);  // 20 faults over 4 shards of 5
    sim::executor ex(2);

    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    ASSERT_EQ(first.faults.size(), 20u);

    // The budget a 5-fault shard is capped at; the run must end earlier, when
    // its last fault settles.
    const u64 budget = fx.fc.shard_warmup_instructions +
                       u64{fx.fc.faults_per_shard} * (fx.fc.gap_instructions + 2'000) +
                       fx.fc.detection_horizon + 50'000;
    // Dropping one shard's checkpoint re-simulates exactly that shard, so the
    // rerun's instruction count is that shard's alone.
    u64 sum = 0;
    for (std::size_t shard = 0; shard < 4; ++shard) {
        ASSERT_TRUE(std::filesystem::remove(dir + "/shard_" + std::to_string(shard) +
                                            ".ckpt"));
        const campaign_result rerun = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
        EXPECT_EQ(rerun.resumed_shards, 3u);
        expect_same_records(first, rerun);
        EXPECT_GT(rerun.simulated_instructions, 0u) << shard;
        EXPECT_LT(rerun.simulated_instructions, budget) << shard;
        sum += rerun.simulated_instructions;
    }
    EXPECT_EQ(sum, first.simulated_instructions);
}

TEST(campaign_resume, partial_checkpoints_resume_only_missing_shards) {
    const std::string dir = ::testing::TempDir() + "meek_resume_partial";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);
    sim::executor ex(2);

    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    // Simulate a killed campaign: drop two of the four shard files.
    ASSERT_TRUE(std::filesystem::remove(dir + "/shard_1.ckpt"));
    ASSERT_TRUE(std::filesystem::remove(dir + "/shard_3.ckpt"));

    const campaign_result resumed = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    EXPECT_EQ(resumed.resumed_shards, 2u);
    expect_same_records(first, resumed);
}

TEST(campaign_resume, checkpoints_from_a_different_config_are_ignored) {
    const std::string dir = ::testing::TempDir() + "meek_resume_mismatch";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);
    sim::executor ex(2);

    run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);

    // Same directory, different campaign seed: every header mismatches, so
    // every shard re-runs (and the files are rewritten for the new config).
    fault_campaign_config other = fx.fc;
    other.seed = 22;
    const campaign_result rerun = run_fault_campaign(fx.soc, fx.wl.prog, other, ex);
    EXPECT_EQ(rerun.resumed_shards, 0u);

    fault_campaign_config other_no_ckpt = other;
    other_no_ckpt.checkpoint_dir.clear();
    expect_same_records(run_fault_campaign(fx.soc, fx.wl.prog, other_no_ckpt, ex),
                        rerun);
}

TEST(campaign_resume, checkpoints_from_a_different_workload_or_soc_are_ignored) {
    const std::string dir = ::testing::TempDir() + "meek_resume_context";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);
    sim::executor ex(2);

    run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);

    // Identical campaign config, different program: the context fingerprint
    // mismatches, so nothing is resumed.
    const u64 needed =
        u64{fx.fc.num_faults} * (fx.fc.gap_instructions + 2000) + 50'000;
    const generated_workload other_wl =
        generate_workload(*find_profile("mcf"), needed, 13);
    EXPECT_NE(campaign_context_fingerprint(fx.soc, fx.wl.prog),
              campaign_context_fingerprint(fx.soc, other_wl.prog));
    const campaign_result other =
        run_fault_campaign(fx.soc, other_wl.prog, fx.fc, ex);
    EXPECT_EQ(other.resumed_shards, 0u);

    // Same program again, different SoC: also re-run.
    soc_config axi = fx.soc;
    axi.fabric.kind = fabric_kind::axi_interconnect;
    EXPECT_NE(campaign_context_fingerprint(fx.soc, fx.wl.prog),
              campaign_context_fingerprint(axi, fx.wl.prog));
    const campaign_result other_soc =
        run_fault_campaign(axi, fx.wl.prog, fx.fc, ex);
    EXPECT_EQ(other_soc.resumed_shards, 0u);
}

TEST(campaign_resume, serial_overload_checkpoints_as_its_own_file) {
    const std::string dir = ::testing::TempDir() + "meek_resume_serial";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);

    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc);
    EXPECT_EQ(first.resumed_shards, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/serial.ckpt"));

    const campaign_result second = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc);
    EXPECT_EQ(second.resumed_shards, 1u);
    expect_same_records(first, second);

    fault_campaign_config no_ckpt = fx.fc;
    no_ckpt.checkpoint_dir.clear();
    expect_same_records(first, run_fault_campaign(fx.soc, fx.wl.prog, no_ckpt));
}

TEST(campaign_resume, truncated_checkpoint_is_rerun_not_trusted) {
    const std::string dir = ::testing::TempDir() + "meek_resume_truncated";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);
    sim::executor ex(2);

    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);

    // Corrupt shard 2: keep the valid header but drop the record lines.
    const std::string victim = dir + "/shard_2.ckpt";
    std::ifstream in(victim);
    std::string header1, header2, header3;
    std::getline(in, header1);
    std::getline(in, header2);
    std::getline(in, header3);
    in.close();
    std::ofstream out(victim, std::ios::trunc);
    out << header1 << '\n' << header2 << '\n' << header3 << '\n';
    out.close();

    const campaign_result second = run_fault_campaign(fx.soc, fx.wl.prog, fx.fc, ex);
    EXPECT_EQ(second.resumed_shards, 3u) << "the corrupt shard must re-simulate";
    expect_same_records(first, second);
}

TEST(campaign, zero_fault_campaign_reports_a_clean_run_and_simulates_nothing) {
    fault_campaign_config fc;
    fc.num_faults = 0;
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 30'000, 13);
    sim::executor ex(2);
    for (const campaign_result& r : {run_fault_campaign(soc_config{}, wl.prog, fc),
                                     run_fault_campaign(soc_config{}, wl.prog, fc, ex)}) {
        EXPECT_TRUE(r.faults.empty());
        EXPECT_EQ(r.detected, 0u);
        EXPECT_EQ(r.simulated_instructions, 0u);
    }
}

// -------------------------------------------------------------- goldens ---

// One line per record: inject_seq, inject cycle, detect cycle, detected,
// detection kind, corrupted packet kind.
std::string describe_records(const campaign_result& r) {
    std::string out;
    for (const fault_record& f : r.faults) {
        out += std::to_string(f.inject_seq) + ' ' + std::to_string(f.inject_big_cycle) +
               ' ' + std::to_string(f.detect_big_cycle) + ' ' +
               (f.detected ? '1' : '0') + ' ' +
               std::to_string(static_cast<int>(f.kind)) + ' ' +
               std::to_string(static_cast<int>(f.corrupted_kind)) + '\n';
    }
    return out;
}

// The exact records of three small campaigns. A run ends once its last fault
// settles; these pin that ending it early never moves a record.
TEST(campaign_golden, serial_campaign_records) {
    fault_campaign_config fc;
    fc.num_faults = 4;
    fc.seed = 7;
    const generated_workload wl =
        generate_workload(*find_profile("hmmer"), 4 * 8'000 + 50'000, 13);
    EXPECT_EQ(describe_records(run_fault_campaign(soc_config{}, wl.prog, fc)),
              "6014 25284 26321 1 1 0\n"
              "12014 33559 34857 1 3 1\n"
              "18037 41791 41931 1 1 0\n"
              "24046 49925 50224 1 1 0\n");
}

TEST(campaign_golden, sharded_campaign_with_a_horizon_masked_last_fault) {
    // A 1000-instruction horizon masks some status-word faults; here the
    // first fault of shard 0 and the last fault of shard 1, so shard 1's run
    // ends in the packet hook's horizon branch.
    fault_campaign_config fc;
    fc.num_faults = 6;
    fc.faults_per_shard = 3;
    fc.detection_horizon = 1'000;
    fc.target = fault_target::status_word;
    fc.seed = 4;
    const generated_workload wl =
        generate_workload(*find_profile("hmmer"), 6 * 8'000 + 50'000, 13);
    sim::executor ex(2);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
    ASSERT_EQ(r.faults.size(), 6u);
    EXPECT_FALSE(r.faults[5].detected);
    EXPECT_EQ(describe_records(r),
              "26329 52620 0 0 0 3\n"
              "33468 61584 62857 1 6 3\n"
              "40048 70215 71168 1 6 3\n"
              "26329 52620 52779 1 7 3\n"
              "32880 61253 61387 1 7 3\n"
              "39442 69396 0 0 0 3\n");
}

TEST(campaign_golden, program_ending_before_the_last_injection) {
    // Room for three of the eight faults: the run ends at program end, never
    // by the stop.
    fault_campaign_config fc;
    fc.num_faults = 8;
    fc.seed = 3;
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 25'000, 13);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc);
    EXPECT_LT(r.faults.size(), 8u);
    EXPECT_EQ(describe_records(r),
              "6004 25280 26302 1 3 0\n"
              "12006 33557 34859 1 3 0\n"
              "18007 41722 41872 1 3 0\n");
}

// -------------------------------------------------------------- metrics ---

u64 counter_or_zero(const obs::metrics_snapshot& snap, std::string_view name) {
    const u64* v = snap.counter_value(name);
    return v != nullptr ? *v : 0;
}

TEST(campaign_metrics, shards_pour_progress_counters_into_the_registry) {
    const std::string dir = ::testing::TempDir() + "meek_campaign_metrics";
    std::filesystem::remove_all(dir);
    resume_fixture fx(dir);  // 20 faults over 4 shards
    sim::executor ex(2);

    obs::metrics_registry reg;
    fault_campaign_config fc = fx.fc;
    fc.metrics = &reg;
    const campaign_result first = run_fault_campaign(fx.soc, fx.wl.prog, fc, ex);

    const obs::metrics_snapshot snap = reg.snapshot();
    EXPECT_EQ(counter_or_zero(snap, "campaign.shards_completed"), 4u);
    EXPECT_EQ(counter_or_zero(snap, "campaign.shards_resumed"), 0u);
    EXPECT_EQ(counter_or_zero(snap, "campaign.faults_injected"),
              first.detected + first.masked);
    EXPECT_EQ(counter_or_zero(snap, "campaign.records_emitted"),
              first.faults.size());
    EXPECT_GT(first.simulated_instructions, 0u);
    EXPECT_EQ(counter_or_zero(snap, "campaign.instructions_simulated"),
              first.simulated_instructions);

    // The registry is observability only: results match a metrics-free run.
    fault_campaign_config plain = fx.fc;
    plain.checkpoint_dir.clear();
    expect_same_records(run_fault_campaign(fx.soc, fx.wl.prog, plain, ex), first);

    // A resumed rerun satisfies every shard from its checkpoint, and the
    // counters say so — same records, zero re-simulated shards.
    obs::metrics_registry reg2;
    fc.metrics = &reg2;
    const campaign_result second = run_fault_campaign(fx.soc, fx.wl.prog, fc, ex);
    expect_same_records(first, second);
    const obs::metrics_snapshot snap2 = reg2.snapshot();
    EXPECT_EQ(counter_or_zero(snap2, "campaign.shards_completed"), 4u);
    EXPECT_EQ(counter_or_zero(snap2, "campaign.shards_resumed"), 4u);
    EXPECT_EQ(counter_or_zero(snap2, "campaign.records_emitted"),
              second.faults.size());
    EXPECT_EQ(second.simulated_instructions, 0u);
    ASSERT_NE(snap2.counter_value("campaign.instructions_simulated"), nullptr);
    EXPECT_EQ(*snap2.counter_value("campaign.instructions_simulated"), 0u);
}

}  // namespace
}  // namespace meek

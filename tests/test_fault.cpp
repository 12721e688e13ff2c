// Fault-campaign tests: detection guarantees per target class
// (parameterized), latency sanity, masking bounds, report integrity, shard
// instruction budgets, early run end, and golden records (one set pinned in
// both low-advance modes across a checker re-reservation).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "fault/campaign.h"
#include "sim/executor.h"
#include "sim/scenario.h"
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
    sim::executor ex(2);
    return run_fault_campaign(soc_config{}, wl.prog, fc, ex);
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
    sim::executor ex(2);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
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

// --------------------------------------------------------------- budget ---

TEST(campaign, each_shard_stops_below_its_instruction_budget) {
    fault_campaign_config fc;
    fc.num_faults = 20;
    fc.faults_per_shard = 5;  // 4 shards
    fc.seed = 21;
    const generated_workload wl = generate_workload(
        *find_profile("hmmer"), u64{fc.num_faults} * (fc.gap_instructions + 2000) + 50'000,
        13);
    sim::executor ex(2);
    // The cap a 5-fault shard runs under; the run must end below it, when
    // its last fault settles.
    const u64 budget = fc.shard_warmup_instructions +
                       u64{fc.faults_per_shard} * (fc.gap_instructions + 2'000) +
                       fc.detection_horizon + 50'000;

    const campaign_result four = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
    ASSERT_EQ(four.faults.size(), 20u);
    EXPECT_LT(four.simulated_instructions, 4 * budget);

    fault_campaign_config single = fc;
    single.num_faults = fc.faults_per_shard;
    const campaign_result one = run_fault_campaign(soc_config{}, wl.prog, single, ex);
    ASSERT_EQ(one.faults.size(), 5u);
    EXPECT_GT(one.simulated_instructions, 0u);
    EXPECT_LT(one.simulated_instructions, budget);
}

TEST(campaign, zero_fault_campaign_reports_a_clean_run_and_simulates_nothing) {
    fault_campaign_config fc;
    fc.num_faults = 0;
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 30'000, 13);
    sim::executor ex(2);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
    EXPECT_TRUE(r.faults.empty());
    EXPECT_EQ(r.detected, 0u);
    EXPECT_EQ(r.simulated_instructions, 0u);
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
TEST(campaign_golden, single_shard_run_ends_when_its_last_fault_settles) {
    fault_campaign_config fc;
    fc.num_faults = 4;
    fc.seed = 7;
    const generated_workload wl =
        generate_workload(*find_profile("hmmer"), 4 * 8'000 + 50'000, 13);
    sim::executor ex(2);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
    EXPECT_EQ(describe_records(r),
              "26005 52411 52982 1 3 1\n"
              "32012 59858 60579 1 3 1\n"
              "38018 67439 67812 1 3 1\n"
              "44026 74893 75825 1 2 1\n");
    // The program runs 73,519 instructions; the campaign stops right after
    // the last detection.
    EXPECT_EQ(r.simulated_instructions, 44'837u);
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

TEST(campaign_golden, reservation_boundary_records_match_in_both_low_advance_modes) {
    // perfbench campaign's seed-2 blackscholes call: 200 core-side faults, 50
    // per shard, on the program generated at seed 2 with twice the shard
    // budget. In shard 1, segment 282 fails on core 1 and the pending
    // boundary-283 SRCP is re-sent to core 1 while its ERCP copy is still in
    // flight: the stale copy lands after the re-reservation and counts toward
    // the new SRCP. Both low-advance modes must keep every record.
    fault_campaign_config fc;
    fc.num_faults = 200;
    fc.faults_per_shard = 50;
    fc.core_side_fault = true;
    fc.seed = sim::derive_stream_seed(2, 0);
    const u64 budget = fc.shard_warmup_instructions +
                       u64{fc.faults_per_shard} * (fc.gap_instructions + 2'000) +
                       fc.detection_horizon + 50'000;
    const generated_workload wl =
        generate_workload(*find_profile("blackscholes"), budget * 2, 2);
    std::ifstream in(std::filesystem::path(MEEK_DATA_DIR) /
                     "fault_reservation_boundary_expected.txt");
    ASSERT_TRUE(in) << "missing fault_reservation_boundary_expected.txt";
    const std::string expected{std::istreambuf_iterator<char>(in), {}};

    const char* inherited = std::getenv("MEEK_LOW_ADVANCE");
    const std::string saved = inherited ? inherited : "";
    sim::executor ex(2);
    for (const char* mode : {"event", "exhaustive"}) {
        ::setenv("MEEK_LOW_ADVANCE", mode, 1);
        const campaign_result r =
            run_fault_campaign(sim::meek_scenario(4).soc(), wl.prog, fc, ex);
        EXPECT_EQ(describe_records(r), expected) << mode;
    }
    if (inherited) {
        ::setenv("MEEK_LOW_ADVANCE", saved.c_str(), 1);
    } else {
        ::unsetenv("MEEK_LOW_ADVANCE");
    }
}

TEST(campaign_golden, program_ending_before_the_last_injection) {
    // Past the 20k-instruction warmup, the 40,333-instruction program has room
    // for three of the eight faults: the run ends at program end, never by
    // the stop.
    fault_campaign_config fc;
    fc.num_faults = 8;
    fc.seed = 3;
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 45'000, 13);
    sim::executor ex(2);
    const campaign_result r = run_fault_campaign(soc_config{}, wl.prog, fc, ex);
    EXPECT_EQ(describe_records(r),
              "26001 52410 53161 1 3 0\n"
              "32001 59851 60552 1 3 1\n"
              "38004 67433 67779 1 1 0\n");
    EXPECT_EQ(r.simulated_instructions, 40'333u);
}

}  // namespace
}  // namespace meek

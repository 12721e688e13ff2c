// Sim-layer tests: executor determinism (thread-count invariance of fault
// campaigns), scenario-registry round-trips, pool robustness under throwing
// jobs, and a golden pin of full run outcomes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "fault/campaign.h"
#include "report/runner.h"
#include "sim/executor.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads/generator.h"

namespace meek {
namespace {

TEST(executor, results_come_back_in_submission_order) {
    sim::executor ex(4);
    const auto results = ex.run_indexed(
        32, 99, [](const sim::job_context& ctx) { return ctx.index; });
    ASSERT_EQ(results.size(), 32u);
    for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(executor, stream_seeds_are_pure_functions_of_batch_seed_and_index) {
    sim::executor ex(3);
    const auto seeds = ex.run_indexed(
        16, 1234, [](const sim::job_context& ctx) { return ctx.stream_seed; });
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_EQ(seeds[i], sim::derive_stream_seed(1234, i));
        for (std::size_t j = i + 1; j < seeds.size(); ++j) {
            EXPECT_NE(seeds[i], seeds[j]) << "streams must not collide";
        }
    }
}

TEST(executor, throwing_job_neither_deadlocks_nor_poisons_the_pool) {
    sim::executor ex(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(ex.run_indexed(8, 0,
                                [&ran](const sim::job_context& ctx) -> int {
                                    ++ran;
                                    if (ctx.index == 3) {
                                        throw std::runtime_error("boom");
                                    }
                                    return static_cast<int>(ctx.index);
                                }),
                 std::runtime_error);
    // The whole batch drained before the rethrow: no job may still be
    // running against the caller's (now unwound) captures.
    EXPECT_EQ(ran.load(), 8);

    // The pool keeps serving jobs after the failed batch.
    const auto after = ex.run_indexed(
        4, 0, [](const sim::job_context& ctx) { return ctx.index * 2; });
    ASSERT_EQ(after.size(), 4u);
    EXPECT_EQ(after[3], 6u);
}

TEST(executor, cost_hints_reorder_scheduling_but_not_results) {
    sim::executor ex(4);
    // Hints in ascending cost: submission reverses, results must not.
    std::vector<double> hints(32);
    for (std::size_t i = 0; i < hints.size(); ++i) hints[i] = static_cast<double>(i);

    const auto plain = ex.run_indexed(
        32, 99, [](const sim::job_context& ctx) { return ctx.stream_seed; });
    const auto hinted = ex.run_indexed(
        32, 99, [](const sim::job_context& ctx) { return ctx.stream_seed; }, hints);
    EXPECT_EQ(plain, hinted)
        << "hints affect scheduling only: same seeds, same order";

    // The hinted map overload matches the plain one item-for-item.
    std::vector<int> items{5, 1, 9, 3};
    const auto mapped = ex.map(
        items, 7, [](int v, const sim::job_context&) { return v * 2; },
        [](int v) { return static_cast<double>(v); });
    EXPECT_EQ(mapped, (std::vector<int>{10, 2, 18, 6}));

    // A wrong-sized hint vector is ignored rather than misapplied.
    const std::vector<double> short_hints{1.0};
    const auto fallback = ex.run_indexed(
        8, 3, [](const sim::job_context& ctx) { return ctx.index; }, short_hints);
    ASSERT_EQ(fallback.size(), 8u);
    EXPECT_EQ(fallback[7], 7u);
}

TEST(executor, per_job_wall_time_feeds_the_timing_summary) {
    sim::executor ex(2);
    EXPECT_EQ(ex.timing().jobs, 0u);

    ex.run_indexed(6, 0, [](const sim::job_context& ctx) {
        // Unequal shard lengths: make skew observable in the summary.
        volatile u64 acc = 0;
        for (u64 i = 0; i < 20'000 * (ctx.index + 1); ++i) acc = acc + i;
        return acc;
    });

    const sim::executor_timing t = ex.timing();
    EXPECT_EQ(t.jobs, 6u);
    EXPECT_GE(t.min_ms, 0.0);
    EXPECT_LE(t.min_ms, t.mean_ms);
    EXPECT_LE(t.mean_ms, t.max_ms);
    EXPECT_GE(t.total_ms, t.max_ms);

    ex.reset_timing();
    EXPECT_EQ(ex.timing().jobs, 0u);
    EXPECT_EQ(ex.timing().total_ms, 0.0);
}

TEST(executor, thread_count_resolution_prefers_explicit_request) {
    EXPECT_EQ(sim::resolve_thread_count(3), 3u);
    EXPECT_GE(sim::resolve_thread_count(0), 1u);
    sim::executor ex(2);
    EXPECT_EQ(ex.num_threads(), 2u);
}

// Counts are only resolved here, never handed to a pool.
TEST(executor, thread_counts_above_the_bound_are_refused_or_ignored) {
    EXPECT_EQ(sim::resolve_thread_count(sim::k_max_threads), sim::k_max_threads);
    EXPECT_THROW(sim::resolve_thread_count(sim::k_max_threads + 1), std::invalid_argument);
    EXPECT_THROW(sim::resolve_thread_count(4294967295u), std::invalid_argument);

    const char* saved = std::getenv("MEEK_THREADS");
    const std::string restore = saved ? saved : "";
    unsetenv("MEEK_THREADS");
    const u32 fallback = sim::resolve_thread_count(0);
    EXPECT_GE(fallback, 1u);
    EXPECT_LE(fallback, sim::k_max_threads);
    setenv("MEEK_THREADS", "7", 1);
    EXPECT_EQ(sim::resolve_thread_count(0), 7u);
    EXPECT_EQ(sim::resolve_thread_count(3), 3u);  // an explicit count wins
    setenv("MEEK_THREADS", "1024", 1);
    EXPECT_EQ(sim::resolve_thread_count(0), 1024u);
    for (const char* bad : {"8x", "1025", "4294967295", "99999999999", "0", "-4", "", " 8",
                            "+8"}) {
        setenv("MEEK_THREADS", bad, 1);
        EXPECT_EQ(sim::resolve_thread_count(0), fallback) << "'" << bad << "'";
    }
    if (saved) {
        setenv("MEEK_THREADS", restore.c_str(), 1);
    } else {
        unsetenv("MEEK_THREADS");
    }
}

TEST(scenario_registry, round_trips_every_named_config) {
    for (const sim::scenario& s : sim::all_scenarios()) {
        const sim::scenario* found = sim::find_scenario(s.name);
        ASSERT_NE(found, nullptr) << s.name;
        EXPECT_EQ(found->system, s.system) << s.name;
        EXPECT_EQ(found->little_cores, s.little_cores) << s.name;
        EXPECT_EQ(found->fabric, s.fabric) << s.name;
        EXPECT_EQ(found->tuning, s.tuning) << s.name;
    }
    EXPECT_EQ(sim::find_scenario("no-such-system"), nullptr);
}

TEST(scenario_registry, constructor_names_match_registry_scheme) {
    EXPECT_EQ(sim::vanilla_scenario().name, "vanilla");
    EXPECT_EQ(sim::ea_lockstep_scenario().name, "ea-lockstep");
    EXPECT_EQ(sim::nzdc_scenario().name, "nzdc");
    EXPECT_EQ(sim::meek_scenario(6, fabric_kind::axi_interconnect,
                                 little_core_tuning::default_rocket)
                  .name,
              "meek/axi/def/6");
    EXPECT_EQ(sim::meek_scenario(4).name, "meek/f2/opt/4");
}

TEST(scenario_registry, meek_knobs_materialize_into_the_soc_config) {
    const sim::scenario sc = sim::meek_scenario(
        6, fabric_kind::axi_interconnect, little_core_tuning::default_rocket);
    const soc_config cfg = sc.soc();
    EXPECT_EQ(cfg.num_little_cores, 6u);
    EXPECT_EQ(cfg.fabric.kind, fabric_kind::axi_interconnect);
    EXPECT_EQ(cfg.little.tuning, little_core_tuning::default_rocket);
}

TEST(campaign_parallel, records_are_identical_at_any_thread_count) {
    fault_campaign_config fc;
    fc.num_faults = 30;
    fc.faults_per_shard = 10;  // 3 shards
    fc.seed = 21;
    const u64 needed = u64{fc.num_faults} * (fc.gap_instructions + 2'000) + 50'000;
    const generated_workload wl =
        generate_workload(*find_profile("hmmer"), needed, 13);
    const soc_config cfg = sim::meek_scenario(4).soc();

    sim::executor one(1);
    sim::executor four(4);
    const campaign_result a = run_fault_campaign(cfg, wl.prog, fc, one);
    const campaign_result b = run_fault_campaign(cfg, wl.prog, fc, four);

    EXPECT_GT(a.detected, 0u);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.masked, b.masked);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].inject_seq, b.faults[i].inject_seq) << i;
        EXPECT_EQ(a.faults[i].inject_big_cycle, b.faults[i].inject_big_cycle) << i;
        EXPECT_EQ(a.faults[i].detect_big_cycle, b.faults[i].detect_big_cycle) << i;
        EXPECT_EQ(a.faults[i].detected, b.faults[i].detected) << i;
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind) << i;
        EXPECT_EQ(a.faults[i].corrupted_kind, b.faults[i].corrupted_kind) << i;
    }
    EXPECT_EQ(a.latency_ns.count(), b.latency_ns.count());
    EXPECT_DOUBLE_EQ(a.latency_ns.mean(), b.latency_ns.mean());
    EXPECT_DOUBLE_EQ(a.latency_ns.max(), b.latency_ns.max());
}

TEST(sim_jobs, suite_rows_are_thread_count_invariant) {
    const std::span<const workload_profile> all = parsec_profiles();
    const std::span<const workload_profile> two = all.subspan(0, 2);
    figure6_options opts;
    opts.instructions = 20'000;

    sim::executor one(1);
    sim::executor four(4);
    const auto rows_a = measure_suite(two, opts, one);
    const auto rows_b = measure_suite(two, opts, four);
    ASSERT_EQ(rows_a.size(), rows_b.size());
    for (std::size_t i = 0; i < rows_a.size(); ++i) {
        EXPECT_EQ(rows_a[i].workload, rows_b[i].workload);
        EXPECT_DOUBLE_EQ(rows_a[i].meek, rows_b[i].meek);
        EXPECT_DOUBLE_EQ(rows_a[i].lockstep, rows_b[i].lockstep);
        EXPECT_DOUBLE_EQ(rows_a[i].nzdc, rows_b[i].nzdc);
        EXPECT_EQ(rows_a[i].baseline_cycles, rows_b[i].baseline_cycles);
    }
}

TEST(sim_jobs, execute_reduces_every_system_kind) {
    const workload_profile& p = *find_profile("hmmer");
    for (const sim::scenario& sc :
         {sim::vanilla_scenario(), sim::meek_scenario(2),
          sim::ea_lockstep_scenario(), sim::nzdc_scenario()}) {
        const sim::run_outcome out = sim::execute({sc, p, 15'000, 1});
        EXPECT_EQ(out.scenario, sc.name);
        EXPECT_EQ(out.workload, p.name);
        EXPECT_GT(out.cycles, 0u) << sc.name;
        EXPECT_GT(out.instructions, 0u) << sc.name;
        EXPECT_TRUE(out.error.empty()) << sc.name << ": " << out.error;  // invariants hold
    }
}

TEST(sim_jobs, soc_override_is_simulated_instead_of_registry_defaults) {
    const workload_profile& p = *find_profile("swaptions");
    const sim::scenario sc = sim::meek_scenario(4);

    sim::run_spec plain{sc, p, 15'000, 1};
    sim::run_spec overridden{sc, p, 15'000, 1};
    soc_config custom = sc.soc();
    custom.num_little_cores = 2;  // off-registry point under a registry name
    overridden.soc_override = custom;

    const sim::run_outcome a = sim::execute(plain);
    const sim::run_outcome b = sim::execute(overridden);
    EXPECT_GT(b.cycles, a.cycles)
        << "2 checker cores must be slower than 4 on a divider-heavy workload";
}

TEST(sim_jobs, nzdc_marks_unsupported_workloads_as_skipped) {
    const workload_profile* gcc = find_profile("gcc");
    ASSERT_NE(gcc, nullptr);
    ASSERT_FALSE(gcc->nzdc_supported);
    const sim::run_outcome out =
        sim::execute({sim::nzdc_scenario(), *gcc, 10'000, 1});
    EXPECT_TRUE(out.skipped);
    EXPECT_EQ(out.cycles, 0u);
}

// Every field of sim::execute's outcome for four workloads under four
// systems, at 20k instructions and workload seed 1, pinned in
// tests/data/kernel_outcomes_expected.csv. test_simkernel compares the two
// low-domain advance modes with each other; this pin also catches a change
// that moves both alike. Columns: scenario, workload, cycles, instructions,
// verified_ok, the soc_stats counters, replayed instructions and checker
// compute cycles.
TEST(sim_jobs, kernel_outcomes_match_the_pinned_golden) {
    std::ifstream in(std::filesystem::path(MEEK_DATA_DIR) / "kernel_outcomes_expected.csv");
    ASSERT_TRUE(in) << "missing kernel_outcomes_expected.csv";
    std::string line;
    std::getline(in, line);  // header
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');) f.push_back(cell);
        ASSERT_EQ(f.size(), 14u) << line;
        SCOPED_TRACE(f[0] + " " + f[1]);
        const sim::scenario* sc = sim::find_scenario(f[0]);
        const workload_profile* p = find_profile(f[1]);
        ASSERT_NE(sc, nullptr);
        ASSERT_NE(p, nullptr);
        const sim::run_outcome o = sim::execute({*sc, *p, 20'000, 1});
        const auto u = [&f](std::size_t i) { return std::stoull(f[i]); };
        EXPECT_TRUE(o.error.empty()) << o.error;
        EXPECT_EQ(o.cycles, u(2));
        EXPECT_EQ(o.instructions, u(3));
        EXPECT_EQ(o.verified_ok ? 1u : 0u, u(4));
        EXPECT_EQ(o.stats.segments_started, u(5));
        EXPECT_EQ(o.stats.segments_verified, u(6));
        EXPECT_EQ(o.stats.segments_failed, u(7));
        EXPECT_EQ(o.stats.errors_detected, u(8));
        EXPECT_EQ(o.stats.stall_collecting, u(9));
        EXPECT_EQ(o.stats.stall_forwarding, u(10));
        EXPECT_EQ(o.stats.stall_checker, u(11));
        EXPECT_EQ(o.replayed_instructions, u(12));
        EXPECT_EQ(o.checker_compute_cycles, u(13));
        ++rows;
    }
    EXPECT_EQ(rows, 16u);
}

// Serves one shared program to every job, like a session workload cache.
struct one_program : workload_source {
    std::shared_ptr<const generated_workload> wl;
    std::shared_ptr<const generated_workload> workload_for(const workload_profile&, u64,
                                                           u64) override {
        return wl;
    }
};

u64 blob_digest(const program& prog) {
    fnv1a h;
    for (const pointer_ring& ring : prog.rings) {
        h.bytes(reinterpret_cast<const u8*>(ring.next.data()), ring.next.size() * sizeof(u32));
    }
    for (const data_blob& blob : prog.data) h.bytes(blob.bytes.data(), blob.bytes.size());
    return h.h;
}

// Every SoC maps the program's rings and data image by reference and copies
// only the blocks it writes: SoCs running one program at once on several
// threads must neither see each other's stores nor change the program's bytes.
TEST(sim_jobs, concurrent_socs_over_one_program_share_its_image_read_only) {
    const workload_profile& p = *find_profile("dedup");
    one_program source;
    source.wl = std::make_shared<const generated_workload>(generate_workload(p, 15'000, 3));
    const u64 digest = blob_digest(source.wl->prog);

    std::vector<sim::run_spec> specs;
    for (int i = 0; i < 8; ++i) {
        sim::run_spec spec;
        spec.sc = i % 2 ? sim::vanilla_scenario() : sim::meek_scenario(4);
        spec.workload = p;
        spec.instructions = 15'000;
        spec.workload_seed = 3;
        spec.workloads = &source;
        specs.push_back(spec);
    }
    sim::executor ex(4);
    const std::vector<sim::run_outcome> shared = sim::execute_all(ex, specs);
    EXPECT_EQ(blob_digest(source.wl->prog), digest);

    for (std::size_t i = 0; i < shared.size(); ++i) {
        SCOPED_TRACE(i);
        sim::run_spec private_spec = specs[i];
        private_spec.workloads = nullptr;  // the job generates its own copy
        const sim::run_outcome& a = shared[i];
        const sim::run_outcome b = sim::execute(private_spec);
        EXPECT_TRUE(a.error.empty()) << a.error;
        EXPECT_EQ(a.scenario, b.scenario);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.ipc, b.ipc);
        EXPECT_EQ(a.verified_ok, b.verified_ok);
        EXPECT_EQ(a.stats.segments_started, b.stats.segments_started);
        EXPECT_EQ(a.stats.segments_verified, b.stats.segments_verified);
        EXPECT_EQ(a.stats.segments_failed, b.stats.segments_failed);
        EXPECT_EQ(a.stats.errors_detected, b.stats.errors_detected);
        EXPECT_EQ(a.stats.stall_collecting, b.stats.stall_collecting);
        EXPECT_EQ(a.stats.stall_forwarding, b.stats.stall_forwarding);
        EXPECT_EQ(a.stats.stall_checker, b.stats.stall_checker);
        EXPECT_EQ(a.replayed_instructions, b.replayed_instructions);
        EXPECT_EQ(a.checker_compute_cycles, b.checker_compute_cycles);
        EXPECT_EQ(a.skipped, b.skipped);
        EXPECT_EQ(a.error, b.error);
    }
}

TEST(sim_jobs, outcome_invariants_accept_consistent_outcomes) {
    sim::run_outcome o;
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::vanilla, 4), "");  // empty run
    o.cycles = 1000;
    o.instructions = 4000;  // exactly commit width 4 per cycle
    o.ipc = 4.0;
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::vanilla, 4), "");
    o.instructions = 1234;
    o.ipc = 1234.0 / 1000.0;
    o.verified_ok = true;
    o.replayed_instructions = 1234;
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::meek, 4), "");
    // Replay counts bind only verified MEEK runs.
    o.replayed_instructions = 0;
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::ea_lockstep, 4), "");
    o.verified_ok = false;
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::meek, 4), "");
}

TEST(sim_jobs, outcome_invariants_name_each_violation) {
    sim::run_outcome o;
    o.cycles = 1000;
    o.instructions = 1500;
    o.ipc = 1.5;

    sim::run_outcome bad_ipc = o;
    bad_ipc.ipc = 1.5000001;
    EXPECT_NE(sim::outcome_invariant_error(bad_ipc, sim::system_kind::vanilla, 4).find("ipc"),
              std::string::npos);
    sim::run_outcome ipc_without_cycles;
    ipc_without_cycles.ipc = 1.0;
    EXPECT_NE(sim::outcome_invariant_error(ipc_without_cycles, sim::system_kind::nzdc, 4), "");

    sim::run_outcome short_replay = o;
    short_replay.verified_ok = true;
    short_replay.replayed_instructions = 1499;
    EXPECT_NE(sim::outcome_invariant_error(short_replay, sim::system_kind::meek, 4).find("replayed"),
              std::string::npos);

    // 1500 instructions in 1000 cycles fit width 2 but not width 1.
    EXPECT_EQ(sim::outcome_invariant_error(o, sim::system_kind::ea_lockstep, 2), "");
    EXPECT_NE(sim::outcome_invariant_error(o, sim::system_kind::ea_lockstep, 1).find("commit width"),
              std::string::npos);
    sim::run_outcome no_cycles;
    no_cycles.instructions = 1;
    EXPECT_NE(sim::outcome_invariant_error(no_cycles, sim::system_kind::vanilla, 4), "");
}

}  // namespace
}  // namespace meek

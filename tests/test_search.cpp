// Search-layer tests: Pareto dominance edge cases, strategy determinism,
// point enumeration/dedup, thread-count-invariant frontiers, and the
// shard-checkpoint/resume round-trip of the sharded driver.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "search/driver.h"
#include "search/pareto.h"
#include "search/point.h"
#include "search/strategy.h"
#include "serve/outcome_cache.h"
#include "sim/executor.h"

namespace meek {
namespace {

// ---------------------------------------------------------------- pareto ---

TEST(pareto, dominance_needs_no_worse_everywhere_and_better_somewhere) {
    const search::objectives base{0.5, 1.2, 0.9};
    EXPECT_TRUE(search::dominates({0.4, 1.2, 0.9}, base));  // less area
    EXPECT_TRUE(search::dominates({0.5, 1.1, 0.9}, base));  // less slowdown
    EXPECT_TRUE(search::dominates({0.5, 1.2, 1.0}, base));  // more coverage
    EXPECT_TRUE(search::dominates({0.4, 1.1, 1.0}, base));  // better everywhere

    EXPECT_FALSE(search::dominates(base, base)) << "a point never dominates itself";
    EXPECT_FALSE(search::dominates({0.4, 1.3, 0.9}, base)) << "worse slowdown";
    EXPECT_FALSE(search::dominates({0.5, 1.2, 0.8}, base)) << "worse coverage";
    EXPECT_FALSE(search::dominates(base, {0.4, 1.3, 0.9}))
        << "incomparable points dominate in neither direction";
}

TEST(pareto, coverage_is_maximized_not_minimized) {
    // Same silicon and speed, strictly more faults caught: strictly better.
    EXPECT_TRUE(search::dominates({0.5, 1.2, 1.0}, {0.5, 1.2, 0.5}));
    EXPECT_FALSE(search::dominates({0.5, 1.2, 0.5}, {0.5, 1.2, 1.0}));
}

TEST(pareto, frontier_drops_dominated_keeps_incomparable) {
    const std::vector<search::objectives> rows = {
        {0.0, 1.0, 0.0},  // baseline corner: free and fast, no coverage
        {0.7, 1.1, 1.0},  // balanced
        {0.8, 1.2, 1.0},  // dominated by the balanced point
        {0.4, 1.6, 1.0},  // cheap but slow: incomparable with balanced
    };
    EXPECT_EQ(search::pareto_frontier(rows),
              (std::vector<std::size_t>{0, 1, 3}));
}

TEST(pareto, exact_ties_are_all_kept) {
    const std::vector<search::objectives> rows = {
        {0.5, 1.2, 1.0},
        {0.5, 1.2, 1.0},  // identical objectives, different point
        {0.6, 1.3, 1.0},  // dominated by both
    };
    EXPECT_EQ(search::pareto_frontier(rows), (std::vector<std::size_t>{0, 1}));
}

TEST(pareto, empty_and_singleton) {
    EXPECT_TRUE(search::pareto_frontier({}).empty());
    const std::vector<search::objectives> one = {{1.0, 2.0, 0.5}};
    EXPECT_EQ(search::pareto_frontier(one), (std::vector<std::size_t>{0}));
}

// -------------------------------------------------------------- strategy ---

TEST(strategy, names_round_trip) {
    for (const auto kind :
         {search::strategy_kind::exhaustive, search::strategy_kind::random_sample,
          search::strategy_kind::successive_halving}) {
        const auto parsed = search::parse_strategy(search::strategy_name(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(search::parse_strategy("annealing").has_value());
}

TEST(strategy, sample_indices_are_deterministic_sorted_and_distinct) {
    const auto a = search::sample_indices(100, 10, 42);
    const auto b = search::sample_indices(100, 10, 42);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 10u);
    for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_LT(a[i - 1], a[i]) << "ascending and distinct";
    }
    EXPECT_LT(a.back(), 100u);
    EXPECT_NE(a, search::sample_indices(100, 10, 43)) << "seed selects the sample";
    EXPECT_EQ(search::sample_indices(5, 10, 1).size(), 5u) << "clamped to universe";
}

TEST(strategy, promote_keeps_best_fraction_by_score) {
    const std::vector<std::size_t> candidates = {3, 5, 8, 11};
    const std::vector<double> scores = {4.0, 1.0, 3.0, 2.0};
    // ceil(0.5 * 4) = 2 survivors: indices 5 (1.0) and 11 (2.0), ascending.
    EXPECT_EQ(search::promote(candidates, scores, 0.5),
              (std::vector<std::size_t>{5, 11}));
    // Ties break toward the lower candidate index.
    const std::vector<double> tied = {2.0, 2.0, 2.0, 2.0};
    EXPECT_EQ(search::promote(candidates, tied, 0.5),
              (std::vector<std::size_t>{3, 5}));
    // At least one candidate survives a non-empty rung.
    EXPECT_EQ(search::promote(candidates, scores, 1e-12).size(), 1u);
}

// ----------------------------------------------------------------- point ---

TEST(point, registry_points_lead_the_universe_in_registry_order) {
    const auto points = search::enumerate_points(search::parameter_grid{}, true);
    const auto registry = sim::all_scenarios();
    ASSERT_EQ(points.size(), registry.size()) << "empty grid adds nothing";
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].name, registry[i].name);
        EXPECT_FALSE(points[i].off_registry);
    }
}

TEST(point, grid_is_the_cross_product_with_canonical_names) {
    search::parameter_grid grid;
    grid.lsl_bytes = {2048, 4096};
    grid.dc_buffer_depths = {8, 16};
    EXPECT_EQ(grid.combinations(), 4u);
    const auto points = search::enumerate_points(grid, /*include_registry=*/false);
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].name, "grid/f2/opt/4c/lsl2048/d8/u8/f2000");
    EXPECT_EQ(points[3].name, "grid/f2/opt/4c/lsl4096/d16/u8/f2000");
    EXPECT_TRUE(points[0].off_registry);
    EXPECT_EQ(points[0].soc.little.lsl_bytes, 2048u);
    EXPECT_EQ(points[0].soc.fabric.dc_buffer_depth, 8u);
}

TEST(point, grid_point_equal_to_a_registry_scenario_is_dropped) {
    // The all-defaults combination is exactly meek/f2/opt/4.
    search::parameter_grid grid;
    grid.lsl_bytes = {4096};
    const std::size_t registry_count = sim::all_scenarios().size();
    EXPECT_EQ(search::enumerate_points(grid, true).size(), registry_count);
    EXPECT_EQ(search::enumerate_points(grid, false).size(), 1u)
        << "kept when the registry is excluded";
}

TEST(point, overrides_matching_the_tuning_default_are_canonicalized) {
    // unroll=8 and freq=2000 *are* the optimized tuning: identical machine,
    // so the point must dedupe against the registry scenario.
    search::parameter_grid grid;
    grid.div_unrolls = {8};
    grid.checker_freq_mhz = {2000};
    EXPECT_EQ(search::enumerate_points(grid, true).size(),
              sim::all_scenarios().size());
    const auto alone = search::enumerate_points(grid, false);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].soc.little.div_unroll_override, 0u);
    EXPECT_EQ(alone[0].soc.little.freq_override_mhz, 0u);
}

TEST(point, empty_grid_has_no_combinations) {
    EXPECT_TRUE(search::parameter_grid{}.empty());
    EXPECT_EQ(search::parameter_grid{}.combinations(), 0u);
    EXPECT_FALSE(search::default_grid().empty());
    EXPECT_EQ(search::default_grid().combinations(), 3u * 3u * 2u * 2u);
}

TEST(point, grid_axes_parse_and_core_counts_are_bounded_by_the_mask) {
    // 0 and 17 checkers are rejected at parse time with the protocol's error.
    std::string error;
    for (const char* bad : {"cores=0", "cores=17", "cores=4,17"}) {
        SCOPED_TRACE(bad);
        search::parameter_grid grid;
        error.clear();
        EXPECT_FALSE(search::parse_grid_axis(grid, bad, &error));
        EXPECT_EQ(error, "cores out of range (1..16)");
    }

    // 16 — one destination-mask bit per checker — is the largest legal count.
    search::parameter_grid grid;
    ASSERT_TRUE(search::parse_grid_axis(grid, "fabric=f2,axi", &error)) << error;
    ASSERT_TRUE(search::parse_grid_axis(grid, "lsl=2048", &error)) << error;
    ASSERT_TRUE(search::parse_grid_axis(grid, "cores=16", &error)) << error;
    EXPECT_EQ(grid.fabrics.size(), 2u);
    EXPECT_EQ(grid.lsl_bytes, std::vector<u32>{2048});
    EXPECT_EQ(grid.little_cores, std::vector<u32>{16});
    const auto points = search::enumerate_points(grid, /*include_registry=*/false);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].name, "grid/f2/opt/16c/lsl2048/d16/u8/f2000");
    EXPECT_EQ(points[0].soc.num_little_cores, 16u);

    for (const char* bad : {"fabric=", "fabric=pcie", "tuning=fast", "speed=3", "cores"}) {
        SCOPED_TRACE(bad);
        error.clear();
        EXPECT_FALSE(search::parse_grid_axis(grid, bad, &error));
        EXPECT_FALSE(error.empty());
    }
}

// ---------------------------------------------------------------- driver ---

search::search_options quick_opts() {
    search::search_options opts;
    opts.workload = "swaptions";
    opts.instructions = 9'000;
    opts.probe.faults = 3;
    return opts;
}

std::vector<search::design_point> quick_points() {
    search::parameter_grid grid;
    grid.lsl_bytes = {2048, 4096};
    grid.dc_buffer_depths = {8, 16};
    return search::enumerate_points(grid, /*include_registry=*/false);
}

TEST(search_driver, an_aborted_point_is_reported_but_never_ranked) {
    // One checker aborts its run (sim::run_outcome::error); its partial
    // counters must not reach the frontier as a zero-slowdown point.
    search::parameter_grid grid;
    std::string error;
    ASSERT_TRUE(search::parse_grid_axis(grid, "cores=1,2", &error)) << error;
    ASSERT_TRUE(search::parse_grid_axis(grid, "fabric=f2", &error)) << error;
    ASSERT_TRUE(search::parse_grid_axis(grid, "tuning=opt", &error)) << error;
    const auto points = search::enumerate_points(grid, /*include_registry=*/false);
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[0].soc.num_little_cores, 1u);

    sim::executor ex(2);
    const search::search_result r = search::run_search(points, quick_opts(), ex);
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(r.evaluated.size(), 2u);
    const search::point_result& one = r.evaluated[0];
    EXPECT_NE(one.name.find("/1c/"), std::string::npos) << one.name;
    EXPECT_FALSE(one.error.empty());
    EXPECT_EQ(one.probe_detected + one.probe_masked, 0u) << "errored points are not probed";
    EXPECT_TRUE(r.evaluated[1].error.empty());
    EXPECT_EQ(r.frontier, std::vector<std::size_t>{1});
    EXPECT_NE(search::to_ndjson(r, false).find("\"error\""), std::string::npos);

    // The error survives a sharded run's checkpoint merge, whichever shard
    // measured the errored point.
    const std::string dir = ::testing::TempDir() + "meek_search_errored";
    for (const u32 first : {0u, 1u}) {
        std::filesystem::remove_all(dir);
        search::search_options shard = quick_opts();
        shard.shard_count = 2;
        shard.checkpoint_dir = dir;
        shard.shard_index = first;
        ASSERT_FALSE(search::run_search(points, shard, ex).complete);
        shard.shard_index = 1 - first;
        const search::search_result merged = search::run_search(points, shard, ex);
        ASSERT_TRUE(merged.complete);
        EXPECT_EQ(merged.evaluated[0].error, one.error);
        EXPECT_EQ(search::to_ndjson(merged, false), search::to_ndjson(r, false));
    }
    std::filesystem::remove_all(dir);

    // Successive halving never promotes it either.
    search::search_options halving = quick_opts();
    halving.strategy = search::strategy_kind::successive_halving;
    halving.halving_keep = 0.5;
    const search::search_result h = search::run_search(points, halving, ex);
    ASSERT_EQ(h.evaluated.size(), 1u);
    EXPECT_NE(h.evaluated[0].name.find("/2c/"), std::string::npos);
}

TEST(search_driver, frontier_is_bit_identical_at_any_thread_count) {
    const auto points = quick_points();
    const auto opts = quick_opts();
    sim::executor one(1);
    sim::executor four(4);
    const search::search_result a = search::run_search(points, opts, one);
    const search::search_result b = search::run_search(points, opts, four);

    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    EXPECT_FALSE(a.frontier.empty());
    EXPECT_EQ(search::to_csv(a, false), search::to_csv(b, false));
    EXPECT_EQ(search::to_ndjson(a, true), search::to_ndjson(b, true));
}

TEST(search_driver, probe_measures_coverage_on_meek_points) {
    const auto points = quick_points();
    sim::executor ex(4);
    const search::search_result r = search::run_search(points, quick_opts(), ex);
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(r.evaluated.size(), points.size());
    for (const search::point_result& p : r.evaluated) {
        EXPECT_EQ(p.probe_detected + p.probe_masked, 3u) << p.name;
        EXPECT_GT(p.coverage, 0.0) << p.name;
        EXPECT_GT(p.area_mm2, 0.0) << p.name;
        EXPECT_GT(p.slowdown, 1.0) << p.name;
    }
}

TEST(search_driver, sharded_checkpoints_merge_byte_identical_to_unsharded) {
    const std::string dir = ::testing::TempDir() + "meek_search_shards";
    std::filesystem::remove_all(dir);
    const auto points = quick_points();
    sim::executor ex(4);

    const search::search_result whole =
        search::run_search(points, quick_opts(), ex);
    ASSERT_TRUE(whole.complete);

    search::search_options shard0 = quick_opts();
    shard0.shard_count = 2;
    shard0.shard_index = 0;
    shard0.checkpoint_dir = dir;
    const search::search_result first = search::run_search(points, shard0, ex);
    EXPECT_FALSE(first.complete) << "shard 1's points are not evaluated yet";
    ASSERT_EQ(first.missing_shards, (std::vector<u32>{1}));

    search::search_options shard1 = shard0;
    shard1.shard_index = 1;
    const search::search_result merged = search::run_search(points, shard1, ex);
    ASSERT_TRUE(merged.complete) << "shard 0's checkpoints satisfy its points";
    EXPECT_EQ(search::to_csv(merged, false), search::to_csv(whole, false));
    EXPECT_EQ(search::to_csv(merged, true), search::to_csv(whole, true));

    // A resumed re-run of either shard simulates nothing and still matches.
    shard1.resume = true;
    const search::search_result resumed = search::run_search(points, shard1, ex);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumed_points, points.size() / 2);
    EXPECT_EQ(search::to_csv(resumed, false), search::to_csv(whole, false));
    std::filesystem::remove_all(dir);
}

TEST(search_driver, checkpoints_from_a_different_search_setup_are_ignored) {
    const std::string dir = ::testing::TempDir() + "meek_search_foreign";
    std::filesystem::remove_all(dir);
    const auto points = quick_points();
    sim::executor ex(4);

    search::search_options opts = quick_opts();
    opts.checkpoint_dir = dir;
    opts.resume = true;
    const search::search_result first = search::run_search(points, opts, ex);
    ASSERT_TRUE(first.complete);
    EXPECT_EQ(first.resumed_points, 0u);

    // Same directory, different instruction budget: nothing may be trusted.
    search::search_options other = opts;
    other.instructions = 11'000;
    const search::search_result fresh = search::run_search(points, other, ex);
    ASSERT_TRUE(fresh.complete);
    EXPECT_EQ(fresh.resumed_points, 0u) << "foreign checkpoints must be re-run";

    // That run re-stamped the files with its own context, so the original
    // setup re-simulates once more — and only then resumes, bit-identically.
    const search::search_result restamp = search::run_search(points, opts, ex);
    EXPECT_EQ(restamp.resumed_points, 0u);
    const search::search_result again = search::run_search(points, opts, ex);
    EXPECT_EQ(again.resumed_points, points.size());
    EXPECT_EQ(search::to_csv(again, false), search::to_csv(first, false));
    std::filesystem::remove_all(dir);
}

TEST(search_driver, checkpoints_with_an_older_header_version_are_re_evaluated) {
    // v1 files hold coverage from an earlier probe engine under the same
    // context fingerprint: they must be simulated again, never trusted.
    const std::string dir = ::testing::TempDir() + "meek_search_v1";
    std::filesystem::remove_all(dir);
    const auto points = quick_points();
    sim::executor ex(4);

    search::search_options opts = quick_opts();
    opts.checkpoint_dir = dir;
    opts.resume = true;
    const search::search_result first = search::run_search(points, opts, ex);
    ASSERT_TRUE(first.complete);
    EXPECT_EQ(search::run_search(points, opts, ex).resumed_points, points.size());

    const std::string victim = dir + "/point_0_r0.ckpt";
    std::ostringstream body;
    body << std::ifstream(victim).rdbuf();
    std::string text = body.str();
    const std::string current = "meek-search-ckpt v2\n";
    ASSERT_EQ(text.rfind(current, 0), 0u) << text;
    text.replace(0, current.size(), "meek-search-ckpt v1\n");
    std::ofstream(victim, std::ios::trunc) << text;

    const search::search_result rerun = search::run_search(points, opts, ex);
    ASSERT_TRUE(rerun.complete);
    EXPECT_EQ(rerun.resumed_points, points.size() - 1) << "the v1 point re-simulates";
    EXPECT_EQ(search::to_csv(rerun, false), search::to_csv(first, false));
    std::filesystem::remove_all(dir);
}

TEST(search_driver, a_probe_above_one_shard_of_faults_never_nests_a_batch) {
    // 51 probe faults exceed the campaign's default 50 faults per shard. The
    // probe still runs as one shard inside its executor job, so even a
    // single worker — busy running that job — completes the search.
    const auto points = quick_points();
    search::search_options opts = quick_opts();
    opts.probe.faults = 51;
    sim::executor one(1);
    sim::executor two(2);
    const search::search_result a = search::run_search(points, opts, one);
    const search::search_result b = search::run_search(points, opts, two);
    ASSERT_TRUE(a.complete);
    for (const search::point_result& p : a.evaluated) {
        EXPECT_EQ(p.probe_detected + p.probe_masked, 51u) << p.name;
    }
    EXPECT_EQ(search::to_csv(a, false), search::to_csv(b, false));
}

TEST(search_driver, random_sampling_evaluates_the_seeded_subset) {
    const auto points = quick_points();
    sim::executor ex(4);
    search::search_options opts = quick_opts();
    opts.strategy = search::strategy_kind::random_sample;
    opts.sample_count = 2;
    const search::search_result r = search::run_search(points, opts, ex);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.evaluated.size(), 2u);
    EXPECT_EQ(r.pruned, points.size() - 2);
}

TEST(search_driver, successive_halving_prunes_before_the_full_budget_rung) {
    const auto points = quick_points();
    sim::executor ex(4);
    search::search_options opts = quick_opts();
    opts.strategy = search::strategy_kind::successive_halving;
    opts.halving_keep = 0.5;
    opts.halving_divisor = 4;
    const search::search_result r = search::run_search(points, opts, ex);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.evaluated.size(), 2u) << "ceil(0.5 * 4) survivors";
    EXPECT_EQ(r.pruned, 2u);
    for (const search::point_result& p : r.evaluated) {
        EXPECT_EQ(p.probe_detected + p.probe_masked, 3u)
            << "survivors are probed at the full rung";
    }
}

// The headline acceptance: with the off-registry axes open, the frontier
// strictly beats the best fixed-grid (registry) MEEK point on area x slowdown
// at no worse coverage.
TEST(search_driver, frontier_beats_the_registry_best_on_area_x_slowdown) {
    search::parameter_grid grid;
    grid.little_cores = {2};
    grid.lsl_bytes = {2048};
    grid.dc_buffer_depths = {8};
    grid.checker_freq_mhz = {2000};
    const auto points = search::enumerate_points(grid, /*include_registry=*/true);

    sim::executor ex(4);
    search::search_options opts = quick_opts();
    opts.instructions = 15'000;
    const search::search_result r = search::run_search(points, opts, ex);
    ASSERT_TRUE(r.complete);

    double best_registry = 1e300;
    double best_registry_coverage = 0.0;
    for (const search::point_result& p : r.evaluated) {
        if (p.system != sim::system_kind::meek || p.off_registry || p.skipped) continue;
        const double product = p.area_mm2 * p.slowdown;
        if (product < best_registry) {
            best_registry = product;
            best_registry_coverage = p.coverage;
        }
    }

    bool beaten = false;
    for (const std::size_t i : r.frontier) {
        const search::point_result& p = r.evaluated[i];
        if (!p.off_registry) continue;
        beaten = p.coverage >= best_registry_coverage &&
                 p.area_mm2 * p.slowdown < best_registry;
        if (beaten) break;
    }
    EXPECT_TRUE(beaten)
        << "an off-registry frontier point must strictly beat the registry "
           "best (product " << best_registry << ") at equal coverage";
}

}  // namespace
}  // namespace meek

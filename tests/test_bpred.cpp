// Branch-predictor tests: TAGE pattern learning (parameterized over pattern
// periods), incremental history folds, BTB and RAS behaviour.
#include <gtest/gtest.h>

#include "bpred/tage.h"
#include "common/rng.h"

namespace meek {
namespace {

branch_predictor_config default_bp() { return branch_predictor_config{}; }

double train_and_measure(tage_predictor& tage, addr_t pc,
                         const std::vector<bool>& pattern, int train_reps,
                         int measure_reps) {
    // Training phase.
    for (int rep = 0; rep < train_reps; ++rep) {
        for (const bool taken : pattern) {
            const tage_prediction p = tage.predict(pc);
            tage.update(pc, p, taken);
        }
    }
    // Measurement phase.
    u64 correct = 0;
    u64 total = 0;
    for (int rep = 0; rep < measure_reps; ++rep) {
        for (const bool taken : pattern) {
            const tage_prediction p = tage.predict(pc);
            tage.update(pc, p, taken);
            correct += p.taken == taken;
            ++total;
        }
    }
    return static_cast<double>(correct) / static_cast<double>(total);
}

TEST(tage, learns_always_taken) {
    tage_predictor tage(default_bp());
    const double acc = train_and_measure(tage, 0x1000, {true}, 50, 100);
    EXPECT_GT(acc, 0.99);
}

TEST(tage, learns_always_not_taken) {
    tage_predictor tage(default_bp());
    const double acc = train_and_measure(tage, 0x1000, {false}, 50, 100);
    EXPECT_GT(acc, 0.99);
}

// Periodic patterns up to the history length should be learnable by the
// tagged tables.
class tage_periodic : public ::testing::TestWithParam<int> {};

TEST_P(tage_periodic, learns_pattern_with_period) {
    const int period = GetParam();
    std::vector<bool> pattern(period, true);
    pattern.back() = false;  // T^{n-1} N
    tage_predictor tage(default_bp());
    const double acc = train_and_measure(tage, 0x2000, pattern, 400, 50);
    EXPECT_GT(acc, 0.90) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(periods, tage_periodic, ::testing::Values(2, 3, 4, 8, 16, 32));

TEST(tage, random_branch_is_near_chance) {
    tage_predictor tage(default_bp());
    rng r(77);
    u64 correct = 0;
    constexpr int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool taken = r.chance(0.5);
        const tage_prediction p = tage.predict(0x3000);
        tage.update(0x3000, p, taken);
        correct += p.taken == taken;
    }
    const double acc = static_cast<double>(correct) / n;
    EXPECT_LT(acc, 0.65);  // cannot learn true randomness
    EXPECT_GT(acc, 0.35);
}

TEST(tage, biased_branch_tracks_bias) {
    tage_predictor tage(default_bp());
    rng r(78);
    u64 correct = 0;
    constexpr int n = 4000;
    for (int i = 0; i < n; ++i) {
        const bool taken = r.chance(0.9);
        const tage_prediction p = tage.predict(0x4000);
        tage.update(0x4000, p, taken);
        correct += p.taken == taken;
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.80);
}

TEST(tage, distinct_pcs_do_not_interfere_destructively) {
    tage_predictor tage(default_bp());
    // Interleave two opposite always-patterns at different PCs.
    for (int i = 0; i < 500; ++i) {
        auto p1 = tage.predict(0x1000);
        tage.update(0x1000, p1, true);
        auto p2 = tage.predict(0x9000);
        tage.update(0x9000, p2, false);
    }
    u64 correct = 0;
    for (int i = 0; i < 100; ++i) {
        auto p1 = tage.predict(0x1000);
        tage.update(0x1000, p1, true);
        correct += p1.taken;
        auto p2 = tage.predict(0x9000);
        tage.update(0x9000, p2, false);
        correct += !p2.taken;
    }
    EXPECT_GT(correct, 190u);
}

TEST(tage, stats_track_lookups_and_mispredicts) {
    tage_predictor tage(default_bp());
    for (int i = 0; i < 10; ++i) {
        const tage_prediction p = tage.predict(0x100);
        tage.update(0x100, p, true);
    }
    EXPECT_EQ(tage.stats().lookups, 10u);
    EXPECT_LE(tage.stats().mispredicts, 10u);
}

// The XOR-fold of the newest `length` bits of `history` into `width` bits,
// recomputed from scratch.
u64 recomputed_fold(u64 history, u32 length, u32 width) {
    u64 fold = 0;
    for (u32 i = 0; i < length; ++i) fold ^= ((history >> i) & 1) << (i % width);
    return fold;
}

TEST(tage, incremental_folds_match_recomputed_folds) {
    // The default tables' history lengths (2..64, geometric) folded to the
    // index width (log2 of 1024 entries) and the tag width, plus widths
    // wider than the shortest histories, over a random branch stream.
    const branch_predictor_config cfg = default_bp();
    ASSERT_EQ(cfg.tage_tables, 6u);
    for (const u32 width : {10u, cfg.tage_tag_bits, 3u, 7u}) {
        for (const u32 length : {2u, 4u, 8u, 16u, 32u, 64u}) {
            folded_history fold(length, width);
            u64 history = 0;
            rng r(length * 131 + width);
            for (int step = 0; step < 500; ++step) {
                const bool taken = r.chance(0.5);
                fold.shift(taken, (history >> (length - 1)) & 1);
                history = (history << 1) | (taken ? 1 : 0);
                ASSERT_EQ(fold.value(), recomputed_fold(history, length, width))
                    << "length " << length << " width " << width << " step " << step;
            }
        }
    }
}

TEST(btb_unit, miss_then_hit) {
    btb b(64);
    addr_t target = 0;
    EXPECT_FALSE(b.lookup(0x1000, target));
    b.install(0x1000, 0x2000);
    EXPECT_TRUE(b.lookup(0x1000, target));
    EXPECT_EQ(target, 0x2000u);
}

TEST(btb_unit, conflicting_pcs_evict) {
    btb b(64);
    b.install(0x1000, 0x2000);
    b.install(0x1000 + 64 * 8, 0x3000);  // same slot (64 entries, stride 8)
    addr_t target = 0;
    EXPECT_FALSE(b.lookup(0x1000, target));
    EXPECT_TRUE(b.lookup(0x1000 + 64 * 8, target));
}

TEST(ras, lifo_order) {
    return_address_stack ras(4);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u);  // empty
}

TEST(ras, overflow_drops_oldest) {
    return_address_stack ras(2);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);  // drops 0x100
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_TRUE(ras.empty());
}

TEST(branch_predictor_bundle, call_return_pairs_via_ras) {
    branch_predictor bp(default_bp());
    // A call pushes the return address; the matching return predicts it.
    bp.note_call(0x1008);
    EXPECT_TRUE(bp.predict_indirect(0x5000, /*is_return=*/true, 0x1008));
    // Unbalanced return mispredicts.
    EXPECT_FALSE(bp.predict_indirect(0x5008, true, 0x2008));
    EXPECT_EQ(bp.indirect_stats().ras_mispredicts, 1u);
}

TEST(branch_predictor_bundle, indirect_jump_learns_target) {
    branch_predictor bp(default_bp());
    EXPECT_FALSE(bp.predict_indirect(0x7000, false, 0x9000));  // cold BTB
    EXPECT_TRUE(bp.predict_indirect(0x7000, false, 0x9000));   // learned
    EXPECT_FALSE(bp.predict_indirect(0x7000, false, 0xA000));  // target changed
    EXPECT_TRUE(bp.predict_indirect(0x7000, false, 0xA000));   // relearned
}

}  // namespace
}  // namespace meek

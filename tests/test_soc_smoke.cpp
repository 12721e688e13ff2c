// End-to-end smoke tests: a program runs on the big core under MEEK, gets
// segmented, replayed and verified by the little cores, with zero errors in
// the fault-free case, and with guaranteed detection when packets are
// corrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isa/assembler.h"
#include "meek/soc.h"

namespace meek {
namespace {

// Loop whose loaded values feed the live accumulator (so any corruption of
// forwarded data propagates to later stores / the ERCP), with enough ALU work
// per memory op to resemble a real kernel.
program loop_program(int iterations) {
    program_builder b;
    b.emit_li(1, iterations);
    b.emit_li(5, k_default_data_base);
    b.emit_li(6, 0);
    b.label("loop");
    b.emit(make_r(opcode::add, 6, 6, 1));
    b.emit(make_i(opcode::xori, 6, 6, 0x55));
    b.emit(make_i(opcode::slli, 8, 6, 1));
    b.emit(make_r(opcode::add, 6, 6, 8));
    b.emit(make_store(opcode::sd, 6, 5, 0));
    b.emit(make_load(opcode::ld, 7, 5, 0));
    b.emit(make_r(opcode::add, 6, 6, 7));  // loaded value stays live
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    return std::move(b).build();
}

TEST(soc_smoke, fault_free_run_verifies) {
    soc_config cfg;
    cfg.num_little_cores = 4;
    meek_soc soc(cfg);
    const program p = loop_program(2000);
    soc.load_program(p);
    const auto result = soc.run();
    EXPECT_TRUE(result.big.halted);
    EXPECT_TRUE(result.verified_ok);
    EXPECT_EQ(result.soc.segments_failed, 0u);
    EXPECT_GT(result.soc.segments_started, 1u);
    EXPECT_EQ(result.soc.segments_started, result.soc.segments_verified);
    // Every replayed instruction equals every committed instruction.
    u64 replayed = 0;
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        replayed += soc.little(i).stats().replayed_instructions;
    }
    EXPECT_EQ(replayed, soc.big_core().stats().instructions);
}

// No checker at all, or one that bit() cannot address, is refused at
// construction; neither SoC ever runs.
TEST(soc_smoke, little_core_counts_outside_the_destination_mask_do_not_construct) {
    for (const u32 cores : {0u, k_max_little_cores + 1}) {
        soc_config cfg;
        cfg.num_little_cores = cores;
        EXPECT_THROW(meek_soc{cfg}, std::invalid_argument) << cores;
    }
    soc_config cfg;
    cfg.num_little_cores = k_max_little_cores;
    EXPECT_NO_THROW(meek_soc{cfg});
}

TEST(soc_smoke, checking_disabled_runs_clean) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = loop_program(500);
    soc.load_program(p);
    soc.set_checking(false);
    const auto result = soc.run();
    EXPECT_TRUE(result.big.halted);
    EXPECT_EQ(result.soc.segments_started, 0u);
    EXPECT_EQ(soc.big_core().stats().stall_sink, 0u);
}

TEST(soc_smoke, corrupted_load_data_is_detected) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = loop_program(1000);
    soc.load_program(p);
    bool injected = false;
    soc.set_packet_hook([&](fwd_packet& pkt) {
        if (!injected && pkt.kind == packet_kind::runtime_load && pkt.seq > 300) {
            pkt.data ^= 1ull << 7;
            pkt.fault_injected = true;
            injected = true;
        }
    });
    const auto result = soc.run();
    EXPECT_TRUE(injected);
    EXPECT_FALSE(result.verified_ok);
    EXPECT_EQ(result.soc.errors_detected, 1u);
    ASSERT_EQ(soc.detections().size(), 1u);
}

TEST(soc_smoke, corrupted_store_address_is_detected) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = loop_program(1000);
    soc.load_program(p);
    bool injected = false;
    soc.set_packet_hook([&](fwd_packet& pkt) {
        if (!injected && pkt.kind == packet_kind::runtime_store && pkt.seq > 300) {
            pkt.addr ^= 1ull << 3;
            injected = true;
        }
    });
    const auto result = soc.run();
    EXPECT_TRUE(injected);
    EXPECT_FALSE(result.verified_ok);
    ASSERT_FALSE(soc.detections().empty());
    EXPECT_EQ(soc.detections()[0].kind, check_error_kind::store_addr_mismatch);
}

TEST(soc_smoke, corrupted_snapshot_word_is_detected) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = loop_program(2000);
    soc.load_program(p);
    bool injected = false;
    soc.set_packet_hook([&](fwd_packet& pkt) {
        // Corrupt one register word of a non-initial snapshot.
        if (!injected && pkt.kind == packet_kind::status_word && pkt.segment >= 1 &&
            pkt.word_index == 6) {
            pkt.data ^= 1ull << 33;
            injected = true;
        }
    });
    const auto result = soc.run();
    EXPECT_TRUE(injected);
    EXPECT_FALSE(result.verified_ok);
    EXPECT_GE(result.soc.errors_detected, 1u);
}

TEST(soc_smoke, slowdown_against_unchecked_baseline_is_small) {
    const program p = loop_program(4000);

    soc_config cfg;
    cfg.num_little_cores = 4;

    meek_soc checked(cfg);
    checked.load_program(p);
    const auto with_meek = checked.run();

    meek_soc baseline(cfg);
    baseline.load_program(p);
    baseline.set_checking(false);
    const auto vanilla = baseline.run();

    ASSERT_GT(vanilla.big.cycles, 0u);
    const double slowdown = static_cast<double>(with_meek.big.cycles) /
                            static_cast<double>(vanilla.big.cycles);
    EXPECT_GE(slowdown, 1.0);
    // This microloop is ~22% memory ops at high IPC — harsher than any real
    // workload; the bound only guards against gross regressions.
    EXPECT_LT(slowdown, 1.75) << "loop throttled more than expected";
}

TEST(soc_smoke, a_run_that_commits_nothing_never_pushes_back_in_time) {
    // With no commit, the big core ends at cycle 0, but the SRCP burst for
    // segment 0 already went out at later cycles. The final RCP must not be
    // stamped before it: packet creation times never decrease (fabric.h).
    soc_config cfg;
    cfg.num_little_cores = 4;
    meek_soc soc(cfg);
    const program p = loop_program(100);
    soc.load_program(p);
    std::vector<cycle_t> created;
    soc.set_packet_hook([&](fwd_packet& pk) { created.push_back(pk.created_big_cycle); });
    run_limits limits;
    limits.max_instructions = 0;
    const meek_run_result r = soc.run(limits);
    EXPECT_EQ(r.big.instructions, 0u);
    EXPECT_TRUE(r.error.empty()) << r.error;
    // SRCP burst, then the final segment end and its ERCP burst.
    ASSERT_EQ(created.size(), 2 * k_snapshot_words + 1);
    EXPECT_GT(created[k_snapshot_words - 1], 0u) << "the SRCP burst spans cycles";
    EXPECT_TRUE(std::is_sorted(created.begin(), created.end()));
    EXPECT_TRUE(r.verified_ok);
}

}  // namespace
}  // namespace meek

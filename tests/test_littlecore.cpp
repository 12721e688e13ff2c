// Little-core tests: the dual-mode pipeline, LSL semantics, checker phases,
// every detection path (parameterized), tuning latencies and the
// application-mode MEEK instructions.
#include <gtest/gtest.h>

#include "common/bits.h"
#include "isa/assembler.h"
#include "littlecore/little_core.h"

namespace meek {
namespace {

// Drives a single little core through a hand-built segment.
struct checker_fixture {
    functional_memory memory;
    little_core_config cfg;
    program prog;
    std::unique_ptr<little_core> core;
    u64 watermark = ~u64{0};  // big core "finished": rule never binds
    cycle_t now = 0;

    void init(const std::string& source,
              little_core_tuning tuning = little_core_tuning::optimized) {
        cfg.tuning = tuning;
        prog = assemble(source);
        core = std::make_unique<little_core>(cfg, 0, memory);
        core->set_program(prog);
        core->set_watermark(&watermark);
    }

    // Replays `count` instructions starting at the program entry with the
    // given register preset; returns the segment result.
    segment_result check_segment(const arch_snapshot& start, const arch_snapshot& end,
                                 u64 count, std::vector<fwd_packet> runtime) {
        core->assign_segment({.segment = 0, .start_seq = 0});
        for (u32 w = 0; w < k_snapshot_words; ++w) {
            fwd_packet p;
            p.kind = packet_kind::status_word;
            p.segment = 0;
            p.word_index = static_cast<u16>(w);
            p.data = snapshot_word(start, w);
            core->deliver_at(p, now);
        }
        for (fwd_packet& p : runtime) {
            p.segment = 0;
            core->deliver_at(p, now);
        }
        fwd_packet end_marker;
        end_marker.kind = packet_kind::segment_end;
        end_marker.segment = 0;
        end_marker.data = count;
        core->deliver_at(end_marker, now);
        for (u32 w = 0; w < k_snapshot_words; ++w) {
            fwd_packet p;
            p.kind = packet_kind::status_word;
            p.segment = 1;  // boundary after the segment = ERCP
            p.word_index = static_cast<u16>(w);
            p.data = snapshot_word(end, w);
            core->deliver_at(p, now);
        }
        for (int guard = 0; guard < 200'000 && !core->has_result(); ++guard) {
            core->tick(now++);
        }
        EXPECT_TRUE(core->has_result()) << "checker never finished";
        return core->collect_result();
    }
};

fwd_packet load_packet(addr_t addr, u64 data) {
    fwd_packet p;
    p.kind = packet_kind::runtime_load;
    p.addr = addr;
    p.data = data;
    p.size = 8;
    p.parity = parity64(data);
    return p;
}

fwd_packet store_packet(addr_t addr, u64 data) {
    fwd_packet p;
    p.kind = packet_kind::runtime_store;
    p.addr = addr;
    p.data = data;
    p.size = 8;
    return p;
}

// A 4-instruction segment: load, add, store, addi.
constexpr const char* k_segment_source = R"(
    ld x5, 0(x3)
    add x6, x5, x5
    sd x6, 8(x3)
    addi x7, x7, 1
    halt
)";

arch_snapshot make_start(const program& prog) {
    arch_state st;
    st.pc = prog.entry;
    st.write_x(3, 0x1000000);
    return arch_snapshot::capture(st);
}

// Golden end state for k_segment_source with a load returning `v`.
arch_snapshot make_end(const program& prog, u64 v) {
    arch_state st;
    st.pc = prog.entry + 4 * k_instr_bytes;
    st.write_x(3, 0x1000000);
    st.write_x(5, v);
    st.write_x(6, 2 * v);
    st.write_x(7, 1);
    return arch_snapshot::capture(st);
}

TEST(littlecore_checker, clean_segment_passes) {
    checker_fixture f;
    f.init(k_segment_source);
    const auto start = make_start(f.prog);
    const auto end = make_end(f.prog, 21);
    const segment_result r = f.check_segment(
        start, end, 4, {load_packet(0x1000000, 21), store_packet(0x1000008, 42)});
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.replayed_instructions, 4u);
    EXPECT_EQ(f.core->stats().segments_checked, 1u);
}

struct corruption_case {
    const char* name;
    int which;  // 0: load data, 1: load addr, 2: store data, 3: store addr,
                // 4: srcp reg, 5: ercp reg, 6: load parity (transit)
    check_error_kind expected;
};

class littlecore_detection : public ::testing::TestWithParam<corruption_case> {};

TEST_P(littlecore_detection, corruption_is_detected) {
    const corruption_case& c = GetParam();
    checker_fixture f;
    f.init(k_segment_source);
    arch_snapshot start = make_start(f.prog);
    arch_snapshot end = make_end(f.prog, 21);
    fwd_packet ld = load_packet(0x1000000, 21);
    fwd_packet st = store_packet(0x1000008, 42);

    switch (c.which) {
        case 0:
            ld.data ^= 1;  // core-side fault: parity consistent
            ld.parity = parity64(ld.data);
            break;
        case 1: ld.addr ^= 0x10; break;
        case 2: st.data ^= 1; break;
        case 3: st.addr ^= 0x10; break;
        case 4: start.xregs[3] ^= 1ull << 7; break;  // x3 (address base)
        case 5: end.xregs[7] ^= 1ull << 3; break;    // x7
        case 6: ld.parity ^= 1; break;  // transit fault: parity now wrong
    }

    const segment_result r = f.check_segment(start, end, 4, {ld, st});
    EXPECT_FALSE(r.passed) << c.name;
    EXPECT_EQ(r.error.kind, c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    kinds, littlecore_detection,
    ::testing::Values(
        // Corrupted load data flows into the derived store value first.
        corruption_case{"load_data", 0, check_error_kind::store_data_mismatch},
        corruption_case{"load_addr", 1, check_error_kind::load_addr_mismatch},
        corruption_case{"store_data", 2, check_error_kind::store_data_mismatch},
        corruption_case{"store_addr", 3, check_error_kind::store_addr_mismatch},
        corruption_case{"srcp_word", 4, check_error_kind::load_addr_mismatch},
        corruption_case{"ercp_word", 5, check_error_kind::ercp_mismatch},
        corruption_case{"transit_parity", 6, check_error_kind::parity_fault}),
    [](const auto& info) { return info.param.name; });

TEST(littlecore_checker, missing_log_entry_stalls_not_fails) {
    checker_fixture f;
    f.init(k_segment_source);
    const auto start = make_start(f.prog);
    f.core->assign_segment({.segment = 0, .start_seq = 0});
    for (u32 w = 0; w < k_snapshot_words; ++w) {
        fwd_packet p;
        p.kind = packet_kind::status_word;
        p.segment = 0;
        p.word_index = static_cast<u16>(w);
        p.data = snapshot_word(start, w);
        f.core->deliver_at(p, f.now);
    }
    // No runtime data delivered: the checker must busy-wait, not fail.
    for (int i = 0; i < 2000; ++i) f.core->tick(f.now++);
    EXPECT_FALSE(f.core->has_result());
    EXPECT_GT(f.core->stats().stall_lsl_empty, 0u);
}

TEST(littlecore_checker, one_behind_rule_blocks_at_watermark) {
    checker_fixture f;
    f.init(k_segment_source);
    f.watermark = 0;  // big core has committed nothing
    const auto start = make_start(f.prog);
    const auto end = make_end(f.prog, 21);
    f.core->assign_segment({.segment = 0, .start_seq = 0});
    for (u32 w = 0; w < k_snapshot_words; ++w) {
        fwd_packet p;
        p.kind = packet_kind::status_word;
        p.segment = 0;
        p.word_index = static_cast<u16>(w);
        p.data = snapshot_word(start, w);
        f.core->deliver_at(p, f.now);
    }
    fwd_packet ld = load_packet(0x1000000, 21);
    ld.segment = 0;
    f.core->deliver_at(ld, f.now);
    for (int i = 0; i < 2000; ++i) f.core->tick(f.now++);
    EXPECT_FALSE(f.core->has_result());
    EXPECT_GT(f.core->stats().stall_watermark, 0u);
    EXPECT_EQ(f.core->stats().replayed_instructions, 0u);

    // Big core commits two instructions: the checker may replay the first.
    f.watermark = 2;
    for (int i = 0; i < 2000 && f.core->stats().replayed_instructions < 1; ++i) {
        f.core->tick(f.now++);
    }
    EXPECT_EQ(f.core->stats().replayed_instructions, 1u);
    (void)end;
}

TEST(littlecore_checker, stale_segment_packets_are_dropped) {
    checker_fixture f;
    f.init(k_segment_source);
    f.core->assign_segment({.segment = 5, .start_seq = 0});
    fwd_packet stale = load_packet(0x1000000, 1);
    stale.segment = 4;  // belongs to an older segment
    f.core->deliver_at(stale, f.now);
    EXPECT_NO_THROW(f.core->tick(f.now++));  // accepted (dropped), no backpressure
    EXPECT_TRUE(f.core->lsl().runtime_empty());
}

TEST(littlecore_timing, divider_tuning_changes_replay_speed) {
    const std::string div_source = R"(
        div x5, x6, x7
        div x5, x5, x7
        div x5, x5, x7
        div x5, x5, x7
        halt
    )";
    auto run_with = [&](little_core_tuning tuning) {
        checker_fixture f;
        f.init(div_source, tuning);
        arch_state st;
        st.pc = f.prog.entry;
        st.write_x(6, 1000);
        st.write_x(7, 1);
        const auto start = arch_snapshot::capture(st);
        arch_state end_state = st;
        end_state.pc = f.prog.entry + 4 * k_instr_bytes;
        end_state.write_x(5, 1000);
        const auto end = arch_snapshot::capture(end_state);
        const segment_result r = f.check_segment(start, end, 4, {});
        EXPECT_TRUE(r.passed);
        return r.finished_lo_cycle;
    };
    const cycle_t optimized = run_with(little_core_tuning::optimized);
    const cycle_t default_rocket = run_with(little_core_tuning::default_rocket);
    // 4 chained divides: 66-cycle iterative vs 10-cycle 8-unroll.
    EXPECT_GT(default_rocket, optimized + 4 * 40);
}

TEST(littlecore_app, runs_programs_with_caches) {
    functional_memory memory;
    little_core core(little_core_config{}, 0, memory);
    const program p = assemble(R"(
        li x3, 0x1000000
        li x1, 50
        li x5, 0
    loop:
        add x5, x5, x1
        sd x5, 0(x3)
        ld x6, 0(x3)
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    core.set_program(p);
    core.state().pc = p.entry;
    const auto r = core.run_application(10'000);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(core.state().read_x(5), 50u * 51u / 2u);
    EXPECT_GT(r.cycles, r.instructions);  // CPI > 1 on a scalar core
}

TEST(littlecore_app, branch_predictor_learns_loop) {
    functional_memory memory;
    little_core core(little_core_config{}, 0, memory);
    const program p = assemble(R"(
        li x1, 400
    loop:
        addi x5, x5, 1
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    core.set_program(p);
    core.state().pc = p.entry;
    const auto r = core.run_application(10'000);
    // 3 instructions per iteration; with the BTB/BHT learned, taken branches
    // stop costing flushes, so CPI stays near 1.
    const double cpi = static_cast<double>(r.cycles) / static_cast<double>(r.instructions);
    EXPECT_LT(cpi, 1.25);
}

TEST(littlecore_app, l_record_and_l_apply_round_trip) {
    functional_memory memory;
    little_core core(little_core_config{}, 0, memory);
    const program p = assemble(R"(
        li x2, 0x4000000
        li x5, 77
        l.record x2
        li x5, 0          ; clobber after recording
        l.apply x2        ; restore: x5 back to 77... and pc back to l.record+8
        halt
    )");
    core.set_program(p);
    core.state().pc = p.entry;
    core.run_application(100);
    // l.apply restores the recorded state, in which x5 was 77. The recorded
    // pc points after l.record, so execution re-runs "li x5, 0" then l.apply
    // again — the MSU resolves this by resuming at the instruction after
    // l.apply when the snapshot pc is self-referential; our model simply
    // restores state, so the observable contract is x5 == recorded value at
    // the halt.
    EXPECT_EQ(memory.read(0x4000000 + 8 * (1 + 5), 8), 77u);  // x5 slot (word 0 is the PC)
}

TEST(littlecore_app, l_rslt_reflects_last_check) {
    functional_memory memory;
    little_core core(little_core_config{}, 0, memory);
    const program p = assemble(R"(
        l.rslt x5
        halt
    )");
    core.set_program(p);
    core.state().pc = p.entry;
    core.run_application(10);
    EXPECT_EQ(core.state().read_x(5), 1u);  // no failed checks yet
}

TEST(littlecore_checker, msu_restores_app_context_after_check) {
    checker_fixture f;
    f.init(k_segment_source);
    f.core->state().write_x(9, 0xAA55);  // application-mode context
    const auto start = make_start(f.prog);
    const auto end = make_end(f.prog, 5);
    const segment_result r = f.check_segment(
        start, end, 4, {load_packet(0x1000000, 5), store_packet(0x1000008, 10)});
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(f.core->mode(), core_mode::application);
    EXPECT_EQ(f.core->state().read_x(9), 0xAA55u);  // context restored by MSU
}

}  // namespace
}  // namespace meek

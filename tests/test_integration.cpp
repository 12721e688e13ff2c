// Deep SoC integration tests: segmentation triggers, the one-behind
// invariant, fabric-choice effects, multi-fault runs, checking toggles and
// drain semantics.
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "meek/soc.h"
#include "report/runner.h"
#include "workloads/generator.h"

namespace meek {
namespace {

program mem_heavy_loop(int iterations) {
    program_builder b;
    b.emit_li(1, iterations);
    b.emit_li(3, k_default_data_base);
    b.emit_li(11, 1);
    b.label("loop");
    b.emit(make_store(opcode::sd, 11, 3, 0));
    b.emit(make_load(opcode::ld, 8, 3, 0));
    b.emit(make_r(opcode::xor_, 11, 11, 8));
    b.emit(make_i(opcode::addi, 11, 11, 3));
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    return std::move(b).build();
}

TEST(soc_integration, lsl_full_drives_segmentation) {
    // 40% memory ops: segments end on LSL-full (256 entries), not timeout.
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(3000);  // 18k instrs, ~7.2k mem ops
    soc.load_program(p);
    const auto r = soc.run();
    ASSERT_TRUE(r.verified_ok);
    EXPECT_GT(soc.deu().stats().rcps_lsl_full, 20u);
    EXPECT_EQ(soc.deu().stats().rcps_timeout, 0u);
}

TEST(soc_integration, timeout_drives_segmentation_for_alu_code) {
    soc_config cfg;
    meek_soc soc(cfg);
    program_builder b;
    b.emit_li(1, 4000);
    b.label("loop");
    for (int i = 0; i < 4; ++i) b.emit(make_i(opcode::addi, 8, 8, 1));
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    const program p = std::move(b).build();
    soc.load_program(p);
    const auto r = soc.run();
    ASSERT_TRUE(r.verified_ok);
    EXPECT_GT(soc.deu().stats().rcps_timeout, 3u);
    EXPECT_EQ(soc.deu().stats().rcps_lsl_full, 0u);
}

TEST(soc_integration, kernel_trap_ends_segment) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = assemble(R"(
        li x5, 1
        ecall
        li x6, 2
        halt
    )");
    soc.big_core().set_trap_handler(
        [](trap_cause, addr_t pc, arch_state&) -> ooo_core::trap_outcome {
            return {.resume_pc = pc + k_instr_bytes, .kernel_cycles = 10};
        });
    soc.load_program(p);
    const auto r = soc.run();
    EXPECT_TRUE(r.verified_ok);
    EXPECT_EQ(soc.deu().stats().rcps_trap, 1u);
}

TEST(soc_integration, checkers_never_run_ahead_of_commit) {
    // The one-behind rule: replayed instructions <= committed - 1 while the
    // main thread runs. We probe it by checking total replay lag via the
    // watermark-stall statistics on a tight producer.
    soc_config cfg;
    cfg.num_little_cores = 6;  // overprovisioned so checkers chase the head
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(1500);
    soc.load_program(p);
    const auto r = soc.run();
    ASSERT_TRUE(r.verified_ok);
    cycle_t watermark_stalls = 0;
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        watermark_stalls += soc.little(i).stats().stall_watermark;
    }
    EXPECT_GT(watermark_stalls, 0u)
        << "overprovisioned checkers should hit the one-behind rule";
}

TEST(soc_integration, f2_outperforms_axi_on_memory_heavy_code) {
    const workload_profile& p = *find_profile("streamcluster");
    soc_config f2;
    const auto m_f2 = measure_meek(f2, p, 60'000);
    soc_config axi;
    axi.fabric.kind = fabric_kind::axi_interconnect;
    const auto m_axi = measure_meek(axi, p, 60'000);
    EXPECT_TRUE(m_f2.meek.verified_ok);
    EXPECT_TRUE(m_axi.meek.verified_ok);
    EXPECT_LT(m_f2.slowdown, m_axi.slowdown);
    EXPECT_GT(m_axi.meek.soc.stall_forwarding, m_f2.meek.soc.stall_forwarding);
}

TEST(soc_integration, multiple_spaced_faults_all_detected) {
    soc_config cfg;
    meek_soc soc(cfg);
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 80'000, 3);
    soc.load_program(wl.prog);
    u32 injected = 0;
    u64 next_at = 2'000;
    soc.set_packet_hook([&](fwd_packet& pkt) {
        if (injected < 5 && pkt.seq >= next_at &&
            pkt.kind == packet_kind::runtime_store) {
            pkt.addr ^= 1ull << 5;
            ++injected;
            next_at = pkt.seq + 12'000;
        }
    });
    const auto r = soc.run();
    EXPECT_EQ(injected, 5u);
    EXPECT_EQ(r.soc.errors_detected, 5u);
    // Detections arrive in injection order.
    for (std::size_t i = 1; i < soc.detections().size(); ++i) {
        EXPECT_GE(soc.detections()[i].detect_big_cycle,
                  soc.detections()[i - 1].detect_big_cycle);
    }
}

TEST(soc_integration, toggling_checking_off_and_on) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(500);
    soc.load_program(p);
    soc.set_checking(false);
    auto r = soc.run({.max_instructions = 1'000});
    EXPECT_EQ(r.soc.segments_started, 0u);
    // b.check(ENABLE): the remainder of the run is verified.
    soc.set_checking(true);
    r = soc.run();
    EXPECT_TRUE(r.big.halted);
    EXPECT_GT(r.soc.segments_started, 0u);
    EXPECT_TRUE(r.verified_ok);
}

TEST(soc_integration, drain_completes_all_outstanding_segments) {
    soc_config cfg;
    cfg.num_little_cores = 2;  // backlog builds up
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(2000);
    soc.load_program(p);
    const auto r = soc.run();
    EXPECT_TRUE(r.big.halted);
    EXPECT_TRUE(r.verified_ok);
    EXPECT_EQ(r.soc.segments_started, r.soc.segments_verified);
    EXPECT_TRUE(soc.fabric().drained());
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        EXPECT_TRUE(soc.little(i).idle());
    }
}

TEST(soc_integration, segment_accounting_matches_commit_count) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(1000);
    soc.load_program(p);
    const auto r = soc.run();
    ASSERT_TRUE(r.verified_ok);
    u64 replayed = 0;
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        replayed += soc.little(i).stats().replayed_instructions;
    }
    EXPECT_EQ(replayed, soc.big_core().stats().instructions);
    // Multicast delivers one pushed status packet to two destinations, so
    // deliveries can exceed pushes — but nothing may be lost.
    EXPECT_GE(soc.fabric().stats().packets_delivered,
              soc.fabric().stats().packets_pushed);
    EXPECT_TRUE(soc.fabric().drained());
}

TEST(soc_integration, little_core_counts_sweep_monotonic) {
    const workload_profile& p = *find_profile("blackscholes");
    double previous = 1e9;
    for (const u32 cores : {2u, 4u, 6u}) {
        soc_config cfg;
        cfg.num_little_cores = cores;
        const auto m = measure_meek(cfg, p, 50'000);
        EXPECT_TRUE(m.meek.verified_ok);
        EXPECT_LE(m.slowdown, previous + 0.02) << cores << " cores";
        previous = m.slowdown;
    }
}

TEST(soc_integration, selective_broadcast_saves_transactions_on_f2) {
    soc_config cfg;
    meek_soc soc(cfg);
    const program p = mem_heavy_loop(1500);
    soc.load_program(p);
    soc.run();
    // Every mid-run RCP snapshot serves two destinations via multicast.
    EXPECT_GT(soc.fabric().stats().multicast_merged, 100u);
}

TEST(soc_integration, runner_slowdown_baseline_consistency) {
    const workload_profile& p = *find_profile("hmmer");
    const generated_workload wl = generate_workload(p, 40'000, 0xC0FFEE);
    const system_run direct = run_on_big_core(big_core_config{}, wl.prog);
    const auto m = measure_meek(soc_config{}, p, 40'000);
    EXPECT_EQ(m.baseline_cycles, direct.cycles);
    EXPECT_GE(m.slowdown, 1.0);
}

}  // namespace
}  // namespace meek

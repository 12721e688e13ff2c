// Baseline tests: the nZDC transform (semantic equivalence, fault detection,
// expansion, control-flow retargeting) and the EA-LockStep area-matched
// scaling construction.
#include <gtest/gtest.h>

#include "area/area_model.h"
#include "baselines/nzdc.h"
#include "bigcore/ooo_core.h"
#include "isa/assembler.h"
#include "workloads/generator.h"

namespace meek {
namespace {

run_result run_to_halt(ooo_core& core, const program& p) {
    core.load_program(p);
    return core.run({.max_cycles = 100'000'000});
}

TEST(nzdc, transformed_program_computes_same_result) {
    const program original = assemble(R"(
        li x3, 0x1000000
        li x1, 30
        li x5, 0
    loop:
        add x5, x5, x1
        sd x5, 0(x3)
        ld x6, 0(x3)
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const nzdc_program transformed = transform_nzdc(original);

    functional_memory m1;
    ooo_core c1(big_core_config{}, m1);
    ASSERT_TRUE(run_to_halt(c1, original).halted);

    functional_memory m2;
    ooo_core c2(big_core_config{}, m2);
    ASSERT_TRUE(run_to_halt(c2, transformed.prog).halted);

    EXPECT_EQ(c1.state().read_x(5), c2.state().read_x(5));
    EXPECT_EQ(c1.state().read_x(6), c2.state().read_x(6));
    EXPECT_EQ(m1.read(0x1000000, 8), m2.read(0x1000000, 8));
    // Shadow copies mirror the primaries at the end.
    EXPECT_EQ(c2.state().read_x(5), c2.state().read_x(5 + 16));
}

TEST(nzdc, transformed_fp_program_matches) {
    const program original = assemble(R"(
        li x5, 0x4000000000000000
        fmv.d.x f1, x5
        li x1, 10
    loop:
        fmul.d f2, f1, f1
        fadd.d f1, f2, f1
        fsub.d f1, f1, f2
        addi x1, x1, -1
        bne x1, x0, loop
        fcvt.l.d x6, f1
        halt
    )");
    const nzdc_program transformed = transform_nzdc(original);

    functional_memory m1;
    ooo_core c1(big_core_config{}, m1);
    run_to_halt(c1, original);
    functional_memory m2;
    ooo_core c2(big_core_config{}, m2);
    run_to_halt(c2, transformed.prog);
    EXPECT_EQ(c1.state().read_x(6), c2.state().read_x(6));
    EXPECT_EQ(c2.state().read_f(1), c2.state().read_f(1 + 16));
}

TEST(nzdc, detects_corrupted_primary_register) {
    // Simulate a transient fault by desynchronizing a primary register from
    // its shadow mid-program; the next compare must branch to the handler.
    const program original = assemble(R"(
        li x5, 10
        li x3, 0x1000000
        ecall          ; fault injection point (handler flips x5)
        sd x5, 0(x3)   ; store compare must fire
        li x7, 1       ; only reached if the fault went undetected
        halt
    )");
    const nzdc_program transformed = transform_nzdc(original);

    functional_memory memory;
    ooo_core core(big_core_config{}, memory);
    bool hit_handler = false;
    core.set_trap_handler([&](trap_cause cause, addr_t pc, arch_state& st)
                              -> ooo_core::trap_outcome {
        if (cause == trap_cause::ecall) {
            st.write_x(5, st.read_x(5) ^ 0x40);  // the injected bit flip
            return {.resume_pc = pc + k_instr_bytes, .kernel_cycles = 1};
        }
        // ebreak == nZDC fault handler reached.
        hit_handler = true;
        return {.resume_pc = pc + k_instr_bytes, .kernel_cycles = 1};
    });
    core.load_program(transformed.prog);
    core.run({});
    EXPECT_TRUE(hit_handler);
    EXPECT_EQ(core.state().read_x(7), 0u);  // the store path never completed
}

TEST(nzdc, expansion_is_near_two_for_alu_code) {
    program_builder b;
    for (int i = 0; i < 100; ++i) {
        b.emit(make_r(opcode::add, 5, 6, 7));
    }
    b.emit(make_sys(opcode::halt));
    const nzdc_program t = transform_nzdc(std::move(b).build());
    // Every ALU op duplicated: 200 + prologue + halt + handler.
    EXPECT_GT(t.stats.expansion(), 1.8);
    EXPECT_EQ(t.stats.duplicated, 100u);
}

TEST(nzdc, rejects_programs_using_shadow_registers) {
    program_builder b;
    b.emit(make_r(opcode::add, 20, 5, 6));  // x20 is in the shadow set
    b.emit(make_sys(opcode::halt));
    const program p = std::move(b).build();
    EXPECT_THROW(transform_nzdc(p), std::invalid_argument);
}

TEST(nzdc, branch_targets_survive_relocation) {
    // Forward and backward branches across bundles with inserted compares.
    const program original = assemble(R"(
        li x1, 5
        li x5, 0
    outer:
        addi x5, x5, 3
        beq x1, x0, done
        addi x1, x1, -1
        j outer
    done:
        halt
    )");
    const nzdc_program t = transform_nzdc(original);
    functional_memory memory;
    ooo_core core(big_core_config{}, memory);
    const run_result r = run_to_halt(core, t.prog);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(core.state().read_x(5), 18u);  // 6 iterations x 3
}

TEST(nzdc, generated_workloads_survive_transform) {
    for (const char* name : {"hmmer", "blackscholes", "mcf"}) {
        const generated_workload wl = generate_workload(*find_profile(name), 8'000, 9);
        const nzdc_program t = transform_nzdc(wl.prog);
        functional_memory memory;
        ooo_core core(big_core_config{}, memory);
        const run_result r = run_to_halt(core, t.prog);
        EXPECT_TRUE(r.halted) << name;
        EXPECT_GT(t.stats.expansion(), 1.4) << name;
    }
}

TEST(ea_lockstep, scaled_pair_matches_big_plus_meek_area) {
    const area_model areas;
    const soc_config cfg;
    const double scale = areas.ea_lockstep_scale(cfg);
    EXPECT_GT(scale, 0.4);
    EXPECT_LT(scale, 0.9);

    const big_core_config scaled = areas.ea_lockstep_config(cfg);
    const double pair = 2.0 * areas.big_core_area(scaled);
    const double target = areas.big_core_area(cfg.big) + areas.meek_extra_area(cfg);
    EXPECT_NEAR(pair, target, target * 0.02);
}

TEST(ea_lockstep, scaled_core_is_strictly_smaller_but_functional) {
    const area_model areas;
    const soc_config cfg;
    const big_core_config scaled = areas.ea_lockstep_config(cfg);
    EXPECT_LT(scaled.rob_entries, cfg.big.rob_entries);
    EXPECT_LT(scaled.l1d.size_bytes, cfg.big.l1d.size_bytes);
    EXPECT_GE(scaled.fetch_width, 1u);

    // It still runs workloads correctly, just slower.
    const generated_workload wl = generate_workload(*find_profile("hmmer"), 20'000, 4);
    functional_memory m1;
    ooo_core full(cfg.big, m1);
    const run_result rf = run_to_halt(full, wl.prog);
    functional_memory m2;
    ooo_core small(scaled, m2);
    const run_result rs = run_to_halt(small, wl.prog);
    ASSERT_TRUE(rf.halted);
    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rf.instructions, rs.instructions);
    EXPECT_GT(rs.cycles, rf.cycles);  // area cut costs performance
}

}  // namespace
}  // namespace meek

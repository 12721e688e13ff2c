// Big-core model tests: functional correctness of architectural state plus
// first-order timing properties (ILP vs chains, divider cost, mispredicts,
// structure stalls, store-to-load forwarding, the commit stream contract),
// and the store buffer's granule filter against a brute-force scan.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bigcore/ooo_core.h"
#include "bigcore/store_buffer.h"
#include "common/bits.h"
#include "common/rng.h"
#include "isa/assembler.h"

namespace meek {
namespace {

struct core_fixture {
    functional_memory memory;
    ooo_core core{big_core_config{}, memory};

    run_result run(const program& p, u64 max_instr = ~u64{0}) {
        core.load_program(p);
        return core.run({.max_instructions = max_instr});
    }
};

program repeat_block(const std::string& block, int times, const std::string& prologue) {
    std::string src = prologue + "\n";
    for (int i = 0; i < times; ++i) src += block + "\n";
    src += "halt\n";
    return assemble(src);
}

TEST(bigcore, computes_fibonacci) {
    core_fixture f;
    const program p = assemble(R"(
        li x1, 20       ; n
        li x5, 0        ; a
        li x6, 1        ; b
    loop:
        add x7, x5, x6
        mv x5, x6
        mv x6, x7
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = f.run(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(f.core.state().read_x(5), 6765u);  // fib(20)
}

TEST(bigcore, memory_correctness_through_loads_and_stores) {
    core_fixture f;
    const program p = assemble(R"(
        li x3, 0x1000000
        li x5, 0xdead
        sd x5, 0(x3)
        ld x6, 0(x3)
        sw x6, 8(x3)
        lw x7, 8(x3)
        lb x8, 0(x3)
        halt
    )");
    f.run(p);
    EXPECT_EQ(f.core.state().read_x(6), 0xdeadu);
    EXPECT_EQ(f.core.state().read_x(7), 0xdeadu);
    EXPECT_EQ(f.core.state().read_x(8), 0xffffffffffffffadull);  // sign-extended
    EXPECT_EQ(f.memory.read(0x1000000, 8), 0xdeadu);
}

TEST(bigcore, independent_ops_reach_multi_issue_ipc) {
    core_fixture f;
    // Hot loop (I$ warm) with four independent chains on 2 int ALUs.
    const program p = assemble(R"(
        li x1, 1000
    loop:
        addi x5, x5, 1
        addi x6, x6, 1
        addi x7, x7, 1
        addi x8, x8, 1
        addi x5, x5, 1
        addi x6, x6, 1
        addi x7, x7, 1
        addi x8, x8, 1
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = f.run(p);
    const double ipc =
        static_cast<double>(r.instructions) / static_cast<double>(r.cycles);
    EXPECT_GT(ipc, 1.6);  // ALU-bound at ~2 IPC
}

TEST(bigcore, serial_chain_is_ipc_bound_at_one) {
    core_fixture f;
    // One long dependency chain in a hot loop: at most ~1 IPC.
    const program p = assemble(R"(
        li x1, 1000
    loop:
        addi x5, x5, 1
        addi x5, x5, 1
        addi x5, x5, 1
        addi x5, x5, 1
        addi x5, x5, 1
        addi x5, x5, 1
        addi x5, x5, 1
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = f.run(p);
    const double ipc =
        static_cast<double>(r.instructions) / static_cast<double>(r.cycles);
    EXPECT_LT(ipc, 1.35);  // loop overhead ops add a little parallelism
    EXPECT_GT(ipc, 0.8);
    EXPECT_EQ(f.core.state().read_x(5), 7000u);
}

TEST(bigcore, dependent_divides_are_slow) {
    core_fixture f;
    const program chain = repeat_block("div x5, x5, x6", 200, "li x5, 1000000\nli x6, 1");
    const run_result r = f.run(chain);
    const double cpi =
        static_cast<double>(r.cycles) / static_cast<double>(r.instructions);
    EXPECT_GT(cpi, 8.0);  // 12-cycle unpipelined divider dominates
}

TEST(bigcore, predictable_branches_cost_little) {
    core_fixture f;
    const program p = assemble(R"(
        li x1, 3000
    loop:
        addi x5, x5, 1
        addi x6, x6, 1
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = f.run(p);
    EXPECT_LT(static_cast<double>(f.core.stats().mispredicts) /
                  static_cast<double>(f.core.stats().branches),
              0.01);
    const double ipc =
        static_cast<double>(r.instructions) / static_cast<double>(r.cycles);
    EXPECT_GT(ipc, 1.5);
}

TEST(bigcore, data_dependent_branches_hurt_ipc) {
    // Branch on a PRNG bit: unpredictable, so IPC collapses vs the biased loop.
    core_fixture fa;
    const program random_branches = assemble(R"(
        li x1, 2000
        li x5, 12345
    loop:
        slli x6, x5, 13
        xor x5, x5, x6
        srli x6, x5, 7
        xor x5, x5, x6
        andi x7, x5, 1
        beq x7, x0, skip
        addi x8, x8, 1
    skip:
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = fa.run(random_branches);
    const double mispredict_rate =
        static_cast<double>(fa.core.stats().mispredicts) /
        static_cast<double>(fa.core.stats().branches);
    EXPECT_GT(mispredict_rate, 0.15);
    EXPECT_GT(fa.core.stats().stall_redirect, 0u);
    const double ipc =
        static_cast<double>(r.instructions) / static_cast<double>(r.cycles);
    EXPECT_LT(ipc, 1.5);
}

TEST(bigcore, store_to_load_forwarding_beats_cache_path) {
    // Same-address store->load pairs: values must be correct and the load
    // must not pay a miss.
    core_fixture f;
    const program p = assemble(R"(
        li x3, 0x1000000
        li x1, 500
        li x5, 7
    loop:
        add x5, x5, x1
        sd x5, 0(x3)
        ld x6, 0(x3)
        add x7, x7, x6
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    const run_result r = f.run(p);
    EXPECT_TRUE(r.halted);
    // Functional check: x6 ends with the last stored value
    // (7 + sum(500..1) = 125257).
    EXPECT_EQ(f.core.state().read_x(6), 125257u);
    // Timing check: only the first touch of the line misses L1D.
    EXPECT_LE(f.core.hierarchy().l1d().stats().misses, 4u);
}

// The youngest of the last `window` stores overlapping [addr, addr+size):
// what the store buffer must return, found by scanning every store.
const store_buffer::entry* brute_youngest(const std::vector<store_buffer::entry>& all,
                                          std::size_t window, addr_t addr, u8 size) {
    const std::size_t first = all.size() > window ? all.size() - window : 0;
    for (std::size_t i = all.size(); i-- > first;) {
        const store_buffer::entry& s = all[i];
        if (addr + size > s.addr && addr < s.addr + s.size) return &s;
    }
    return nullptr;
}

TEST(store_buffer, filter_aliases_and_straddling_stores_match_a_full_scan) {
    store_buffer sb(4);
    // A store straddling an 8-byte boundary covers granules 0 and 1.
    sb.push({0x1006, 4, 10, 11});
    ASSERT_NE(sb.youngest_overlap(0x1008, 1), nullptr);
    ASSERT_NE(sb.youngest_overlap(0x1000, 8), nullptr);
    EXPECT_EQ(sb.youngest_overlap(0x1000, 6), nullptr) << "bytes 0..5 are untouched";
    EXPECT_EQ(sb.youngest_overlap(0x100a, 2), nullptr);
    // 2 KiB apart: same filter counter, no overlap; the scan must say no.
    EXPECT_EQ(sb.youngest_overlap(0x1806, 4), nullptr);
    EXPECT_EQ(sb.youngest_overlap(0x1008 + 2048, 1), nullptr);
    // The youngest overlapping store wins.
    sb.push({0x1004, 4, 20, 21});
    ASSERT_NE(sb.youngest_overlap(0x1006, 1), nullptr);
    EXPECT_EQ(sb.youngest_overlap(0x1006, 1)->data_ready, 20u);
    EXPECT_EQ(sb.youngest_overlap(0x1008, 1)->data_ready, 10u);
    // Eviction beyond the window clears the filter counts again.
    for (addr_t a = 0; a < 4; ++a) sb.push({0x4000 + 8 * a, 8, 30, 31});
    EXPECT_EQ(sb.size(), 4u);
    EXPECT_EQ(sb.youngest_overlap(0x1000, 16), nullptr);

    // Random streams over a region where most addresses alias in the filter
    // (2 KiB stride) and many accesses straddle granules.
    for (const u32 window : {1u, 5u, 32u}) {
        SCOPED_TRACE(window);
        store_buffer buf(window);
        std::vector<store_buffer::entry> all;
        rng r(window);
        const u8 sizes[] = {1, 2, 4, 8};
        for (cycle_t t = 0; t < 20'000; ++t) {
            const addr_t addr = 0x8000 + 2048 * (r.next() % 4) + r.next() % 24;
            const u8 size = sizes[r.next() % 4];
            if (r.chance(0.4)) {
                const store_buffer::entry e{addr, size, t, t + 1};
                buf.push(e);
                all.push_back(e);
                continue;
            }
            const store_buffer::entry* want = brute_youngest(all, window, addr, size);
            const store_buffer::entry* got = buf.youngest_overlap(addr, size);
            ASSERT_EQ(got == nullptr, want == nullptr) << "load " << t;
            if (got != nullptr) {
                ASSERT_EQ(got->data_ready, want->data_ready);
            }
        }
    }
}

TEST(bigcore, rob_limits_inflight_window) {
    big_core_config tiny;
    tiny.rob_entries = 8;
    functional_memory memory;
    ooo_core core(tiny, memory);
    // A 12-cycle divide heads each iteration: the 8-entry ROB fills behind it.
    const program p = assemble(R"(
        li x1, 200
        li x5, 900
        li x6, 3
    loop:
        div x8, x5, x6
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x7, x7, 1
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    core.load_program(p);
    const run_result r = core.run({});
    EXPECT_TRUE(r.halted);
    EXPECT_GT(core.stats().stall_rob_full, 0u);
}

TEST(bigcore, csr_counters_are_non_repeatable) {
    core_fixture f;
    const program p = assemble(R"(
        csrrs x5, 0xB00, x0   ; mcycle
        csrrs x6, 0xB00, x0
        csrrs x7, 0x7C0, x0   ; uarch entropy
        csrrs x8, 0x7C0, x0
        halt
    )");
    f.run(p);
    EXPECT_GT(f.core.state().read_x(6), f.core.state().read_x(5));
    EXPECT_NE(f.core.state().read_x(7), f.core.state().read_x(8));
}

TEST(bigcore, trap_handler_controls_resume) {
    core_fixture f;
    const program p = assemble(R"(
        li x5, 1
        ecall
        li x5, 2        ; skipped by the handler redirect
    target:
        li x6, 42
        halt
    )");
    f.core.set_trap_handler([&](trap_cause cause, addr_t pc, arch_state& st)
                                -> ooo_core::trap_outcome {
        EXPECT_EQ(cause, trap_cause::ecall);
        st.write_x(10, pc);
        // Skip the "li x5, 2" instruction (entry + 2 instructions ahead).
        return {.resume_pc = pc + 2 * k_instr_bytes, .kernel_cycles = 100};
    });
    f.core.load_program(p);
    const run_result r = f.core.run({});
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(f.core.state().read_x(5), 1u);
    EXPECT_EQ(f.core.state().read_x(6), 42u);
    EXPECT_EQ(f.core.stats().traps, 1u);
}

TEST(bigcore, commit_stream_contract) {
    struct recorder : commit_sink {
        std::vector<commit_record> records;
        cycle_t on_commit(const commit_record& rec, cycle_t proposed) override {
            records.push_back(rec);
            return proposed;
        }
    } sink;

    core_fixture f;
    const program p = assemble(R"(
        li x3, 0x1000000
        li x5, 99
        sd x5, 8(x3)
        ld x6, 8(x3)
        halt
    )");
    f.core.load_program(p);
    f.core.run({}, &sink);

    ASSERT_EQ(sink.records.size(), 5u);
    // Sequence numbers are dense and ascending; commit cycles monotone.
    for (std::size_t i = 0; i < sink.records.size(); ++i) {
        EXPECT_EQ(sink.records[i].seq, i);
        if (i > 0) {
            EXPECT_GE(sink.records[i].commit_cycle, sink.records[i - 1].commit_cycle);
        }
    }
    const commit_record& store = sink.records[2];
    ASSERT_TRUE(store.mem.has_value());
    EXPECT_TRUE(store.mem->is_store);
    EXPECT_EQ(store.mem->addr, 0x1000008u);
    EXPECT_EQ(store.mem->store_data, 99u);

    const commit_record& load = sink.records[3];
    ASSERT_TRUE(load.mem.has_value());
    EXPECT_FALSE(load.mem->is_store);
    EXPECT_EQ(load.load_data, 99u);
    EXPECT_EQ(load.load_parity, parity64(99));
    EXPECT_TRUE(load.reg_write);
    EXPECT_EQ(load.rd_value, 99u);
}

TEST(bigcore, sink_backpressure_stalls_commit) {
    struct slow_sink : commit_sink {
        cycle_t on_commit(const commit_record&, cycle_t proposed) override {
            return proposed + 50;  // every commit delayed
        }
    } sink;

    core_fixture fast;
    const program p = repeat_block("addi x5, x5, 1", 100, "li x5, 0");
    fast.core.load_program(p);
    const run_result free_run = fast.core.run({});

    core_fixture throttled;
    throttled.core.load_program(p);
    const run_result slow_run = throttled.core.run({}, &sink);

    EXPECT_GT(slow_run.cycles, free_run.cycles + 100 * 40);
    EXPECT_GT(throttled.core.stats().stall_sink, 0u);
}

TEST(bigcore, run_limits_truncate_and_resume) {
    core_fixture f;
    const program p = repeat_block("addi x5, x5, 1", 100, "li x5, 0");
    f.core.load_program(p);
    const run_result first = f.core.run({.max_instructions = 10});
    EXPECT_TRUE(first.truncated);
    EXPECT_EQ(first.instructions, 10u);
    const run_result rest = f.core.run({});
    EXPECT_TRUE(rest.halted);
    EXPECT_EQ(f.core.state().read_x(5), 100u);
}

TEST(bigcore, run_limits_stop_flag_ends_after_the_setting_commit_and_resumes) {
    // Raises the caller-owned stop flag while committing instruction 37.
    struct stopping_sink : commit_sink {
        bool stop = false;
        cycle_t on_commit(const commit_record& rec, cycle_t proposed) override {
            if (rec.seq == 37) stop = true;
            return proposed;
        }
    } sink;
    const program p = repeat_block("addi x5, x5, 1", 100, "li x5, 0");

    core_fixture whole;
    ASSERT_TRUE(whole.run(p).halted);

    core_fixture f;
    run_limits limits;
    limits.stop = &sink.stop;
    f.core.load_program(p);
    const run_result first = f.core.run(limits, &sink);
    EXPECT_TRUE(first.truncated);
    EXPECT_FALSE(first.halted);
    EXPECT_EQ(first.instructions, 38u);
    EXPECT_EQ(f.core.stats().instructions, 38u);

    // Still set: a second call returns at once without simulating.
    EXPECT_EQ(f.core.run(limits, &sink).instructions, 0u);

    sink.stop = false;
    const run_result rest = f.core.run(limits, &sink);
    EXPECT_TRUE(rest.halted);
    EXPECT_EQ(first.instructions + rest.instructions, whole.core.stats().instructions);
    EXPECT_EQ(f.core.stats(), whole.core.stats());
    EXPECT_EQ(f.core.state().read_x(5), 100u);
}

TEST(bigcore, fp_pipeline_and_values) {
    core_fixture f;
    const program p = assemble(R"(
        li x5, 0x4000000000000000   ; 2.0
        fmv.d.x f1, x5
        li x5, 0x4008000000000000   ; 3.0
        fmv.d.x f2, x5
        fmadd.d f3, f1, f2, f1      ; 2*3+2 = 8
        fcvt.l.d x6, f3
        fdiv.d f4, f2, f1           ; 1.5
        fsqrt.d f5, f1
        halt
    )");
    const run_result r = f.run(p);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(f.core.state().read_x(6), 8u);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(f.core.state().read_f(4)), 1.5);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(f.core.state().read_f(5)),
                     std::sqrt(2.0));
    EXPECT_EQ(f.core.stats().fp_div_ops, 2u);
}

TEST(bigcore, icache_misses_accounted_on_big_footprint_code) {
    core_fixture f;
    // A straight-line program larger than L1I (32 KB = 4096 instructions).
    const program p = repeat_block("addi x5, x5, 1", 6000, "li x5, 0");
    f.run(p);
    EXPECT_GT(f.core.hierarchy().l1i().stats().misses, 40u);
    EXPECT_GT(f.core.stats().stall_icache, 0u);
}

}  // namespace
}  // namespace meek

// ISA unit tests: encode/decode round-trip over the full opcode space,
// functional semantics, assembler syntax and program-builder fix-ups.
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/exec.h"
#include "isa/instruction.h"
#include "isa/program.h"

namespace meek {
namespace {

TEST(opcodes, mnemonic_lookup_round_trips) {
    for (std::size_t i = 0; i < k_num_opcodes; ++i) {
        const auto op = static_cast<opcode>(i);
        const auto back = opcode_from_mnemonic(opcode_mnemonic(op));
        ASSERT_TRUE(back.has_value()) << opcode_mnemonic(op);
        EXPECT_EQ(*back, op);
    }
}

TEST(opcodes, meek_privilege_matches_table1) {
    EXPECT_TRUE(opcode_privileged(opcode::b_hook));
    EXPECT_TRUE(opcode_privileged(opcode::b_check));
    EXPECT_TRUE(opcode_privileged(opcode::l_mode));
    EXPECT_FALSE(opcode_privileged(opcode::l_record));
    EXPECT_FALSE(opcode_privileged(opcode::l_apply));
    EXPECT_FALSE(opcode_privileged(opcode::l_jal));
    EXPECT_FALSE(opcode_privileged(opcode::l_rslt));
}

TEST(opcodes, memory_sizes) {
    EXPECT_EQ(memory_access_bytes(opcode::lb), 1);
    EXPECT_EQ(memory_access_bytes(opcode::lh), 2);
    EXPECT_EQ(memory_access_bytes(opcode::lw), 4);
    EXPECT_EQ(memory_access_bytes(opcode::ld), 8);
    EXPECT_EQ(memory_access_bytes(opcode::fsd), 8);
    EXPECT_EQ(memory_access_bytes(opcode::add), 0);
}

// Property: every opcode round-trips through the 64-bit encoding with
// arbitrary register and immediate fields.
class encoding_roundtrip : public ::testing::TestWithParam<int> {};

TEST_P(encoding_roundtrip, encode_decode_identity) {
    const auto op = static_cast<opcode>(GetParam());
    const i32 imms[] = {0, 1, -1, 4095, -4096, 0x7fffffff, static_cast<i32>(0x80000000)};
    for (areg_t rd : {areg_t{0}, areg_t{1}, areg_t{31}}) {
        for (i32 imm : imms) {
            instr ins{op, rd, static_cast<areg_t>(31 - rd), 7, 13, imm};
            EXPECT_EQ(decode(encode(ins)), ins);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(all_opcodes, encoding_roundtrip,
                         ::testing::Range(0, static_cast<int>(k_num_opcodes)));

TEST(decode, out_of_range_opcode_becomes_ebreak) {
    EXPECT_EQ(decode(0xff).op, opcode::ebreak);
}

exec_out run1(instr ins, u64 rs1 = 0, u64 rs2 = 0, u64 rs3 = 0, addr_t pc = 0x1000) {
    exec_in in;
    in.ins = ins;
    in.pc = pc;
    in.rs1 = rs1;
    in.rs2 = rs2;
    in.rs3 = rs3;
    return execute(in);
}

TEST(exec, integer_alu) {
    EXPECT_EQ(run1(make_r(opcode::add, 1, 2, 3), 5, 7).rd_value, 12u);
    EXPECT_EQ(run1(make_r(opcode::sub, 1, 2, 3), 5, 7).rd_value, static_cast<u64>(-2));
    EXPECT_EQ(run1(make_r(opcode::xor_, 1, 2, 3), 0xff, 0x0f).rd_value, 0xf0u);
    EXPECT_EQ(run1(make_r(opcode::sll, 1, 2, 3), 1, 12).rd_value, 1u << 12);
    EXPECT_EQ(run1(make_r(opcode::sra, 1, 2, 3), static_cast<u64>(-64), 3).rd_value,
              static_cast<u64>(-8));
    EXPECT_EQ(run1(make_r(opcode::slt, 1, 2, 3), static_cast<u64>(-1), 1).rd_value, 1u);
    EXPECT_EQ(run1(make_r(opcode::sltu, 1, 2, 3), static_cast<u64>(-1), 1).rd_value, 0u);
}

TEST(exec, division_edge_cases_follow_riscv) {
    // Division by zero: all ones quotient, dividend remainder.
    EXPECT_EQ(run1(make_r(opcode::div, 1, 2, 3), 42, 0).rd_value, ~u64{0});
    EXPECT_EQ(run1(make_r(opcode::rem, 1, 2, 3), 42, 0).rd_value, 42u);
    // INT64_MIN / -1 overflow.
    const u64 int_min = u64{1} << 63;
    EXPECT_EQ(run1(make_r(opcode::div, 1, 2, 3), int_min, ~u64{0}).rd_value, int_min);
    EXPECT_EQ(run1(make_r(opcode::rem, 1, 2, 3), int_min, ~u64{0}).rd_value, 0u);
}

TEST(exec, mulh_matches_128bit_product) {
    const u64 a = 0x123456789abcdef0ULL;
    const u64 b = 0xfedcba9876543210ULL;
    const auto expect = static_cast<u64>(
        (static_cast<__int128>(static_cast<i64>(a)) * static_cast<i64>(b)) >> 64);
    EXPECT_EQ(run1(make_r(opcode::mulh, 1, 2, 3), a, b).rd_value, expect);
}

TEST(exec, branches_and_jumps) {
    auto out = run1(make_branch(opcode::beq, 1, 2, 64), 5, 5, 0, 0x1000);
    EXPECT_TRUE(out.is_taken_branch);
    EXPECT_EQ(out.next_pc, 0x1040u);

    out = run1(make_branch(opcode::beq, 1, 2, 64), 5, 6, 0, 0x1000);
    EXPECT_FALSE(out.is_taken_branch);
    EXPECT_EQ(out.next_pc, 0x1008u);

    out = run1(make_jal(1, -16), 0, 0, 0, 0x1000);
    EXPECT_EQ(out.next_pc, 0x0ff0u);
    EXPECT_EQ(out.rd_value, 0x1008u);

    out = run1(make_jalr(1, 5, 4), 0x2001, 0, 0, 0x1000);
    EXPECT_EQ(out.next_pc, 0x2004u);  // LSB cleared
}

TEST(exec, loads_produce_mem_intent_and_extension) {
    const auto out = run1(make_load(opcode::lw, 1, 2, 8), 0x100);
    ASSERT_TRUE(out.mem.has_value());
    EXPECT_FALSE(out.mem->is_store);
    EXPECT_EQ(out.mem->addr, 0x108u);
    EXPECT_EQ(out.mem->size, 4);
    EXPECT_EQ(load_result(opcode::lw, 0x80000000u), 0xffffffff80000000ULL);
    EXPECT_EQ(load_result(opcode::lwu, 0x80000000u), 0x80000000ULL);
    EXPECT_EQ(load_result(opcode::lb, 0xff), ~u64{0});
    EXPECT_EQ(load_result(opcode::lbu, 0xff), 0xffu);
}

TEST(exec, stores_truncate_data_to_size) {
    const auto out = run1(make_store(opcode::sb, 2, 1, 0), 0x100, 0xabcd);
    ASSERT_TRUE(out.mem.has_value());
    EXPECT_TRUE(out.mem->is_store);
    EXPECT_EQ(out.mem->store_data, 0xcdu);
}

TEST(exec, fp_arithmetic) {
    const u64 two = std::bit_cast<u64>(2.0);
    const u64 three = std::bit_cast<u64>(3.0);
    auto out = run1(make_r(opcode::fadd_d, 1, 2, 3), two, three);
    EXPECT_EQ(std::bit_cast<double>(out.rd_value), 5.0);
    out = run1(make_r(opcode::fmul_d, 1, 2, 3), two, three);
    EXPECT_EQ(std::bit_cast<double>(out.rd_value), 6.0);
    out = run1(make_r(opcode::fdiv_d, 1, 2, 3), three, two);
    EXPECT_EQ(std::bit_cast<double>(out.rd_value), 1.5);
    out = run1(make_r4(opcode::fmadd_d, 1, 2, 3, 4), two, three, two);
    EXPECT_EQ(std::bit_cast<double>(out.rd_value), 8.0);
    out = run1(make_r(opcode::flt_d, 1, 2, 3), two, three);
    EXPECT_EQ(out.rd_value, 1u);
}

TEST(exec, fcvt_saturates) {
    const u64 huge = std::bit_cast<u64>(1e300);
    EXPECT_EQ(run1(make_r(opcode::fcvt_l_d, 1, 2, 0), huge).rd_value,
              static_cast<u64>(std::numeric_limits<i64>::max()));
    const u64 neg = std::bit_cast<u64>(-1e300);
    EXPECT_EQ(run1(make_r(opcode::fcvt_l_d, 1, 2, 0), neg).rd_value,
              static_cast<u64>(std::numeric_limits<i64>::min()));
}

TEST(exec, csr_read_modify_write) {
    instr ins = make_csr(opcode::csrrw, 1, 0x340, 2);
    exec_in in;
    in.ins = ins;
    in.rs1 = 0x55;
    in.csr_old = 0xAA;
    auto out = execute(in);
    EXPECT_EQ(out.rd_value, 0xAAu);
    EXPECT_TRUE(out.csr_write);
    EXPECT_EQ(out.csr_new, 0x55u);

    in.ins = make_csr(opcode::csrrs, 1, 0x340, 2);
    out = execute(in);
    EXPECT_EQ(out.csr_new, 0xFFu);

    in.ins = make_csr(opcode::csrrs, 1, 0x340, 0);
    in.rs1 = 0;
    out = execute(in);
    EXPECT_FALSE(out.csr_write);  // rs1 == x0: read-only form
}

TEST(exec, traps_and_halt) {
    EXPECT_EQ(run1(make_sys(opcode::ecall)).trap, trap_cause::ecall);
    EXPECT_EQ(run1(make_sys(opcode::ebreak)).trap, trap_cause::ebreak);
    EXPECT_TRUE(run1(make_sys(opcode::halt)).halted);
}

TEST(exec, meek_l_jal_redirects_to_rs1) {
    const auto out = run1(instr{opcode::l_jal, 0, 5, 0, 0, 0}, 0x4321);
    EXPECT_EQ(out.next_pc, 0x4320u);  // LSB cleared
}

TEST(program_builder, emit_li_small_and_large) {
    for (const u64 v : {u64{0}, u64{42}, static_cast<u64>(-42),
                        u64{0x123456789abcdef0ULL}, ~u64{0}, u64{1} << 63}) {
        program_builder b;
        b.emit_li(5, v);
        b.emit(make_sys(opcode::halt));
        const program p = std::move(b).build();
        // Interpret the li sequence functionally.
        u64 reg = 0;
        for (const instr& ins : p.text) {
            if (ins.op == opcode::halt) break;
            exec_in in;
            in.ins = ins;
            in.rs1 = ins.rs1 == 5 ? reg : 0;
            reg = execute(in).rd_value;
        }
        EXPECT_EQ(reg, v) << "value " << v;
    }
}

TEST(program_builder, forward_label_fixups) {
    program_builder b;
    b.emit_branch(opcode::beq, 0, 0, "target");
    b.emit(make_nop());
    b.label("target");
    b.emit(make_sys(opcode::halt));
    const program p = std::move(b).build();
    EXPECT_EQ(p.text[0].imm, 16);  // two instructions ahead
}

TEST(program_builder, undefined_label_throws) {
    program_builder b;
    b.emit_jal(0, "nowhere");
    EXPECT_THROW(std::move(b).build(), std::runtime_error);
}

TEST(program_builder, duplicate_label_throws) {
    program_builder b;
    b.label("x");
    EXPECT_THROW(b.label("x"), std::runtime_error);
}

TEST(assembler, basic_program) {
    const program p = assemble(R"(
        ; compute 10 + 32
        addi x1, x0, 10
        addi x2, x0, 32
        add  x3, x1, x2
        halt
    )");
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p.text[2].op, opcode::add);
    EXPECT_EQ(p.text[2].rd, 3);
}

TEST(assembler, labels_and_branches) {
    const program p = assemble(R"(
        li x1, 3
    loop:
        addi x1, x1, -1
        bne x1, x0, loop
        halt
    )");
    // The bne target offset must be -8 (one instruction back).
    const instr& bne_ins = p.text[p.size() - 2];
    EXPECT_EQ(bne_ins.op, opcode::bne);
    EXPECT_EQ(bne_ins.imm, -8);
}

TEST(assembler, memory_operands_and_data) {
    const program p = assemble(R"(
        .data 0x2000000
        .dword 0x1122334455667788 42
        .text
        li x5, 0x2000000
        ld x6, 0(x5)
        ld x7, 8(x5)
        sd x6, 16(x5)
        fld f1, 0(x5)
        fsd f1, 24(x5)
        halt
    )");
    ASSERT_EQ(p.data.size(), 1u);
    EXPECT_EQ(p.data[0].base, 0x2000000u);
    EXPECT_EQ(p.data[0].bytes.size(), 16u);
    EXPECT_EQ(p.data[0].bytes[0], 0x88);  // little-endian words
    EXPECT_EQ(p.data[0].bytes[7], 0x11);
    EXPECT_EQ(p.data[0].bytes[8], 42);
    EXPECT_EQ(p.data[0].bytes[15], 0);
}

TEST(assembler, meek_instructions) {
    const program p = assemble(R"(
        b.hook x1, x2
        b.check x1
        l.mode x1, x2
        l.record x2
        l.apply x3
        l.jal x4
        l.rslt x5
        halt
    )");
    EXPECT_EQ(p.text[0].op, opcode::b_hook);
    EXPECT_EQ(p.text[6].op, opcode::l_rslt);
    EXPECT_EQ(p.text[6].rd, 5);
}

TEST(assembler, error_reporting_includes_line) {
    try {
        assemble("addi x1, x0, 1\nbogus x1\n");
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(assembler, entry_directive) {
    const program p = assemble(R"(
        nop
    start:
        halt
        .entry start
    )");
    EXPECT_EQ(p.entry, p.text_base + k_instr_bytes);
}

}  // namespace
}  // namespace meek

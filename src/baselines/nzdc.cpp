#include "baselines/nzdc.h"

#include <stdexcept>
#include <vector>

namespace meek {
namespace {

constexpr areg_t k_shadow_offset = 16;
constexpr areg_t k_cmp_scratch = 16;  // shadow of x0: never a live shadow value

areg_t shadow(areg_t r) { return r == 0 ? 0 : static_cast<areg_t>(r + k_shadow_offset); }

bool is_computational(op_class c) {
    switch (c) {
        case op_class::int_alu:
        case op_class::int_mul:
        case op_class::int_div:
        case op_class::fp_alu:
        case op_class::fp_mul:
        case op_class::fp_div:
            return true;
        default:
            return false;
    }
}

// Sentinel immediate marking a branch whose target is the fault handler;
// patched during layout.
constexpr i32 k_fault_imm = INT32_MIN;

struct bundle {
    std::vector<instr> pre;   // compares inserted before the original
    instr original;
    std::vector<instr> post;  // duplicates / shadow copies after it
};

void check_registers(const instr& ins) {
    const auto bad = [](areg_t r) { return r >= k_shadow_offset; };
    if ((ins.writes_rd() && bad(ins.rd)) || (ins.reads_rs1() && bad(ins.rs1)) ||
        (ins.reads_rs2() && bad(ins.rs2)) || (ins.reads_rs3() && bad(ins.rs3))) {
        throw std::invalid_argument(
            "nzdc: program uses registers >= 16 (shadow set not free)");
    }
}

void append_compare(bundle& bn, areg_t r, bool is_fp, nzdc_stats& stats) {
    if (r == 0 && !is_fp) return;  // x0 is a constant: nothing to verify
    if (is_fp) {
        bn.pre.push_back(make_r(opcode::feq_d, k_cmp_scratch, r, shadow(r)));
        bn.pre.push_back(make_branch(opcode::beq, k_cmp_scratch, 0, k_fault_imm));
        stats.compares_inserted += 2;
    } else {
        bn.pre.push_back(make_branch(opcode::bne, r, shadow(r), k_fault_imm));
        ++stats.compares_inserted;
    }
}

void append_shadow_copy(bundle& bn, areg_t rd, bool is_fp, nzdc_stats& stats) {
    if (rd == 0 && !is_fp) return;
    if (is_fp) {
        bn.post.push_back(make_r(opcode::fsgnj_d, shadow(rd), rd, rd));
    } else {
        bn.post.push_back(make_i(opcode::addi, shadow(rd), rd, 0));
    }
    ++stats.duplicated;
}

}  // namespace

nzdc_program transform_nzdc(const program& input) {
    nzdc_program out;
    nzdc_stats& stats = out.stats;
    stats.original_instructions = input.size();

    std::vector<bundle> bundles;
    bundles.reserve(input.size());

    for (const instr& ins : input.text) {
        check_registers(ins);
        bundle bn;
        bn.original = ins;
        const op_class c = ins.klass();

        if (is_computational(c)) {
            // auipc is PC-relative: a duplicate at a shifted PC would compute
            // a different value, so copy instead of re-executing.
            if (ins.op == opcode::auipc) {
                append_shadow_copy(bn, ins.rd, ins.rd_is_fp(), stats);
            } else if (ins.writes_rd()) {
                instr dup = ins;
                dup.rd = ins.rd_is_fp() ? static_cast<areg_t>(ins.rd + k_shadow_offset)
                                        : shadow(ins.rd);
                if (ins.reads_rs1()) {
                    dup.rs1 = ins.rs1_is_fp()
                                  ? static_cast<areg_t>(ins.rs1 + k_shadow_offset)
                                  : shadow(ins.rs1);
                }
                if (ins.reads_rs2()) {
                    dup.rs2 = ins.rs2_is_fp()
                                  ? static_cast<areg_t>(ins.rs2 + k_shadow_offset)
                                  : shadow(ins.rs2);
                }
                if (ins.reads_rs3()) {
                    dup.rs3 = static_cast<areg_t>(ins.rs3 + k_shadow_offset);
                }
                bn.post.push_back(dup);
                ++stats.duplicated;
            }
        } else if (c == op_class::load) {
            append_compare(bn, ins.rs1, false, stats);  // verify the address base
            append_shadow_copy(bn, ins.rd, ins.rd_is_fp(), stats);
        } else if (c == op_class::store) {
            append_compare(bn, ins.rs1, false, stats);
            append_compare(bn, ins.rs2, ins.rs2_is_fp(), stats);
        } else if (c == op_class::branch) {
            append_compare(bn, ins.rs1, false, stats);
            append_compare(bn, ins.rs2, false, stats);
        } else if (c == op_class::jump || c == op_class::csr) {
            if (ins.op == opcode::jalr) append_compare(bn, ins.rs1, false, stats);
            if (ins.writes_rd()) append_shadow_copy(bn, ins.rd, false, stats);
        }
        bundles.push_back(std::move(bn));
    }

    // --- Layout ---
    // Prologue synchronizes the shadow set with the primary registers.
    std::vector<instr> prologue;
    for (areg_t r = 1; r < k_shadow_offset; ++r) {
        prologue.push_back(make_i(opcode::addi, shadow(r), r, 0));
    }
    for (areg_t f = 0; f < k_shadow_offset; ++f) {
        prologue.push_back(
            make_r(opcode::fsgnj_d, static_cast<areg_t>(f + k_shadow_offset), f, f));
    }

    std::vector<std::size_t> bundle_start(bundles.size());
    std::vector<std::size_t> original_pos(bundles.size());
    std::size_t cursor = prologue.size();
    for (std::size_t i = 0; i < bundles.size(); ++i) {
        bundle_start[i] = cursor;
        cursor += bundles[i].pre.size();
        original_pos[i] = cursor;
        cursor += 1 + bundles[i].post.size();
    }
    const std::size_t fault_pos = cursor;

    // --- Emission with branch retargeting ---
    program prog;
    prog.text_base = input.text_base;
    prog.entry = input.text_base;
    prog.rings = input.rings;
    prog.data = input.data;
    prog.text.reserve(fault_pos + 2);
    prog.text.insert(prog.text.end(), prologue.begin(), prologue.end());

    auto patch_fault = [&](instr b, std::size_t at) {
        b.imm = static_cast<i32>((static_cast<i64>(fault_pos) - static_cast<i64>(at)) *
                                 k_instr_bytes);
        return b;
    };

    for (std::size_t i = 0; i < bundles.size(); ++i) {
        bundle& bn = bundles[i];
        for (instr& pre : bn.pre) {
            const std::size_t at = prog.text.size();
            prog.text.push_back(pre.imm == k_fault_imm ? patch_fault(pre, at) : pre);
        }
        instr original = bn.original;
        if ((original.klass() == op_class::branch || original.op == opcode::jal) &&
            original.imm != 0) {
            // Retarget to the start of the destination bundle (its compares
            // belong to the destination instruction).
            const i64 target_index =
                static_cast<i64>(i) + static_cast<i64>(original.imm) / k_instr_bytes;
            if (target_index < 0 ||
                target_index >= static_cast<i64>(bundles.size())) {
                throw std::invalid_argument("nzdc: branch target outside program");
            }
            original.imm = static_cast<i32>(
                (static_cast<i64>(bundle_start[static_cast<std::size_t>(target_index)]) -
                 static_cast<i64>(original_pos[i])) *
                k_instr_bytes);
        }
        prog.text.push_back(original);
        for (const instr& post : bn.post) prog.text.push_back(post);
    }

    // Fault handler: report (ebreak) and stop.
    prog.text.push_back(make_sys(opcode::ebreak));
    prog.text.push_back(make_sys(opcode::halt));

    out.fault_handler_pc = prog.text_base + fault_pos * k_instr_bytes;
    stats.transformed_instructions = prog.size();
    out.prog = std::move(prog);
    return out;
}

}  // namespace meek

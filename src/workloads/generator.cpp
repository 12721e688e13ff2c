#include "workloads/generator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/bits.h"
#include "common/rng.h"
#include "isa/arch_state.h"

namespace meek {
namespace {

constexpr u32 k_block_ops = 256;  // static instructions per loop body

// Registers (see header).
constexpr areg_t r_count = 1, r_base = 3, r_mask = 4, r_rng = 5, r_cursor = 6,
                 r_addr = 7, r_acc = 13, r_scratch = 14, r_stride = 15;

struct emitter {
    program_builder& b;
    rng& r;
    const workload_profile& prof;
    u32 emitted = 0;
    u32 label_id = 0;
    double expected_skips = 0.0;  // dynamic instructions skipped by taken branches
    u32 rot = 0;                  // rotating temp selector (x8..x12)

    // Register roles: x8..x10 are scratch destinations (loads, int results),
    // x11..x13 are accumulators that are only ever read-modify-written. Every
    // loaded value folds into an accumulator immediately, so corrupted data
    // always survives to a store compare or the ERCP, while several short
    // chains keep OoO ILP realistic (BOOM-class IPC ~1-2 on compute code).
    areg_t temp() {
        rot = (rot + 1) % 3;
        return static_cast<areg_t>(8 + rot);
    }
    areg_t pick_acc() { return static_cast<areg_t>(11 + r.below(3)); }

    void emit(const instr& ins) {
        b.emit(ins);
        ++emitted;
    }

    // Effective address into x7. Regular accesses use immediate offsets off
    // the base (zero overhead); irregular ones hash the PRNG state.
    // Returns the overhead instruction count.
    i32 next_offset_regular() {
        // Working-set-theory locality: ~80% of accesses hit a hot subset
        // (cache-friendly temporal reuse), the rest walk the full footprint
        // sequentially with ~2 accesses per line (spatial locality). The
        // offsets fit the signed 32-bit immediate for every profile.
        const u64 span = std::min<u64>(prof.working_set_kb * 1024ull, 1ull << 30);
        const u64 lines = std::max<u64>(1, span / 64);
        const u64 hot_lines = std::max<u64>(1, std::min<u64>(lines, 24 * 1024 / 64));
        if (r.chance(0.8)) {
            hot_cursor = (hot_cursor + 1) % hot_lines;
            return static_cast<i32>(hot_cursor * 64 + r.below(56) / 8 * 8);
        }
        if (r.chance(0.5)) regular_cursor = (regular_cursor + 1) % lines;
        return static_cast<i32>(regular_cursor * 64 + r.below(56) / 8 * 8);
    }

    void emit_load() {
        if (r.uniform() < prof.irregular_frac) {
            // Pointer chase through the permutation-cycle table (x7 holds the
            // current node): irregular, serializing — mcf-style behaviour —
            // and the pointer itself is the loaded value, so corruption of
            // forwarded data diverges the walk and is caught immediately.
            emit(make_load(opcode::ld, r_addr, r_addr, 0));
            const areg_t acc = pick_acc();
            emit(make_r(opcode::xor_, acc, acc, r_addr));
            return;
        }
        const areg_t t = temp();
        emit(make_load(opcode::ld, t, r_base, next_offset_regular()));
        // Loaded values stay live: fold into an accumulator immediately
        // (read-modify-write, so earlier corruption is never erased).
        const areg_t acc = pick_acc();
        emit(make_r(opcode::xor_, acc, acc, t));
    }

    void emit_store() {
        const areg_t data = pick_acc();
        if (r.uniform() < prof.irregular_frac) {
            // Payload slot of the current chase node (+8; the next pointer at
            // +0 is never overwritten, keeping the cycle intact).
            emit(make_store(opcode::sd, data, r_addr, 8));
        } else {
            emit(make_store(opcode::sd, data, r_base, next_offset_regular()));
        }
    }

    void emit_branch() {
        const bool random = r.uniform() < prof.branch_random_frac;
        const std::string skip = "skip_" + std::to_string(label_id++);
        double taken_prob;
        if (random) {
            // Data-dependent: one PRNG bit — unpredictable.
            emit(make_i(opcode::andi, r_scratch, r_rng, 1));
            taken_prob = 0.5;
        } else {
            // Structured: periodic pattern TAGE learns.
            emit(make_i(opcode::andi, r_scratch, r_cursor, 31));
            taken_prob = 31.0 / 32.0;
        }
        b.emit_branch(opcode::bne, r_scratch, 0, skip);
        ++emitted;
        const u32 fillers = 1 + static_cast<u32>(r.below(2));
        for (u32 i = 0; i < fillers; ++i) {
            emit(make_i(opcode::addi, temp(), pick_acc(), static_cast<i32>(r.below(64))));
        }
        expected_skips += taken_prob * fillers;
        b.label(skip);
    }

    void emit_mul() {
        emit(make_r(opcode::mul, temp(), pick_acc(), r_rng));
    }

    void emit_div() {
        emit(make_i(opcode::ori, r_scratch, r_cursor, 1));
        emit(make_r(opcode::div, temp(), r_rng, r_scratch));
    }

    void emit_fp() {
        // Half the FP ops read only near-constant inputs (f7/f8), so chains
        // stay short and the OoO core extracts FP ILP like real kernels do.
        const auto fd = static_cast<areg_t>(1 + r.below(6));
        const auto fa = r.chance(0.5) ? static_cast<areg_t>(1 + r.below(6))
                                      : static_cast<areg_t>(7 + r.below(2));
        switch (r.below(4)) {
            case 0: emit(make_r4(opcode::fmadd_d, fd, fa, 7, 8)); break;
            case 1: emit(make_r(opcode::fadd_d, fd, fa, 8)); break;
            case 2: emit(make_r(opcode::fmul_d, fd, fa, 8)); break;
            default: emit(make_r(opcode::fsub_d, fd, fa, 7)); break;
        }
    }

    void emit_fp_div() {
        const auto fd = static_cast<areg_t>(1 + r.below(6));
        if (r.below(4) == 0) {
            emit(make_r(opcode::fsqrt_d, fd, fd, 0));
        } else {
            emit(make_r(opcode::fdiv_d, fd, fd, 7));
        }
    }

    void emit_csr() {
        // Non-repeatable read; x14 is write-before-read everywhere else, so
        // the value never influences the run (keeps baseline/MEEK dynamic
        // paths identical) while still exercising the CSR forwarding path.
        emit(make_csr(opcode::csrrs, r_scratch, csr_addr::uarch_entropy, 0));
    }

    void emit_int() {
        const areg_t t = temp();
        const areg_t a = pick_acc();
        const areg_t c = pick_acc();
        switch (r.below(5)) {
            case 0: emit(make_r(opcode::add, t, a, r_cursor)); break;
            case 1: emit(make_i(opcode::xori, t, a, static_cast<i32>(r.below(4096)))); break;
            case 2: emit(make_i(opcode::slli, t, a, 1 + static_cast<u32>(r.below(8)))); break;
            case 3: emit(make_r(opcode::or_, t, a, c)); break;
            default: emit(make_i(opcode::addi, t, t, 1)); break;
        }
    }

    u64 regular_cursor = 0;
    u64 hot_cursor = 0;
};

}  // namespace

generated_workload generate_workload(const workload_profile& prof,
                                     u64 target_instructions, u64 seed) {
    u64 name_hash = 1469598103934665603ull;
    for (const char c : prof.name) {
        name_hash = (name_hash ^ static_cast<u8>(c)) * 1099511628211ull;
    }
    rng r(seed ^ name_hash);
    program_builder b;

    const u64 ws_bytes = u64{prof.working_set_kb} * 1024;
    const u64 mask = (std::max<u64>(64, std::bit_floor(ws_bytes)) - 1) & ~u64{7};

    // --- Pointer-chase table (Sattolo single-cycle permutation) ---
    // 16-byte nodes: next pointer at +0, store payload at +8 (zero). Used by
    // irregular accesses. The table covers at most 4 MiB, i.e. 2^18 nodes, so
    // node indices fit a u32; the cap bounds the table every run loads.
    // The program keeps the permutation itself as a pointer ring, a quarter
    // of the node bytes; memory synthesizes the nodes when they are read.
    const addr_t chase_base = k_default_data_base + 0x10000000;
    constexpr u64 chase_max_bytes = 4ull << 20;
    static_assert(chase_max_bytes / pointer_ring::k_node_bytes <=
                  std::numeric_limits<u32>::max());
    const u64 chase_nodes = std::max<u64>(
        16, std::min<u64>(ws_bytes, chase_max_bytes) / pointer_ring::k_node_bytes);
    if (prof.irregular_frac > 0.0) {
        std::vector<u32> perm(chase_nodes);
        std::iota(perm.begin(), perm.end(), u32{0});
        for (u64 i = chase_nodes - 1; i > 0; --i) {
            const u64 j = r.below(i);  // Sattolo: j < i gives one full cycle
            std::swap(perm[i], perm[j]);
        }
        b.add_ring(chase_base, std::move(perm));
    }

    // --- Prologue ---
    b.emit_li(r_base, k_default_data_base);
    b.emit_li(r_addr, chase_base);
    b.emit_li(r_mask, mask);
    b.emit_li(r_rng, (seed ^ name_hash) | 1);
    b.emit_li(r_cursor, 0);
    for (areg_t v = 8; v <= 13; ++v) {
        b.emit_li(v, 0x1234567u * (v + 1));
    }
    b.emit_li(r_stride, 64);
    b.emit_lfd(8, r_scratch, 1.0000001);  // f8
    b.emit(make_r(opcode::fmv_d_x, 7, r_scratch, 0));  // f7 ~= same constant
    for (areg_t f = 1; f <= 6; ++f) {
        b.emit_lfd(f, r_scratch, 1.0 + 0.17 * f);
    }

    // --- Loop body ---
    emitter e{b, r, prof};

    // Per-block instruction budgets from the mix.
    const auto budget = [&](double frac) {
        return static_cast<u32>(std::llround(frac * k_block_ops));
    };
    u32 loads = budget(prof.load_frac);
    u32 stores = budget(prof.store_frac);
    u32 branches = budget(prof.branch_frac);
    u32 muls = budget(prof.mul_frac);
    u32 divs = budget(prof.div_frac);
    u32 fps = budget(prof.fp_frac);
    u32 fp_divs = budget(prof.fp_div_frac);
    u32 csrs = std::max<u32>(prof.csr_frac > 0 ? 1 : 0, budget(prof.csr_frac));

    // Iteration count placeholder: patched below once body size is known.
    const std::size_t li_count_index = b.emit(make_i(opcode::addi, r_count, 0, 1));
    b.label("outer");
    const u32 body_start = e.emitted;

    // Unroll into enough distinct blocks to reach the profile's static code
    // footprint (I-cache pressure); each block re-draws the full mix budget.
    const u32 num_blocks = std::max<u32>(
        1, prof.code_kb * 1024 / (k_instr_bytes * 5 * k_block_ops / 4));
    const u32 loads0 = loads, stores0 = stores, branches0 = branches,
              muls0 = muls, divs0 = divs, fps0 = fps, fp_divs0 = fp_divs,
              csrs0 = csrs;
    // Block 0 is the hot loop (runs every iteration); each cold block runs
    // once every `cold_period` iterations — the 90/10 execution profile real
    // large codes have, so the I-caches see pressure without thrashing.
    const u64 cold_period = std::bit_ceil(static_cast<u64>(std::max<u32>(2, num_blocks)));
    u32 hot_static = 0;
    u32 cold_static_total = 0;
    u32 guard_static = 0;
    for (u32 block = 0; block < num_blocks; ++block) {
    std::string skip_block;
    if (block > 0) {
        skip_block = "skip_block_" + std::to_string(block);
        b.emit(make_i(opcode::andi, r_scratch, r_cursor,
                      static_cast<i32>(cold_period - 1)));
        b.emit(make_i(opcode::xori, r_scratch, r_scratch, static_cast<i32>(block)));
        b.emit_branch(opcode::bne, r_scratch, 0, skip_block);
        e.emitted += 3;
        guard_static += 3;
    }
    const u32 block_start = e.emitted;
    loads = loads0;
    stores = stores0;
    branches = branches0;
    muls = muls0;
    divs = divs0;
    fps = fps0;
    fp_divs = fp_divs0;
    csrs = csrs0;
    // The CSR read is rare but must appear: emit it first.
    while (csrs > 0) {
        e.emit_csr();
        --csrs;
    }
    // Emit every budgeted operation (the block may exceed k_block_ops by the
    // addressing/fold overhead, which stands in for real address arithmetic).
    while (loads + stores + branches + muls + divs + fps + fp_divs > 0 &&
           e.emitted - block_start < 3 * k_block_ops) {
        // Weighted pick proportional to the remaining budgets.
        const u32 total = loads + stores + branches + muls + divs + fps + fp_divs + csrs;
        u32 pick = static_cast<u32>(r.below(total));
        if (pick < loads) {
            e.emit_load();
            --loads;
            continue;
        }
        pick -= loads;
        if (pick < stores) {
            e.emit_store();
            --stores;
            continue;
        }
        pick -= stores;
        if (pick < branches) {
            e.emit_branch();
            --branches;
            continue;
        }
        pick -= branches;
        if (pick < muls) {
            e.emit_mul();
            --muls;
            continue;
        }
        pick -= muls;
        if (pick < divs) {
            e.emit_div();
            --divs;
            continue;
        }
        pick -= divs;
        if (pick < fps) {
            e.emit_fp();
            --fps;
            continue;
        }
        pick -= fps;
        if (pick < fp_divs) {
            e.emit_fp_div();
            --fp_divs;
            continue;
        }
        e.emit_csr();
        --csrs;
    }
    while (e.emitted - block_start < k_block_ops) e.emit_int();
    if (block == 0) {
        hot_static = e.emitted - block_start;
    } else {
        cold_static_total += e.emitted - block_start;
        b.label(skip_block);
    }
    }

    // Cursor advance + loop control.
    e.emit(make_i(opcode::addi, r_cursor, r_cursor, 1));
    e.emit(make_i(opcode::addi, r_count, r_count, -1));
    b.emit_branch(opcode::bne, r_count, 0, "outer");
    ++e.emitted;
    b.emit(make_sys(opcode::halt));

    const u32 body_static = e.emitted - body_start;
    (void)body_static;
    // Dynamic length: hot block + guards every iteration, cold blocks
    // amortized over their period; intra-block skips roughly cancel.
    const double body_dynamic =
        static_cast<double>(hot_static) + static_cast<double>(guard_static) +
        static_cast<double>(cold_static_total) / static_cast<double>(cold_period) +
        3.0;
    const u64 iterations = std::max<u64>(
        1, static_cast<u64>(static_cast<double>(target_instructions) / body_dynamic));

    // Seed the first pages of the working set so early loads see varied data.
    std::vector<u64> init_words(512);
    for (u64& w : init_words) w = r.next();
    b.add_data_words(k_default_data_base, init_words);

    generated_workload out;
    out.prog = std::move(b).build();
    out.prog.text[li_count_index].imm = static_cast<i32>(
        std::min<u64>(iterations, std::numeric_limits<i32>::max()));
    out.expected_dynamic_instructions =
        static_cast<u64>(body_dynamic * static_cast<double>(iterations));
    out.static_block_size = body_static;
    return out;
}

}  // namespace meek

// Program image and builder. A program is a flat text segment of decoded
// instructions (8 bytes each in the simulated address space) plus its initial
// memory: pointer rings (pointer-chase tables kept as their node permutation,
// see mem/pointer_ring.h) and data blobs. Loading maps the rings first, then
// the blobs. The builder is the API workload generators use; the assembler
// (assembler.h) parses the textual form used by tests and examples.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"
#include "mem/pointer_ring.h"

namespace meek {

inline constexpr addr_t k_default_text_base = 0x10000;
inline constexpr addr_t k_default_data_base = 0x1000000;
inline constexpr addr_t k_default_stack_top = 0x8000000;

struct data_blob {
    addr_t base = 0;
    std::vector<u8> bytes;
};

struct program {
    addr_t text_base = k_default_text_base;
    addr_t entry = k_default_text_base;
    std::vector<instr> text;
    std::vector<pointer_ring> rings;
    std::vector<data_blob> data;

    bool contains(addr_t pc) const {
        return pc >= text_base && pc < text_base + text.size() * k_instr_bytes &&
               (pc - text_base) % k_instr_bytes == 0;
    }

    const instr& at(addr_t pc) const { return text[(pc - text_base) / k_instr_bytes]; }

    addr_t end_pc() const { return text_base + text.size() * k_instr_bytes; }
    std::size_t size() const { return text.size(); }
};

// Incremental program construction with label fix-ups. Branch/jump targets
// can reference labels defined later; `build()` resolves them all.
class program_builder {
public:
    explicit program_builder(addr_t text_base = k_default_text_base);

    // Appends an instruction; returns its index in the text segment.
    std::size_t emit(const instr& ins);

    // Current PC that the next emitted instruction will occupy.
    addr_t here() const;

    // Define `name` at the current position.
    void label(const std::string& name);

    // Emit control flow to a (possibly forward) label.
    void emit_branch(opcode op, areg_t rs1, areg_t rs2, const std::string& target);
    void emit_jal(areg_t rd, const std::string& target);

    // Load a 64-bit constant into an integer register (1..7 instructions).
    void emit_li(areg_t rd, u64 value);

    // Load a double constant into an FP register via an integer staging reg.
    void emit_lfd(areg_t fd, areg_t scratch_x, double value);

    // A pointer ring at `base` whose node i points to node next[i].
    void add_ring(addr_t base, std::vector<u32> next);
    void add_data(addr_t base, std::vector<u8> bytes);
    // Little-endian image of `words` at `base` (one bulk copy).
    void add_data_words(addr_t base, const std::vector<u64>& words);

    void set_entry(addr_t pc);

    // Address of a previously-defined label; throws if undefined.
    addr_t label_address(const std::string& name) const;

    // Resolves all label references and hands the program out by move, so
    // the builder is spent: call it as `std::move(b).build()`. Throws
    // std::runtime_error on undefined labels or offset overflow.
    program build() &&;

private:
    struct fixup {
        std::size_t index;
        std::string target;
    };

    addr_t pc_of(std::size_t index) const;

    program prog_;
    std::unordered_map<std::string, addr_t> labels_;
    std::vector<fixup> fixups_;
    bool entry_set_ = false;
};

}  // namespace meek

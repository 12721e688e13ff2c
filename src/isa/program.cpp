#include "isa/program.h"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bits.h"

namespace meek {

program_builder::program_builder(addr_t text_base) {
    prog_.text_base = text_base;
    prog_.entry = text_base;
}

std::size_t program_builder::emit(const instr& ins) {
    prog_.text.push_back(ins);
    return prog_.text.size() - 1;
}

addr_t program_builder::here() const {
    return prog_.text_base + prog_.text.size() * k_instr_bytes;
}

addr_t program_builder::pc_of(std::size_t index) const {
    return prog_.text_base + index * k_instr_bytes;
}

void program_builder::label(const std::string& name) {
    if (labels_.contains(name)) {
        throw std::runtime_error("duplicate label: " + name);
    }
    labels_[name] = here();
}

void program_builder::emit_branch(opcode op, areg_t rs1, areg_t rs2,
                                  const std::string& target) {
    fixups_.push_back({emit(make_branch(op, rs1, rs2, 0)), target});
}

void program_builder::emit_jal(areg_t rd, const std::string& target) {
    fixups_.push_back({emit(make_jal(rd, 0)), target});
}

void program_builder::emit_li(areg_t rd, u64 value) {
    const i64 sv = static_cast<i64>(value);
    if (sv >= std::numeric_limits<i32>::min() && sv <= std::numeric_limits<i32>::max()) {
        emit(make_i(opcode::addi, rd, 0, static_cast<i32>(sv)));
        return;
    }
    // General path: build from 16-bit chunks, most significant first.
    emit(make_i(opcode::addi, rd, 0, static_cast<i32>(bits(value, 48, 16))));
    for (int chunk = 2; chunk >= 0; --chunk) {
        emit(make_i(opcode::slli, rd, rd, 16));
        const auto piece = static_cast<i32>(bits(value, 16u * chunk, 16));
        if (piece != 0) emit(make_i(opcode::ori, rd, rd, piece));
    }
}

void program_builder::emit_lfd(areg_t fd, areg_t scratch_x, double value) {
    emit_li(scratch_x, std::bit_cast<u64>(value));
    emit(make_r(opcode::fmv_d_x, fd, scratch_x, 0));
}

void program_builder::add_ring(addr_t base, std::vector<u32> next) {
    prog_.rings.push_back({base, std::move(next)});
}

void program_builder::add_data(addr_t base, std::vector<u8> bytes) {
    prog_.data.push_back({base, std::move(bytes)});
}

void program_builder::add_data_words(addr_t base, const std::vector<u64>& words) {
    static_assert(std::endian::native == std::endian::little,
                  "data images are little-endian; a host u64 copies as-is");
    std::vector<u8> bytes(words.size() * sizeof(u64));
    if (!words.empty()) std::memcpy(bytes.data(), words.data(), bytes.size());
    add_data(base, std::move(bytes));
}

void program_builder::set_entry(addr_t pc) {
    prog_.entry = pc;
    entry_set_ = true;
}

addr_t program_builder::label_address(const std::string& name) const {
    const auto it = labels_.find(name);
    if (it == labels_.end()) {
        throw std::runtime_error("undefined label: " + name);
    }
    return it->second;
}

program program_builder::build() && {
    for (const fixup& f : fixups_) {
        const auto it = labels_.find(f.target);
        if (it == labels_.end()) {
            throw std::runtime_error("undefined label: " + f.target);
        }
        const i64 offset = static_cast<i64>(it->second) - static_cast<i64>(pc_of(f.index));
        if (offset < std::numeric_limits<i32>::min() ||
            offset > std::numeric_limits<i32>::max()) {
            throw std::runtime_error("branch offset overflow to label: " + f.target);
        }
        prog_.text[f.index].imm = static_cast<i32>(offset);
    }
    if (!entry_set_) prog_.entry = prog_.text_base;
    return std::move(prog_);
}

}  // namespace meek

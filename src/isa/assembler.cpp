#include "isa/assembler.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace meek {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
    throw std::runtime_error("asm line " + std::to_string(line) + ": " + msg);
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
        s.remove_prefix(1);
    }
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
        s.remove_suffix(1);
    }
    return s;
}

std::string_view strip_comment(std::string_view s) {
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == ';' || s[i] == '#') return s.substr(0, i);
    }
    return s;
}

// Splits "a, b, c" into trimmed tokens.
std::vector<std::string> split_operands(std::string_view s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == ',') {
            const auto tok = trim(s.substr(start, i - start));
            if (!tok.empty()) out.emplace_back(tok);
            start = i + 1;
        }
    }
    return out;
}

std::optional<i64> parse_int(std::string_view s) {
    s = trim(s);
    bool negative = false;
    if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
        negative = s.front() == '-';
        s.remove_prefix(1);
    }
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        base = 16;
        s.remove_prefix(2);
    }
    u64 value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value, base);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    const i64 signed_value = static_cast<i64>(value);
    return negative ? -signed_value : signed_value;
}

struct parser {
    std::size_t line = 0;

    areg_t reg(std::string_view tok, bool expect_fp) const {
        tok = trim(tok);
        if (tok.size() < 2) fail(line, "bad register: " + std::string(tok));
        const char prefix = tok.front();
        if ((expect_fp && prefix != 'f') || (!expect_fp && prefix != 'x')) {
            fail(line, std::string("expected ") + (expect_fp ? "f" : "x") +
                           "-register, got: " + std::string(tok));
        }
        const auto num = parse_int(tok.substr(1));
        if (!num || *num < 0 || *num >= k_num_arch_regs) {
            fail(line, "bad register index: " + std::string(tok));
        }
        return static_cast<areg_t>(*num);
    }

    i64 imm(std::string_view tok) const {
        const auto v = parse_int(tok);
        if (!v) fail(line, "bad immediate: " + std::string(tok));
        return *v;
    }

    // Parses "offset(xN)" into {offset, base}.
    std::pair<i32, areg_t> mem_operand(std::string_view tok) const {
        const auto open = tok.find('(');
        const auto close = tok.rfind(')');
        if (open == std::string_view::npos || close == std::string_view::npos ||
            close < open) {
            fail(line, "bad memory operand: " + std::string(tok));
        }
        const auto off_str = trim(tok.substr(0, open));
        const i64 off = off_str.empty() ? 0 : imm(off_str);
        const areg_t base = reg(tok.substr(open + 1, close - open - 1), false);
        return {static_cast<i32>(off), base};
    }
};

bool is_label_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool looks_like_label(std::string_view tok) {
    if (tok.empty() || std::isdigit(static_cast<unsigned char>(tok.front()))) return false;
    if (tok.front() == '-' || tok.front() == '+') return false;
    for (char c : tok) {
        if (!is_label_char(c)) return false;
    }
    return true;
}

}  // namespace

program assemble(std::string_view source, addr_t text_base) {
    program_builder builder(text_base);
    parser p;

    addr_t data_cursor = k_default_data_base;
    bool in_data = false;
    std::string pending_entry_label;

    std::istringstream stream{std::string(source)};
    std::string raw_line;
    std::size_t line_no = 0;

    while (std::getline(stream, raw_line)) {
        ++line_no;
        p.line = line_no;
        auto text = trim(strip_comment(raw_line));
        if (text.empty()) continue;

        // Leading labels, possibly several on one line.
        while (true) {
            const auto colon = text.find(':');
            if (colon == std::string_view::npos) break;
            const auto candidate = trim(text.substr(0, colon));
            if (!looks_like_label(candidate)) break;
            builder.label(std::string(candidate));
            text = trim(text.substr(colon + 1));
        }
        if (text.empty()) continue;

        // Directive or mnemonic.
        const auto space = text.find_first_of(" \t");
        const std::string head{space == std::string_view::npos ? text
                                                               : text.substr(0, space)};
        const auto rest =
            space == std::string_view::npos ? std::string_view{} : trim(text.substr(space));

        if (head == ".data") {
            in_data = true;
            if (!rest.empty()) data_cursor = static_cast<addr_t>(p.imm(rest));
            continue;
        }
        if (head == ".text") {
            in_data = false;
            continue;
        }
        if (head == ".entry") {
            pending_entry_label = std::string(trim(rest));
            continue;
        }
        if (head == ".dword") {
            std::vector<u64> words;
            std::istringstream ws{std::string(rest)};
            std::string tok;
            while (ws >> tok) words.push_back(static_cast<u64>(p.imm(tok)));
            builder.add_data_words(data_cursor, words);
            data_cursor += words.size() * 8;
            continue;
        }
        if (head == ".zero") {
            const auto n = static_cast<std::size_t>(p.imm(rest));
            builder.add_data(data_cursor, std::vector<u8>(n, 0));
            data_cursor += n;
            continue;
        }
        if (in_data) fail(line_no, "instructions not allowed in .data section");

        // Pseudo-instructions.
        if (head == "nop") {
            builder.emit(make_nop());
            continue;
        }
        if (head == "li") {
            const auto ops = split_operands(rest);
            if (ops.size() != 2) fail(line_no, "li needs rd, imm");
            builder.emit_li(p.reg(ops[0], false), static_cast<u64>(p.imm(ops[1])));
            continue;
        }
        if (head == "mv") {
            const auto ops = split_operands(rest);
            if (ops.size() != 2) fail(line_no, "mv needs rd, rs");
            builder.emit(make_i(opcode::addi, p.reg(ops[0], false), p.reg(ops[1], false), 0));
            continue;
        }
        if (head == "j") {
            builder.emit_jal(0, std::string(trim(rest)));
            continue;
        }
        if (head == "ret") {
            builder.emit(make_jalr(0, 1, 0));
            continue;
        }

        const auto op = opcode_from_mnemonic(head);
        if (!op) fail(line_no, "unknown mnemonic: " + head);
        const auto ops = split_operands(rest);
        const u8 fp = opcode_fp_mask(*op);
        auto need = [&](std::size_t n) {
            if (ops.size() != n) {
                fail(line_no, head + " expects " + std::to_string(n) + " operands");
            }
        };

        switch (opcode_format(*op)) {
            case op_format::r:
                need(3);
                builder.emit(make_r(*op, p.reg(ops[0], fp & 1), p.reg(ops[1], fp & 2),
                                    p.reg(ops[2], fp & 4)));
                break;
            case op_format::r2:
                need(2);
                builder.emit(make_r(*op, p.reg(ops[0], fp & 1), p.reg(ops[1], fp & 2), 0));
                break;
            case op_format::r4:
                need(4);
                builder.emit(make_r4(*op, p.reg(ops[0], fp & 1), p.reg(ops[1], fp & 2),
                                     p.reg(ops[2], fp & 4), p.reg(ops[3], fp & 8)));
                break;
            case op_format::i:
                need(3);
                builder.emit(make_i(*op, p.reg(ops[0], false), p.reg(ops[1], false),
                                    static_cast<i32>(p.imm(ops[2]))));
                break;
            case op_format::u:
                need(2);
                builder.emit(
                    make_u(*op, p.reg(ops[0], false), static_cast<i32>(p.imm(ops[1]))));
                break;
            case op_format::l: {
                need(2);
                const auto [off, base] = p.mem_operand(ops[1]);
                builder.emit(make_load(*op, p.reg(ops[0], fp & 1), base, off));
                break;
            }
            case op_format::s: {
                need(2);
                const auto [off, base] = p.mem_operand(ops[1]);
                builder.emit(make_store(*op, p.reg(ops[0], fp & 4), base, off));
                break;
            }
            case op_format::b:
                need(3);
                if (looks_like_label(ops[2])) {
                    builder.emit_branch(*op, p.reg(ops[0], false), p.reg(ops[1], false),
                                        ops[2]);
                } else {
                    builder.emit(make_branch(*op, p.reg(ops[0], false),
                                             p.reg(ops[1], false),
                                             static_cast<i32>(p.imm(ops[2]))));
                }
                break;
            case op_format::j:
                need(2);
                if (looks_like_label(ops[1])) {
                    builder.emit_jal(p.reg(ops[0], false), ops[1]);
                } else {
                    builder.emit(
                        make_jal(p.reg(ops[0], false), static_cast<i32>(p.imm(ops[1]))));
                }
                break;
            case op_format::jr:
                need(3);
                builder.emit(make_jalr(p.reg(ops[0], false), p.reg(ops[1], false),
                                       static_cast<i32>(p.imm(ops[2]))));
                break;
            case op_format::csr:
                need(3);
                builder.emit(make_csr(*op, p.reg(ops[0], false),
                                      static_cast<u16>(p.imm(ops[1])),
                                      p.reg(ops[2], false)));
                break;
            case op_format::m2:
                need(2);
                builder.emit(instr{*op, 0, p.reg(ops[0], false), p.reg(ops[1], false), 0, 0});
                break;
            case op_format::m1s:
                need(1);
                builder.emit(instr{*op, 0, p.reg(ops[0], false), 0, 0, 0});
                break;
            case op_format::m1d:
                need(1);
                builder.emit(instr{*op, p.reg(ops[0], false), 0, 0, 0, 0});
                break;
            case op_format::none:
                need(0);
                builder.emit(make_sys(*op));
                break;
        }
    }

    if (!pending_entry_label.empty()) {
        builder.set_entry(builder.label_address(pending_entry_label));
    }
    return std::move(builder).build();
}

}  // namespace meek

#include "littlecore/little_core.h"

#include <algorithm>
#include <stdexcept>

#include "common/bits.h"

namespace meek {
namespace {

// Low-domain cycles for an L1 miss serviced by the shared L2 (little cores
// sit on the low-frequency side of the SoC in Fig. 2).
constexpr cycle_t k_little_miss_penalty = 12;

}  // namespace

little_core::little_core(const little_core_config& cfg, u32 core_id,
                         functional_memory& memory)
    : cfg_(cfg),
      core_id_(core_id),
      memory_(memory),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      lsl_(cfg.lsl_entries()) {}

u32 little_core::op_latency(op_class c) const {
    switch (c) {
        case op_class::int_alu: return 1;
        case op_class::int_mul: return cfg_.mul_latency();
        case op_class::int_div: return cfg_.div_latency();
        case op_class::load: return 2;  // data at end of MA -> 1 load-use bubble
        case op_class::store: return 1;
        case op_class::branch:
        case op_class::jump: return 1;
        case op_class::fp_alu:
        case op_class::fp_mul: return cfg_.fpu_latency();
        // FP divide/sqrt go through Rocket's iterative divSqrt (~2 bits per
        // cycle for doubles), independent of the integer-divider unroll; this
        // is the little-core bottleneck behind swaptions' slowdown (Sec. V-A).
        case op_class::fp_div: return cfg_.fpu_latency() + 28;
        case op_class::csr: return 1;
        default: return 1;
    }
}

little_core::instr_timing little_core::time_instruction(const instr& ins,
                                                        cycle_t earliest,
                                                        cycle_t extra_latency) {
    cycle_t issue = earliest;
    if (ins.reads_rs1() && (ins.rs1_is_fp() || ins.rs1 != 0)) {
        issue = std::max(issue, (ins.rs1_is_fp() ? fready_ : xready_)[ins.rs1]);
    }
    if (ins.reads_rs2() && (ins.rs2_is_fp() || ins.rs2 != 0)) {
        issue = std::max(issue, (ins.rs2_is_fp() ? fready_ : xready_)[ins.rs2]);
    }
    if (ins.reads_rs3()) issue = std::max(issue, fready_[ins.rs3]);

    const op_class c = ins.klass();
    if (c == op_class::int_div || c == op_class::fp_div) {
        issue = std::max(issue, div_busy_until_);
    }
    if (c == op_class::fp_alu || c == op_class::fp_mul || c == op_class::fp_div) {
        issue = std::max(issue, fpu_next_accept_);
    }

    const cycle_t complete = issue + op_latency(c) + extra_latency;
    if (c == op_class::int_div || c == op_class::fp_div) {
        div_busy_until_ = complete;  // iterative divider is unpipelined
    }
    if (c == op_class::fp_alu || c == op_class::fp_mul) {
        fpu_next_accept_ = issue + cfg_.fpu_interval();
    }
    if (ins.writes_rd()) {
        (ins.rd_is_fp() ? fready_ : xready_)[ins.rd] = complete;
    }
    return {issue, complete};
}

cycle_t little_core::control_penalty(const instr& ins, addr_t pc, bool taken,
                                     addr_t target) {
    btb_slot& slot = btb_[(pc >> 3) % btb_.size()];
    const bool btb_hit = slot.valid && slot.pc == pc && slot.target == target;

    if (ins.klass() == op_class::branch) {
        u8& counter = bht_[(pc >> 3) % bht_.size()];
        const bool predicted_taken = counter >= 2;
        if (taken) {
            if (counter < 3) ++counter;
        } else if (counter > 0) {
            --counter;
        }
        if (predicted_taken != taken) {
            if (taken) {
                slot = {pc, target, true};
            }
            return 2;  // resolve in EX, two fetch slots squashed
        }
        if (taken && !btb_hit) {
            slot = {pc, target, true};
            return 2;
        }
        return 0;
    }
    if (ins.op == opcode::jal) {
        if (btb_hit) return 0;
        slot = {pc, target, true};
        return 1;  // direct target known at decode
    }
    // jalr / l.jal: register-indirect, resolved in EX.
    if (btb_hit) return 0;
    slot = {pc, target, true};
    return 2;
}

void little_core::assign_segment(const segment_job& job) {
    // MSU: record the application context before the checker takes over.
    saved_app_state_ = state_;
    mode_ = core_mode::check;
    phase_ = checker_phase::wait_srcp;
    park_ = park_state::runnable;
    segment_ = job.segment;
    start_seq_ = job.start_seq;
    replayed_ = 0;
    lsl_.reserve(job.segment);
    inbox_.clear();  // everything handed over so far landed before the reserve
    inbox_head_ = 0;
    fetch_line_ = ~u64{0};  // a stalled step of the last segment may have fetched since
    parity_error_pending_ = false;
    pending_result_ = segment_result{};
    pending_result_.segment = job.segment;
}

segment_result little_core::collect_result() {
    phase_ = checker_phase::idle;
    mode_ = core_mode::application;
    // MSU: restore the recorded application context.
    state_ = saved_app_state_;
    last_result_ = pending_result_.passed ? 1 : 0;
    return pending_result_;
}

void little_core::fail(check_error_kind kind, cycle_t now_lo) {
    pending_result_.passed = false;
    pending_result_.error =
        check_error{kind, segment_, start_seq_ + replayed_, now_lo};
    pending_result_.replayed_instructions = replayed_;
    pending_result_.finished_lo_cycle = now_lo;
    ++stats_.segments_failed;
    ++stats_.segments_checked;
    phase_ = checker_phase::report;
    park_ = park_state::idle_wait;
}

void little_core::take_deliveries(cycle_t now_lo) {
    for (; inbox_head_ < inbox_.size() && inbox_[inbox_head_].visible_from <= now_lo;
         ++inbox_head_) {
        if (!deliver(inbox_[inbox_head_].packet)) {
            throw std::logic_error("little_core: the LSL refused a delivery");
        }
    }
    if (inbox_head_ == inbox_.size()) {
        inbox_.clear();
        inbox_head_ = 0;
    }
}

bool little_core::run_span(cycle_t from, cycle_t to) {
    for (cycle_t n = from; n < to;) {
        // The earliest cycle a parked core can change state; parked cycles
        // before it only bump counters.
        cycle_t wake = n;
        switch (park_) {
            case park_state::idle_wait:
                return has_result();
            case park_state::busy_wait:
                wake = std::min(park_wake_, next_delivery());
                break;
            case park_state::extern_wait:
                if (!extern_wait_over()) wake = next_delivery();
                break;
            case park_state::runnable:
                break;
        }
        if (n < wake) {
            const cycle_t skip = std::min(wake, to) - n;
            account_parked(skip);
            n += skip;
            continue;
        }
        tick(n++);
    }
    return has_result();
}

void little_core::tick(cycle_t now_lo) {
    if (inbox_head_ != inbox_.size() && inbox_[inbox_head_].visible_from <= now_lo) {
        take_deliveries(now_lo);
    }
    if (phase_ == checker_phase::idle || phase_ == checker_phase::report) {
        park_ = park_state::idle_wait;
        return;
    }
    if (parity_error_pending_) {
        parity_error_pending_ = false;
        fail(check_error_kind::parity_fault, now_lo);
        return;
    }
    ++stats_.busy_cycles;
    if (now_lo < busy_until_) {
        park_ = park_state::busy_wait;
        park_wake_ = busy_until_;
        return;
    }
    park_ = park_state::runnable;

    switch (phase_) {
        case checker_phase::wait_srcp:
            if (lsl_.srcp_ready()) {
                phase_ = checker_phase::apply;
                phase_cycles_left_ = k_snapshot_words / 2;  // 2 regs per cycle
            } else {
                ++stats_.stall_srcp;
                park_ = park_state::extern_wait;
                park_stall_ = park_stall::srcp;
            }
            break;

        case checker_phase::apply:
            if (--phase_cycles_left_ == 0) {
                lsl_.srcp().restore_to(state_);
                xready_.fill(now_lo);
                fready_.fill(now_lo);
                div_busy_until_ = now_lo;
                fpu_next_accept_ = now_lo;
                busy_until_ = now_lo;
                stats_.apply_compare_cycles += k_snapshot_words / 2;
                phase_ = checker_phase::replay;
            }
            break;

        case checker_phase::replay:
            if (replay_step(now_lo) && busy_until_ > now_lo + 1) {
                // The next tick would only find the core busy: park now.
                park_ = park_state::busy_wait;
                park_wake_ = busy_until_;
            }
            break;

        case checker_phase::compare:
            if (--phase_cycles_left_ == 0) {
                stats_.apply_compare_cycles += k_snapshot_words / 2;
                const arch_snapshot final_state = arch_snapshot::capture(state_);
                if (final_state == lsl_.ercp()) {
                    pending_result_.passed = true;
                    pending_result_.replayed_instructions = replayed_;
                    pending_result_.finished_lo_cycle = now_lo;
                    ++stats_.segments_checked;
                    phase_ = checker_phase::report;
                } else {
                    fail(check_error_kind::ercp_mismatch, now_lo);
                }
            }
            break;

        default:
            break;
    }
}

bool little_core::replay_step(cycle_t now_lo) {
    // Deadlock-avoidance rule (Fig. 5b): stay at least one instruction behind
    // the main thread so instruction faults always hit the big core first.
    if (watermark_ != nullptr && *watermark_ < start_seq_ + replayed_ + 2) {
        ++stats_.stall_watermark;
        park_ = park_state::extern_wait;
        park_stall_ = park_stall::watermark;
        return false;
    }

    // Segment complete?
    if (const auto count = lsl_.expected_count(); count && replayed_ >= *count) {
        if (!lsl_.ercp_ready()) {
            ++stats_.stall_srcp;
            park_ = park_state::extern_wait;
            park_stall_ = park_stall::srcp;
            return false;
        }
        phase_ = checker_phase::compare;
        phase_cycles_left_ = k_snapshot_words / 2;
        return true;
    }

    if (prog_ == nullptr || !prog_->contains(state_.pc)) {
        fail(check_error_kind::control_divergence, now_lo);
        return false;
    }
    // Runaway guard: a corrupted SRCP can put the checker in a tight loop
    // that never consumes log entries; bound replay length.
    if (const auto count = lsl_.expected_count();
        replayed_ > (count ? *count : static_cast<u64>(cfg_.rcp_instruction_timeout)) +
                        cfg_.rcp_instruction_timeout) {
        fail(check_error_kind::control_divergence, now_lo);
        return false;
    }

    const instr ins = prog_->at(state_.pc);
    const op_class klass = ins.klass();

    // Instruction fetch through the little I$ (timing only).
    cycle_t earliest = now_lo;
    u64 fetch_line = l1i_.line_of(state_.pc);
    if (fetch_line != fetch_line_) {
        auto access = l1i_.access(state_.pc, false, now_lo,
                                  [&] { return now_lo + k_little_miss_penalty; });
        if (!access.accepted) {
            fetch_line = ~u64{0};  // not installed: look it up again
        } else if (!access.hit) {
            earliest = access.complete_at;
        }
    }

    exec_in in;
    in.ins = ins;
    in.pc = state_.pc;
    if (ins.reads_rs1()) {
        in.rs1 = ins.rs1_is_fp() ? state_.read_f(ins.rs1) : state_.read_x(ins.rs1);
    }
    if (ins.reads_rs2()) {
        in.rs2 = ins.rs2_is_fp() ? state_.read_f(ins.rs2) : state_.read_x(ins.rs2);
    }
    if (ins.reads_rs3()) in.rs3 = state_.read_f(ins.rs3);

    // Non-repeatable CSR reads are satisfied (and cross-checked) from the LSL.
    if (klass == op_class::csr) {
        if (lsl_.runtime_empty()) {
            ++stats_.stall_lsl_empty;
            park_ = park_state::extern_wait;
            park_stall_ = park_stall::lsl;
            return false;
        }
        const fwd_packet& head = lsl_.runtime_front();
        if (head.kind != packet_kind::runtime_csr) {
            fail(check_error_kind::log_kind_mismatch, now_lo);
            return false;
        }
        if (head.addr != static_cast<addr_t>(static_cast<u32>(ins.imm))) {
            fail(check_error_kind::csr_addr_mismatch, now_lo);
            return false;
        }
        in.csr_old = head.data;
        // Repeatable (checkpointed) CSRs can additionally be cross-checked
        // against the checker's own architectural copy.
        for (const u16 a : k_checkpointed_csrs) {
            if (a == static_cast<u16>(ins.imm) && state_.csrs.read(a) != head.data) {
                fail(check_error_kind::csr_addr_mismatch, now_lo);
                return false;
            }
        }
        lsl_.pop_runtime();
    }

    exec_out out = execute(in);

    cycle_t extra_latency = 0;
    if (out.mem) {
        if (lsl_.runtime_empty()) {
            ++stats_.stall_lsl_empty;
            park_ = park_state::extern_wait;
            park_stall_ = park_stall::lsl;
            return false;
        }
        const fwd_packet head = *lsl_.pop_runtime();
        if (!out.mem->is_store) {
            if (head.kind != packet_kind::runtime_load) {
                fail(check_error_kind::log_kind_mismatch, now_lo);
                return false;
            }
            if (head.addr != out.mem->addr) {
                fail(check_error_kind::load_addr_mismatch, now_lo);
                return false;
            }
            out.reg_write = true;
            out.rd_value = load_result(ins.op, head.data);
        } else {
            if (head.kind != packet_kind::runtime_store) {
                fail(check_error_kind::log_kind_mismatch, now_lo);
                return false;
            }
            if (head.addr != out.mem->addr) {
                fail(check_error_kind::store_addr_mismatch, now_lo);
                return false;
            }
            if (head.data != out.mem->store_data) {
                fail(check_error_kind::store_data_mismatch, now_lo);
                return false;
            }
        }
    }

    const instr_timing timing = time_instruction(ins, earliest, extra_latency);

    if (out.reg_write && ins.writes_rd()) {
        if (ins.rd_is_fp()) {
            state_.write_f(ins.rd, out.rd_value);
        } else {
            state_.write_x(ins.rd, out.rd_value);
        }
    }
    if (out.csr_write) state_.csrs.write(static_cast<u16>(ins.imm), out.csr_new);

    const addr_t this_pc = state_.pc;
    const bool taken_cf = out.next_pc != this_pc + k_instr_bytes;
    state_.pc = out.next_pc;

    cycle_t next_issue = timing.issue + 1;
    if (is_control_flow(ins.op)) {
        next_issue += control_penalty(ins, this_pc, taken_cf, out.next_pc);
    }
    busy_until_ = next_issue;
    fetch_line_ = fetch_line;

    ++replayed_;
    ++stats_.replayed_instructions;
    return true;
}

little_core::app_run_result little_core::run_application(u64 max_instructions) {
    app_run_result result;
    if (prog_ == nullptr) return result;

    cycle_t now = busy_until_;
    fetch_line_ = ~u64{0};  // application fetches below touch the I$
    while (result.instructions < max_instructions) {
        if (!prog_->contains(state_.pc)) break;
        const instr ins = prog_->at(state_.pc);

        cycle_t earliest = now;
        {
            auto access = l1i_.access(state_.pc, false, now,
                                      [&] { return now + k_little_miss_penalty; });
            if (access.accepted && !access.hit) earliest = access.complete_at;
        }

        exec_in in;
        in.ins = ins;
        in.pc = state_.pc;
        if (ins.reads_rs1()) {
            in.rs1 = ins.rs1_is_fp() ? state_.read_f(ins.rs1) : state_.read_x(ins.rs1);
        }
        if (ins.reads_rs2()) {
            in.rs2 = ins.rs2_is_fp() ? state_.read_f(ins.rs2) : state_.read_x(ins.rs2);
        }
        if (ins.reads_rs3()) in.rs3 = state_.read_f(ins.rs3);
        if (ins.klass() == op_class::csr) {
            in.csr_old = state_.csrs.read(static_cast<u16>(ins.imm));
        }

        exec_out out = execute(in);

        cycle_t extra_latency = 0;
        if (out.mem) {
            auto access = l1d_.access(out.mem->addr, out.mem->is_store, now,
                                      [&] { return now + k_little_miss_penalty; });
            if (access.accepted && !access.hit) {
                extra_latency = access.complete_at - now;
            }
            if (out.mem->is_store) {
                memory_.write(out.mem->addr, out.mem->size, out.mem->store_data);
            } else {
                const u64 raw = memory_.read(out.mem->addr, out.mem->size);
                out.reg_write = true;
                out.rd_value = load_result(ins.op, raw);
            }
        }

        // MEEK l.* programming-model semantics (Tab. I) in application mode.
        switch (ins.op) {
            case opcode::l_record: {
                // Record architectural registers to the address in rs1.
                const addr_t base = in.rs1;
                const arch_snapshot snap = arch_snapshot::capture(state_);
                for (u32 w = 0; w < k_snapshot_words; ++w) {
                    memory_.write(base + 8 * w, 8, snapshot_word(snap, w));
                }
                extra_latency += k_snapshot_words / 2;
                break;
            }
            case opcode::l_apply: {
                // Apply architectural registers: from the LSL when status data
                // is buffered (hardware path), else from memory at rs1.
                arch_snapshot snap;
                if (lsl_.srcp_ready()) {
                    snap = lsl_.srcp();
                } else {
                    const addr_t base = in.rs1;
                    for (u32 w = 0; w < k_snapshot_words; ++w) {
                        set_snapshot_word(snap, w, memory_.read(base + 8 * w, 8));
                    }
                }
                const addr_t resume = state_.pc + k_instr_bytes;
                snap.restore_to(state_);
                out.next_pc = state_.pc == 0 ? resume : state_.pc;
                extra_latency += k_snapshot_words / 2;
                break;
            }
            case opcode::l_rslt:
                out.reg_write = true;
                out.rd_value = last_result_;
                break;
            case opcode::l_mode:
                mode_ = in.rs2 == 0 ? core_mode::application : core_mode::check;
                break;
            default:
                break;
        }

        const instr_timing timing = time_instruction(ins, earliest, extra_latency);

        if (out.reg_write && ins.writes_rd()) {
            if (ins.rd_is_fp()) {
                state_.write_f(ins.rd, out.rd_value);
            } else {
                state_.write_x(ins.rd, out.rd_value);
            }
        }
        if (out.csr_write) state_.csrs.write(static_cast<u16>(ins.imm), out.csr_new);

        const bool taken_cf =
            out.next_pc != in.pc + k_instr_bytes && ins.op != opcode::l_apply;
        state_.pc = out.next_pc;

        now = timing.issue + 1;
        if (is_control_flow(ins.op)) {
            now += control_penalty(ins, in.pc, taken_cf, out.next_pc);
        } else if (taken_cf && ins.op != opcode::l_apply) {
            now += 2;  // l.jal and friends redirect like an indirect jump
        }

        ++result.instructions;
        ++stats_.app_instructions;

        if (out.halted) {
            result.halted = true;
            break;
        }
        if (out.trap != trap_cause::none) {
            // Kernel work on the little core is modeled as a fixed cost.
            now += 50;
        }
    }
    busy_until_ = now;
    result.cycles = now;
    return result;
}

}  // namespace meek

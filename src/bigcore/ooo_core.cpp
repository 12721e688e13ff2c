#include "bigcore/ooo_core.h"

#include <algorithm>

#include "common/bits.h"

namespace meek {

ooo_core::ooo_core(const big_core_config& cfg, functional_memory& memory)
    : cfg_(cfg),
      memory_(memory),
      hierarchy_(cfg),
      bpred_(cfg.bpred),
      fus_(cfg),
      stores_(cfg.stq_entries) {
    rob_.reset(cfg.rob_entries);
    iq_.reset(cfg.iq_entries);
    ldq_.reset(cfg.ldq_entries);
    stq_.reset(cfg.stq_entries);
    int_prf_.reset(std::max<u32>(8, cfg.phys_int_regs - k_num_arch_regs));
    fp_prf_.reset(std::max<u32>(8, cfg.phys_fp_regs - k_num_arch_regs));
}

void ooo_core::load_program(const program& prog) {
    prog_ = &prog;
    for (const pointer_ring& ring : prog.rings) memory_.map_ring(ring);
    for (const data_blob& blob : prog.data) {
        memory_.map_image(blob.base, blob.bytes.data(), blob.bytes.size());
    }
    // Mirror the text segment into memory so the checker cores fetch the same
    // bytes the big core runs.
    addr_t pc = prog.text_base;
    for (const instr& ins : prog.text) {
        memory_.write(pc, 8, encode(ins));
        pc += k_instr_bytes;
    }
    state_.pc = prog.entry;
    state_.write_x(2, k_default_stack_top);
    halted_ = false;
}

cycle_t ooo_core::fetch_one(addr_t pc, bool after_redirect) {
    cycle_t candidate = next_fetch_cycle_;
    if (fetched_this_cycle_ >= cfg_.fetch_width) {
        ++candidate;
        fetched_this_cycle_ = 0;
    }
    const addr_t line = hierarchy_.l1i().line_of(pc);
    if (line != last_fetch_line_ || after_redirect) {
        hierarchy_access access = hierarchy_.inst_access(pc, candidate);
        while (!access.accepted) {
            ++candidate;
            access = hierarchy_.inst_access(pc, candidate);
        }
        if (access.complete_at > candidate + cfg_.l1i.hit_latency) {
            stats_.stall_icache += access.complete_at - candidate;
            candidate = access.complete_at;
            fetched_this_cycle_ = 0;
        }
        last_fetch_line_ = line;
    }
    if (candidate > next_fetch_cycle_) fetched_this_cycle_ = 0;
    ++fetched_this_cycle_;
    next_fetch_cycle_ = candidate;
    return candidate;
}

u64 ooo_core::csr_read_value(u16 addr, cycle_t at) {
    // Counter and entropy CSRs are non-repeatable: the checker cannot
    // re-derive them and must take the forwarded value from the LSL.
    switch (addr) {
        case csr_addr::mcycle: return at;
        case csr_addr::minstret: return seq_;
        case csr_addr::uarch_entropy:
            return (at * 0x9e3779b97f4a7c15ULL) ^ (seq_ << 17);
        default: return state_.csrs.read(addr);
    }
}

run_result ooo_core::run(const run_limits& limits, commit_sink* sink) {
    run_result result;
    if (prog_ == nullptr) return result;

    bool after_redirect = false;
    u64 executed = 0;
    const bool* const stop = limits.stop;
    // One record for the whole run: every field is either assigned for each
    // instruction or reset below, so it is not value-initialized per commit.
    commit_record record;

    while (!halted_ && executed < limits.max_instructions && !*stop &&
           last_commit_cycle_ < limits.max_cycles) {
        const addr_t pc = state_.pc;
        if (!prog_->contains(pc)) {
            halted_ = true;  // fell off the text segment: treat as termination
            break;
        }
        const instr ins = prog_->at(pc);
        const op_class klass = ins.klass();

        // ---- Fetch ----
        const cycle_t fetch_cycle = fetch_one(pc, after_redirect);
        if (after_redirect) after_redirect = false;

        // ---- Dispatch: width + structure constraints ----
        cycle_t dispatch = std::max(fetch_cycle + cfg_.front_end_stages, dispatch_cycle_);
        if (dispatch == dispatch_cycle_ && dispatched_this_cycle_ >= cfg_.decode_width) {
            ++dispatch;
        }
        const bool is_load = klass == op_class::load;
        const bool is_store = klass == op_class::store;
        const bool writes_reg = ins.writes_rd();

        auto constrain = [&](occupancy_ring& ring, u64& stall_counter) {
            const cycle_t at = ring.allocate_at(dispatch);
            if (at > dispatch) {
                stall_counter += at - dispatch;
                dispatch = at;
            }
        };
        constrain(rob_, stats_.stall_rob_full);
        constrain(iq_, stats_.stall_iq_full);
        if (is_load) constrain(ldq_, stats_.stall_ldq_full);
        if (is_store) constrain(stq_, stats_.stall_stq_full);
        if (writes_reg) {
            constrain(ins.rd_is_fp() ? fp_prf_ : int_prf_, stats_.stall_prf_full);
        }
        if (dispatch > dispatch_cycle_) {
            dispatch_cycle_ = dispatch;
            dispatched_this_cycle_ = 1;
        } else {
            ++dispatched_this_cycle_;
        }

        // ---- Operand gathering (functional values + readiness times) ----
        exec_in in;
        in.ins = ins;
        in.pc = pc;
        cycle_t src_ready = dispatch + 1;
        if (ins.reads_rs1()) {
            in.rs1 = ins.rs1_is_fp() ? state_.read_f(ins.rs1) : state_.read_x(ins.rs1);
            const auto& board = ins.rs1_is_fp() ? freg_ready_ : xreg_ready_;
            if (!ins.rs1_is_fp() && ins.rs1 == 0) {
                // x0: always ready
            } else {
                src_ready = std::max(src_ready, board[ins.rs1]);
            }
        }
        if (ins.reads_rs2()) {
            in.rs2 = ins.rs2_is_fp() ? state_.read_f(ins.rs2) : state_.read_x(ins.rs2);
            const auto& board = ins.rs2_is_fp() ? freg_ready_ : xreg_ready_;
            if (ins.rs2_is_fp() || ins.rs2 != 0) {
                src_ready = std::max(src_ready, board[ins.rs2]);
            }
        }
        if (ins.reads_rs3()) {
            in.rs3 = state_.read_f(ins.rs3);
            src_ready = std::max(src_ready, freg_ready_[ins.rs3]);
        }
        const bool is_csr = klass == op_class::csr;
        if (is_csr) {
            src_ready = std::max(src_ready, csr_serial_ready_);
            in.csr_old = csr_read_value(static_cast<u16>(ins.imm), src_ready);
        }

        // ---- Functional execution ----
        exec_out out = execute(in);

        // ---- Issue + completion timing ----
        const fu_latency lat = big_core_latency(klass);
        const cycle_t issue = fus_.reserve(klass, src_ready, lat);
        cycle_t complete = issue + lat.latency;

        record.seq = seq_;
        record.pc = pc;
        record.ins = ins;
        record.mem = out.mem;
        record.reg_write = false;
        record.rd_value = 0;
        record.load_data = 0;
        record.load_parity = 0;
        record.csr_read = false;
        record.csr_value = 0;

        if (out.mem && !out.mem->is_store) {
            // Load: try store-to-load forwarding, else the cache hierarchy.
            const addr_t lo = out.mem->addr;
            const addr_t hi = lo + out.mem->size;
            if (const store_buffer::entry* st = stores_.youngest_overlap(lo, out.mem->size)) {
                if (lo >= st->addr && hi <= st->addr + st->size) {
                    complete = std::max(issue, st->data_ready) + 1;
                } else {
                    // Partial overlap: wait for the store to drain, then read.
                    cycle_t t = std::max(issue, st->commit_at + 1);
                    hierarchy_access access = hierarchy_.data_access(lo, false, t);
                    while (!access.accepted) {
                        ++t;
                        access = hierarchy_.data_access(lo, false, t);
                    }
                    complete = access.complete_at;
                }
            } else {
                cycle_t t = issue;
                hierarchy_access access = hierarchy_.data_access(lo, false, t);
                while (!access.accepted) {
                    ++t;
                    ++stats_.stall_dcache;
                    access = hierarchy_.data_access(lo, false, t);
                }
                complete = access.complete_at;
            }
            const u64 raw = memory_.read(lo, out.mem->size);
            record.load_data = raw;
            record.load_parity = parity64(raw);
            out.reg_write = true;
            out.rd_value = load_result(ins.op, raw);
        } else if (out.mem && out.mem->is_store) {
            memory_.write(out.mem->addr, out.mem->size, out.mem->store_data);
        }

        if (is_csr) {
            record.csr_read = true;
            record.csr_value = in.csr_old;
            if (out.csr_write) state_.csrs.write(static_cast<u16>(ins.imm), out.csr_new);
            csr_serial_ready_ = complete;
        }

        // ---- Branch prediction / redirect ----
        bool mispredicted = false;
        if (klass == op_class::branch) {
            ++stats_.branches;
            if (out.is_taken_branch) ++stats_.taken_branches;
            tage_prediction meta;
            const bool predicted_taken = bpred_.predict_branch(pc, meta);
            bpred_.resolve_branch(pc, meta, out.is_taken_branch);
            mispredicted = predicted_taken != out.is_taken_branch;
        } else if (ins.op == opcode::jal) {
            if (ins.rd != 0) bpred_.note_call(pc + k_instr_bytes);
        } else if (ins.op == opcode::jalr) {
            const bool is_return = ins.rd == 0 && ins.rs1 == 1;
            if (ins.rd != 0) bpred_.note_call(pc + k_instr_bytes);
            mispredicted = !bpred_.predict_indirect(pc, is_return, out.next_pc);
        }
        if (mispredicted) ++stats_.mispredicts;

        // ---- Architectural update ----
        if (out.reg_write && ins.writes_rd()) {
            if (ins.rd_is_fp()) {
                state_.write_f(ins.rd, out.rd_value);
                freg_ready_[ins.rd] = complete;
            } else {
                state_.write_x(ins.rd, out.rd_value);
                xreg_ready_[ins.rd] = complete;
            }
            record.reg_write = true;
            record.rd_value = out.rd_value;
        }
        state_.pc = out.next_pc;
        if (out.halted) halted_ = true;

        // ---- Commit (in order, commit_width per cycle) ----
        cycle_t proposed = std::max(complete + 1, last_commit_cycle_);
        if (proposed == last_commit_cycle_ && committed_this_cycle_ >= cfg_.commit_width) {
            ++proposed;
        }
        record.is_trap = out.trap != trap_cause::none;
        record.commit_cycle = proposed;
        cycle_t actual = proposed;
        if (sink != nullptr) {
            actual = sink->on_commit(record, proposed);
            if (actual > proposed) stats_.stall_sink += actual - proposed;
        }
        if (actual > last_commit_cycle_) {
            committed_this_cycle_ = 1;
        } else {
            ++committed_this_cycle_;
        }
        last_commit_cycle_ = actual;

        // ---- Structure releases ----
        rob_.commit_allocation(actual);
        iq_.commit_allocation(issue);
        if (is_load) ldq_.commit_allocation(actual);
        if (is_store) {
            stq_.commit_allocation(actual + 1);
            stores_.push({out.mem->addr, out.mem->size, complete, actual});
            // Store drains to the cache after commit; timing side effect only.
            hierarchy_.data_access(out.mem->addr, true, actual + 1);
        }
        if (writes_reg) {
            (ins.rd_is_fp() ? fp_prf_ : int_prf_).commit_allocation(actual);
        }

        // ---- Redirects (mispredicts, taken control flow, traps) ----
        if (out.trap != trap_cause::none) {
            ++stats_.traps;
            trap_outcome outcome;
            outcome.resume_pc = out.next_pc;
            if (trap_handler_) outcome = trap_handler_(out.trap, pc, state_);
            state_.pc = outcome.resume_pc;
            next_fetch_cycle_ = actual + outcome.kernel_cycles;
            fetched_this_cycle_ = 0;
            last_fetch_line_ = ~addr_t{0};
            after_redirect = true;
        } else if (mispredicted) {
            const cycle_t redirect_at = complete + 2;
            stats_.stall_redirect += redirect_at > next_fetch_cycle_
                                         ? redirect_at - next_fetch_cycle_
                                         : 0;
            next_fetch_cycle_ = std::max(next_fetch_cycle_, redirect_at);
            fetched_this_cycle_ = 0;
            last_fetch_line_ = ~addr_t{0};
            after_redirect = true;
        } else if (out.next_pc != pc + k_instr_bytes) {
            // Correctly-predicted taken control flow still ends the fetch group.
            next_fetch_cycle_ = std::max(next_fetch_cycle_, fetch_cycle + 1);
            fetched_this_cycle_ = 0;
            last_fetch_line_ = ~addr_t{0};
        }

        // ---- Bookkeeping ----
        switch (klass) {
            case op_class::load: ++stats_.loads; break;
            case op_class::store: ++stats_.stores; break;
            case op_class::int_alu: ++stats_.int_ops; break;
            case op_class::int_mul: ++stats_.mul_ops; break;
            case op_class::int_div: ++stats_.div_ops; break;
            case op_class::fp_alu:
            case op_class::fp_mul: ++stats_.fp_ops; break;
            case op_class::fp_div:
                ++stats_.fp_ops;
                ++stats_.fp_div_ops;
                break;
            case op_class::csr: ++stats_.csr_ops; break;
            default: break;
        }
        ++seq_;
        ++executed;
        stats_.instructions = seq_;
        stats_.cycles = last_commit_cycle_;
    }

    if (halted_ && sink != nullptr) sink->on_halt(last_commit_cycle_);

    result.instructions = executed;
    result.cycles = last_commit_cycle_;
    result.halted = halted_;
    result.truncated = !halted_;
    return result;
}

}  // namespace meek

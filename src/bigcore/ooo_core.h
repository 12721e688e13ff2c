// Cycle-level model of the 4-wide OoO superscalar big core (SonicBOOM-class,
// Table II). Execution is functional-first: the dynamic instruction stream is
// executed sequentially against golden architectural state while a
// scheduled-time timing model tracks fetch groups, structure occupancy
// (ROB/IQ/LSQ/PRF), functional-unit contention, the cache hierarchy and
// branch prediction. Committed instructions stream to an optional
// commit_sink (the DEU), whose return value can stall the commit stage —
// which is the only way MEEK perturbs the core, mirroring the paper's
// non-intrusive observation channel.
#pragma once

#include <functional>

#include "bigcore/commit.h"
#include "bigcore/fu_pool.h"
#include "bigcore/store_buffer.h"
#include "bpred/tage.h"
#include "common/config.h"
#include "isa/arch_state.h"
#include "isa/program.h"
#include "mem/functional_memory.h"
#include "mem/hierarchy.h"

namespace meek {

struct core_stats {
    u64 instructions = 0;
    cycle_t cycles = 0;

    // Instruction mix.
    u64 loads = 0;
    u64 stores = 0;
    u64 branches = 0;
    u64 taken_branches = 0;
    u64 mispredicts = 0;
    u64 int_ops = 0;
    u64 mul_ops = 0;
    u64 div_ops = 0;
    u64 fp_ops = 0;
    u64 fp_div_ops = 0;
    u64 csr_ops = 0;
    u64 traps = 0;

    // Stall attribution (cycles of dispatch/commit delay per binding cause).
    u64 stall_icache = 0;
    u64 stall_redirect = 0;
    u64 stall_rob_full = 0;
    u64 stall_iq_full = 0;
    u64 stall_ldq_full = 0;
    u64 stall_stq_full = 0;
    u64 stall_prf_full = 0;
    u64 stall_dcache = 0;
    u64 stall_sink = 0;   // commit backpressure from the DEU / MEEK subsystem

    double ipc() const {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) / static_cast<double>(cycles);
    }
    bool operator==(const core_stats&) const = default;
};

struct run_limits {
    u64 max_instructions = ~u64{0};
    cycle_t max_cycles = ~cycle_t{0};

    // Caller-owned stop request, read after every instruction at the same
    // place as `max_instructions`. Once `*stop` is true (typically set from
    // inside the commit_sink during commit N), run() returns after that
    // instruction exactly as if it had hit the instruction cap: N+1
    // instructions, `truncated`. Clear it and call run() again to resume.
    // The default points at a constant false, so the check is one load.
    const bool* stop = &never_stop;
    static constexpr bool never_stop = false;
};

struct run_result {
    u64 instructions = 0;
    cycle_t cycles = 0;
    bool halted = false;     // program executed `halt`
    bool truncated = false;  // hit a run limit instead
};

class ooo_core {
public:
    ooo_core(const big_core_config& cfg, functional_memory& memory);

    // Installs the program: its pointer rings, then its data blobs, are
    // mapped into memory by reference (copy-on-write, see
    // functional_memory.h), the text is written to memory, PC moves to the
    // entry point, the stack pointer (x2) to the default stack top. The core
    // keeps reading `prog`'s text, rings and data bytes, so `prog` must
    // outlive the core and its memory and must not change while they are in
    // use; a temporary does not compile.
    void load_program(const program& prog);
    void load_program(program&&) = delete;

    // Runs until halt or a limit; resumable (state persists across calls).
    run_result run(const run_limits& limits, commit_sink* sink = nullptr);

    arch_state& state() { return state_; }
    const arch_state& state() const { return state_; }
    const core_stats& stats() const { return stats_; }
    const memory_hierarchy& hierarchy() const { return hierarchy_; }
    const branch_predictor& predictor() const { return bpred_; }
    const big_core_config& config() const { return cfg_; }

    // Kernel hook for traps (ecall/ebreak): receives the trap PC and may
    // rewrite architectural state; returns the PC to resume at and the number
    // of big-core cycles the kernel path consumed.
    struct trap_outcome {
        addr_t resume_pc = 0;
        cycle_t kernel_cycles = 200;
    };
    using trap_handler = std::function<trap_outcome(trap_cause, addr_t, arch_state&)>;
    void set_trap_handler(trap_handler handler) { trap_handler_ = std::move(handler); }

private:
    // Ring of timestamps modeling a structure with `size` entries: entry i
    // can be reused once entry (i - size) has released at its stored time.
    class occupancy_ring {
    public:
        void reset(std::size_t size) {
            times_.assign(size, 0);
            head_ = 0;
        }
        // Earliest time a new allocation can proceed given release times.
        cycle_t allocate_at(cycle_t earliest) {
            return std::max(earliest, times_[head_]);
        }
        void commit_allocation(cycle_t release_time) {
            times_[head_] = release_time;
            if (++head_ == times_.size()) head_ = 0;
        }

    private:
        std::vector<cycle_t> times_;
        std::size_t head_ = 0;
    };

    cycle_t fetch_one(addr_t pc, bool after_redirect);
    u64 csr_read_value(u16 addr, cycle_t at);

    big_core_config cfg_;
    functional_memory& memory_;
    memory_hierarchy hierarchy_;
    branch_predictor bpred_;
    fu_pool fus_;
    arch_state state_;
    const program* prog_ = nullptr;
    trap_handler trap_handler_;
    core_stats stats_;

    // Timing state (persists across run() calls so runs are resumable).
    cycle_t next_fetch_cycle_ = 0;
    u32 fetched_this_cycle_ = 0;
    addr_t last_fetch_line_ = ~addr_t{0};
    cycle_t dispatch_cycle_ = 0;
    u32 dispatched_this_cycle_ = 0;
    cycle_t last_commit_cycle_ = 0;
    u32 committed_this_cycle_ = 0;
    u64 seq_ = 0;

    occupancy_ring rob_;
    occupancy_ring iq_;
    occupancy_ring ldq_;
    occupancy_ring stq_;
    occupancy_ring int_prf_;
    occupancy_ring fp_prf_;

    // Scoreboard: completion time of the latest writer of each arch register.
    std::array<cycle_t, k_num_arch_regs> xreg_ready_{};
    std::array<cycle_t, k_num_arch_regs> freg_ready_{};
    cycle_t csr_serial_ready_ = 0;  // CSR ops execute serially

    store_buffer stores_;
    bool halted_ = false;
};

}  // namespace meek

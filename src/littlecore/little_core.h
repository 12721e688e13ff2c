// In-order scalar little core (Rocket-class, 5-stage pipeline) upgraded with
// the Mode Switch Unit and Load-Store Log (Fig. 4). Two operational modes:
//
//  * application mode — ordinary execution against main memory through its
//    own L1 caches (used by "other threads" and by the l.* programming-model
//    demos);
//  * check mode — replay of a recorded segment: architectural state is reset
//    from the SRCP, loads and non-repeatable instructions are satisfied from
//    the LSL with inline address/data comparison, and the final state is
//    compared against the ERCP.
//
// All timing is in the low-frequency domain (1.6 GHz). CPI comes from an
// in-order scoreboard: 1 IPC peak, per-class latencies (div/FPU per tuning),
// load-use bubbles, 2-cycle taken-branch flushes and I$ misses.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/config.h"
#include "isa/arch_state.h"
#include "isa/exec.h"
#include "isa/program.h"
#include "littlecore/lsl.h"
#include "mem/cache.h"
#include "mem/functional_memory.h"

namespace meek {

enum class core_mode : u8 { application, check };

enum class checker_phase : u8 {
    idle,        // no segment assigned
    wait_srcp,   // busy-waiting on status data (Al. 2 line 19)
    apply,       // l.apply: loading architectural state from the LSL
    replay,      // re-executing the segment
    compare,     // ERCP comparison
    report,      // result latched, waiting for the controller to collect
};

enum class check_error_kind : u8 {
    none,
    load_addr_mismatch,    // replayed load address != logged address
    store_addr_mismatch,
    store_data_mismatch,
    csr_addr_mismatch,
    log_kind_mismatch,     // replay wanted a different entry type than logged
    ercp_mismatch,         // final architectural state differs from the ERCP
    control_divergence,    // replay left the text segment / overran the count
    parity_fault,          // load data failed its parity check at the LSL
};

struct check_error {
    check_error_kind kind = check_error_kind::none;
    u32 segment = 0;
    u64 seq = 0;               // dynamic instruction seq where detected (approx)
    cycle_t detect_lo_cycle = 0;
};

struct segment_result {
    u32 segment = 0;
    bool passed = true;
    check_error error;
    u64 replayed_instructions = 0;
    cycle_t finished_lo_cycle = 0;
};

struct little_core_stats {
    u64 replayed_instructions = 0;
    u64 segments_checked = 0;
    u64 segments_failed = 0;
    cycle_t busy_cycles = 0;          // cycles not idle
    cycle_t stall_lsl_empty = 0;      // waiting for run-time data to arrive
    cycle_t stall_watermark = 0;      // one-instruction-behind rule
    cycle_t stall_srcp = 0;           // busy-wait for status data
    cycle_t apply_compare_cycles = 0; // l.apply + ERCP comparison overhead
    u64 app_instructions = 0;
};

class little_core {
public:
    // `watermark` points at the big core's committed-instruction counter and
    // implements the deadlock-avoidance rule of Fig. 5(b): the checker stays
    // at least one instruction behind the main thread.
    little_core(const little_core_config& cfg, u32 core_id,
                functional_memory& memory);

    void set_program(const program& prog) { prog_ = &prog; }
    void set_watermark(const u64* watermark) { watermark_ = watermark; }

    // --- Check mode (driven by the MEEK controller) ---
    struct segment_job {
        u32 segment = 0;
        u64 start_seq = 0;
    };
    void assign_segment(const segment_job& job);
    bool idle() const { return phase_ == checker_phase::idle; }
    bool has_result() const { return phase_ == checker_phase::report; }
    segment_result collect_result();

    // --- Park state (event-driven low-domain advance) ---
    // After every tick() the core publishes why its next tick would be a
    // no-op, so the SoC can jump over provably-idle spans in one step:
    //   runnable    — must be ticked every little cycle (no skipping);
    //   idle_wait   — idle/report: nothing happens until assign/collect;
    //   busy_wait   — busy-waiting on busy_until_ (wake at park_wake());
    //   extern_wait — stalled on external input: SRCP/ERCP words or LSL
    //                 entries (any delivery unparks), or the commit watermark
    //                 (extern_wait_over() turns true once it has passed).
    enum class park_state : u8 { runnable, idle_wait, busy_wait, extern_wait };
    park_state park() const { return park_; }
    cycle_t park_wake() const { return park_wake_; }  // little cycles; busy_wait only
    // Little cycle at which the next handed-over packet lands (~0: none).
    cycle_t next_delivery() const {
        return inbox_head_ == inbox_.size() ? ~cycle_t{0} : inbox_[inbox_head_].visible_from;
    }
    // Little cycle of the latched result (has_result() only).
    cycle_t result_cycle() const { return pending_result_.finished_lo_cycle; }

    // An extern_wait on the one-behind rule ends as soon as the shared commit
    // watermark passes, with no call into the core: the SoC checks this
    // where it visits parked cores, so a commit costs nothing per checker.
    bool extern_wait_over() const {
        return park_stall_ == park_stall::watermark &&
               *watermark_ >= start_seq_ + replayed_ + 2;
    }

    load_store_log& lsl() { return lsl_; }

    // Fabric delivery port, the only way into the LSL: the packet lands at
    // the start of little cycle `visible_from`, when the first tick at or
    // after it delivers it (in hand-over order). The SoC hands over a whole
    // span's arrivals before running it; an LSL that refuses one throws
    // std::logic_error (fabric.h).
    void deliver_at(const fwd_packet& p, cycle_t visible_from) {
        inbox_.push_back({p, visible_from});
    }

    // Advance one little-core cycle.
    void tick(cycle_t now_lo);

    // Runs little cycles [from, to) in one call: ticks every cycle the core
    // can work in and accounts parked spans in bulk, waking at the next
    // hand-over. Returns as soon as the core parks idle (e.g. it reported),
    // and true when it then holds a result.
    bool run_span(cycle_t from, cycle_t to);

    // --- Application mode (standalone execution, OS threads, l.* demos) ---
    // Runs `max_instructions` starting from the core's current architectural
    // state; returns cycles consumed (low-domain). Used by tests/examples and
    // the Fig. 10 perf/area bench.
    struct app_run_result {
        u64 instructions = 0;
        cycle_t cycles = 0;
        bool halted = false;
    };
    app_run_result run_application(u64 max_instructions);

    arch_state& state() { return state_; }
    const little_core_stats& stats() const { return stats_; }
    const little_core_config& config() const { return cfg_; }
    u32 core_id() const { return core_id_; }
    core_mode mode() const { return mode_; }

    // Last l.rslt value for the programming-model demo (1 = pass).
    u64 last_result() const { return last_result_; }

private:
    struct instr_timing {
        cycle_t issue = 0;
        cycle_t complete = 0;
    };

    // Bulk accounting for `n` parked little cycles (run_span): replicates
    // exactly what `n` consecutive ticks would have recorded (a parked tick
    // only bumps busy/stall counters and returns — no other state changes).
    void account_parked(cycle_t n) {
        if (park_ == park_state::busy_wait) {
            stats_.busy_cycles += n;
        } else if (park_ == park_state::extern_wait) {
            stats_.busy_cycles += n;
            switch (park_stall_) {
                case park_stall::srcp: stats_.stall_srcp += n; break;
                case park_stall::watermark: stats_.stall_watermark += n; break;
                case park_stall::lsl: stats_.stall_lsl_empty += n; break;
                case park_stall::none: break;
            }
        }
        // idle_wait: nothing to count; runnable cores are never bulk-skipped.
    }

    // Executes one replay instruction if its inputs (LSL entries, watermark)
    // allow; returns false when stalled this cycle.
    bool replay_step(cycle_t now_lo);
    // Moves every handed-over packet visible by `now_lo` into the LSL.
    void take_deliveries(cycle_t now_lo);
    // One packet into the LSL; false if the LSL refused it. Load data is
    // parity-checked on arrival (the paper duplicates/protects the data
    // end-to-end: cache parity is carried through the LSQ and F2).
    bool deliver(const fwd_packet& p) {
        if (p.kind == packet_kind::runtime_load && p.segment == lsl_.segment() &&
            phase_ != checker_phase::idle && parity64(p.data) != p.parity) {
            parity_error_pending_ = true;
        }
        return lsl_.deliver(p);
    }
    instr_timing time_instruction(const instr& ins, cycle_t earliest,
                                  cycle_t extra_latency);
    u32 op_latency(op_class c) const;
    void fail(check_error_kind kind, cycle_t now_lo);

    // Rocket-style front end: small BTB + 2-bit BHT. Returns the fetch-bubble
    // penalty (0 when predicted correctly) for a resolved control transfer.
    cycle_t control_penalty(const instr& ins, addr_t pc, bool taken, addr_t target);

    // The state every tick and park check reads comes first, so it shares
    // one or two host cache lines: the SoC visits each checker's park state
    // every low cycle, and the rest of the core is kilobytes of tables.
    enum class park_stall : u8 { none, srcp, watermark, lsl };
    park_state park_ = park_state::runnable;
    park_stall park_stall_ = park_stall::none;
    checker_phase phase_ = checker_phase::idle;
    core_mode mode_ = core_mode::application;
    bool parity_error_pending_ = false;
    cycle_t park_wake_ = 0;
    cycle_t busy_until_ = 0;
    const u64* watermark_ = nullptr;
    u64 start_seq_ = 0;
    u64 replayed_ = 0;
    little_core_stats stats_;

    struct handed_over {
        fwd_packet packet;
        cycle_t visible_from = 0;
    };
    // Hand-overs not yet delivered; consumed from inbox_head_ and reset to
    // empty once drained, so it never grows past one span's arrivals.
    std::vector<handed_over> inbox_;
    std::size_t inbox_head_ = 0;
    // L1I line of the last completed replay step: the step after it on the
    // same line would hit (nothing else touched the I$ in between, and a
    // miss's fill has landed by the next issue), so it skips the lookup.
    u64 fetch_line_ = ~u64{0};

    little_core_config cfg_;
    u32 core_id_;
    functional_memory& memory_;
    const program* prog_ = nullptr;

    cache_model l1i_;
    cache_model l1d_;
    load_store_log lsl_;

    arch_state state_;
    arch_state saved_app_state_;  // MSU-recorded context (l.record semantics)

    // Replay bookkeeping.
    u32 segment_ = 0;
    cycle_t phase_cycles_left_ = 0;
    std::array<cycle_t, k_num_arch_regs> xready_{};
    std::array<cycle_t, k_num_arch_regs> fready_{};
    cycle_t div_busy_until_ = 0;
    cycle_t fpu_next_accept_ = 0;
    segment_result pending_result_;
    u64 last_result_ = 1;

    struct btb_slot {
        addr_t pc = 0;
        addr_t target = 0;
        bool valid = false;
    };
    std::array<btb_slot, 64> btb_{};
    std::array<u8, 256> bht_{};  // 2-bit counters, taken when >= 2
};

}  // namespace meek

// MEEK SoC top level: one big OoO core + N little checker cores joined by
// the forwarding fabric, with the DEU observing commits and the segmentation
// controller implementing the RCP protocol of Figs. 1/2.
//
// Clocking: the big core runs in the 3.2 GHz domain; the fabric and little
// cores run in the 1.6 GHz domain (one low cycle per two big cycles).
//
// The slowdown MEEK induces on the big core appears exclusively as commit
// backpressure, split into the Fig. 9 taxonomy:
//   * collecting — the DEU's snapshot read-out occupies the PRF ports;
//   * forwarding — a DC-Buffer channel is full (fabric cannot drain fast
//     enough);
//   * checker    — an RCP is due but no little core / LSL is free, or the
//     reserved LSL is full mid-segment.
//
// Forwarding: the fabric books each packet's transmission slots and
// arrivals when it is pushed (fabric.h). That is exact because an LSL never
// refuses a delivery: the DEU ends a segment once its run-time entries fill
// the target LSL, and packets of any other segment are dropped.
//
// Low-domain advance: advance_low_to() simulates the low cycles up to the
// big-core cycle in one span. Reservations (assign_segment) happen only
// between spans, so the SoC hands every busy checker, up front, each delivery
// arriving before the span ends, stamped with the little cycle it becomes
// visible in; little_core::run_span then runs each checker through the span
// in one call, ticking only the cycles it can work in and accounting parked
// cycles in bulk. Reports are collected in (low cycle, core) order, as a
// cycle-by-cycle advance collects them. The exhaustive reference mode ticks
// every checker every little cycle instead and delivers each packet at its
// arrival; both modes give bit-identical results.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigcore/ooo_core.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/function_ref.h"
#include "deu/deu.h"
#include "fabric/fabric.h"
#include "littlecore/little_core.h"

namespace meek {

struct detection_event {
    check_error_kind kind = check_error_kind::none;
    u32 segment = 0;
    cycle_t detect_big_cycle = 0;
};

struct soc_stats {
    u64 segments_started = 0;
    u64 segments_verified = 0;
    u64 segments_failed = 0;
    u64 errors_detected = 0;

    // Backpressure buckets, in big-core cycles of commit stall.
    cycle_t stall_collecting = 0;
    cycle_t stall_forwarding = 0;
    cycle_t stall_checker = 0;

    cycle_t total_stall() const {
        return stall_collecting + stall_forwarding + stall_checker;
    }
};

struct meek_run_result {
    run_result big;            // big-core view (cycles include stalls)
    cycle_t drain_cycles = 0;  // extra big cycles to finish outstanding checks
    soc_stats soc;
    bool verified_ok = false;  // all segments passed (expected when no faults)
    // Non-empty when the run was aborted because the SoC could provably make
    // no further progress (e.g. a zero-capacity fabric that can never accept
    // a packet) or exhausted its stall budget. Replaces the former livelock.
    std::string error;
};

// Internal abort signal for stalled-forever configurations; meek_soc::run()
// converts it into meek_run_result::error.
struct soc_stall_error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

class meek_soc : public commit_sink {
public:
    // Throws std::invalid_argument unless 1 <= cfg.num_little_cores <=
    // k_max_little_cores, the cores a dest_mask_t can address.
    meek_soc(const soc_config& cfg);

    // Loads the application program onto the big core (and makes the text
    // visible to the little cores' fetch path). The SoC's memory reads
    // `prog`'s rings and data bytes in place, so `prog` must outlive the SoC
    // and must not change while it runs; a temporary does not compile.
    void load_program(const program& prog);
    void load_program(program&&) = delete;

    // b.check: enable/disable the checking capacity.
    void set_checking(bool enabled);

    // Runs the application thread to completion (or to `limits`), then
    // drains all outstanding checker work.
    meek_run_result run(const run_limits& limits = {});

    // --- Instrumentation / fault-injection hooks ---
    // Called on every packet right before it enters the fabric; campaigns
    // corrupt packets here (the paper injects "errors in the forwarded data
    // from the F2 connected to the big core").
    // The owning std::function is cold storage; the per-packet call sites
    // dispatch through a function_ref (null fast path = one predictable
    // branch, no type-erasure layers when a campaign is attached).
    using packet_hook = std::function<void(fwd_packet&)>;
    void set_packet_hook(packet_hook hook) {
        packet_hook_ = std::move(hook);
        if (packet_hook_) {
            packet_ref_ = function_ref<void(fwd_packet&)>(packet_hook_);
        } else {
            packet_ref_.reset();
        }
    }

    using error_hook = std::function<void(const detection_event&)>;
    void set_error_hook(error_hook hook) {
        error_hook_ = std::move(hook);
        if (error_hook_) {
            error_ref_ = function_ref<void(const detection_event&)>(error_hook_);
        } else {
            error_ref_.reset();
        }
    }

    // Low-domain advance strategy. Event-driven (default) runs each checker
    // through a whole span per call, with bulk-accounted parked cycles;
    // exhaustive ticks every checker every cycle and is the reference mode
    // (env MEEK_LOW_ADVANCE=exhaustive selects it globally). Both produce
    // bit-identical results.
    void set_event_driven_low_advance(bool on) { event_driven_ = on; }
    bool event_driven_low_advance() const { return event_driven_; }

    // commit_sink interface (driven by the big core).
    cycle_t on_commit(const commit_record& rec, cycle_t proposed) override;
    void on_halt(cycle_t at) override;

    const soc_stats& stats() const { return stats_; }
    const ooo_core& big_core() const { return *big_; }
    ooo_core& big_core() { return *big_; }
    const little_core& little(u32 i) const { return *littles_[i]; }
    const fabric_model& fabric() const { return *fabric_; }
    const data_extraction_unit& deu() const { return deu_; }
    const std::vector<detection_event>& detections() const { return detections_; }
    const soc_config& config() const { return cfg_; }

    double big_cycle_to_ns(cycle_t c) const { return big_clock_.cycles_to_ns(c); }

private:
    struct pending_rcp {
        arch_snapshot snapshot;
        u32 boundary = 0;      // snapshot index (segment it starts)
        u64 start_seq = 0;     // first instruction of the new segment
    };

    // Advance the low-frequency domain until `big_cycle`; collects checker
    // results as they appear.
    void advance_low_to(cycle_t big_cycle) {
        const cycle_t target = (big_cycle + 1) / 2;  // == ceil(big_cycle / 2)
        if (target > low_ticks_done_) run_low_until(target);
    }
    // Simulates low cycles [low_ticks_done_, target_lo), target_lo >
    // low_ticks_done_: one span per call in event mode, cycle by cycle
    // (tick_low_once) in exhaustive mode.
    void run_low_until(cycle_t target_lo);
    void tick_low_once();
    // Hands the fabric's deliveries due by `now_lo` to the checkers.
    void hand_over(cycle_t now_lo);
    void collect_results();

    // Wait-loop helpers. next_activity_lo() returns the earliest low cycle
    // >= low_ticks_done_ at which any state can change (k_never when the SoC
    // is quiescent and only external input could wake it);
    // step_low_for_wait() runs through that cycle and throws soc_stall_error
    // on quiescence or an exhausted stall budget.
    static constexpr cycle_t k_never = ~cycle_t{0};
    cycle_t next_activity_lo() const;
    void step_low_for_wait(cycle_t& guard, const char* what);
    void set_low_ticks(cycle_t lo);  // jumps the low and little clocks to `lo`
    cycle_t low_cycle_of(cycle_t little) const;  // low cycle whose batch holds it

    // Push helpers that spin the low domain until the fabric accepts,
    // charging the wait to `stall_bucket`. Returns the (possibly later)
    // big-cycle at which the push succeeded.
    cycle_t push_blocking(const fwd_packet& p, u32 path, cycle_t now_big,
                          cycle_t& stall_bucket);

    // Emit the snapshot word stream for boundary `b` to `dest`. `seq` tags
    // the words with the committing instruction for latency bookkeeping.
    cycle_t send_status(const arch_snapshot& snap, u32 boundary, dest_mask_t dest,
                        cycle_t now_big, u64 seq);

    int find_idle_core() const;
    void assign_segment(u32 core, u32 segment, u64 start_seq);
    cycle_t fire_rcp(const commit_record& rec, cycle_t now_big, bool final_rcp);

    soc_config cfg_;
    clock_domain big_clock_;
    clock_domain low_clock_;

    functional_memory memory_;
    std::unique_ptr<ooo_core> big_;
    std::vector<std::unique_ptr<little_core>> littles_;
    std::unique_ptr<fabric_model> fabric_;
    data_extraction_unit deu_;

    const program* prog_ = nullptr;
    bool checking_ = true;

    // Segmentation state.
    u32 current_segment_ = 0;
    int current_verifier_ = -1;
    u32 segment_instrs_ = 0;
    u32 segment_runtime_entries_ = 0;
    u64 segment_start_seq_ = 0;
    u64 committed_watermark_ = 0;  // shared with little cores (one-behind rule)
    std::optional<pending_rcp> pending_;
    cycle_t extract_busy_until_ = 0;
    cycle_t last_push_big_ = 0;   // big cycle of the latest fabric push
    cycle_t low_ticks_done_ = 0;  // number of low cycles already simulated

    u64 little_freq_mhz_ = 2000;  // achievable clock of the little cores
    // Little-core clock, with T(n) = n * little_freq / fabric_freq (floor):
    // little_ticks_done_ = T(low_ticks_done_), little_ticks_next_ =
    // T(low_ticks_done_ + 1) and little_phase_ the remainder of that last
    // division, so a low tick advances the clock without dividing.
    cycle_t little_ticks_done_ = 0;
    cycle_t little_ticks_next_ = 0;
    u64 little_phase_ = 0;

    packet_hook packet_hook_;
    error_hook error_hook_;
    function_ref<void(fwd_packet&)> packet_ref_;
    function_ref<void(const detection_event&)> error_ref_;
    std::vector<detection_event> detections_;
    soc_stats stats_;
    bool halted_seen_ = false;
    bool event_driven_ = true;
};

}  // namespace meek

#include "meek/soc.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace meek {
namespace {

constexpr cycle_t k_drain_tick_bound = 200'000'000;

// Every addressable core index must stay inside the unsigned shift below.
static_assert(k_max_little_cores <= sizeof(unsigned) * 8,
              "dest_mask_t is wider than the 1u << core shift in bit()");
dest_mask_t bit(int core) { return static_cast<dest_mask_t>(1u << core); }

}  // namespace

meek_soc::meek_soc(const soc_config& cfg)
    : cfg_(cfg),
      big_clock_(cfg.big.freq_mhz),
      low_clock_(cfg.fabric.freq_mhz),
      deu_(cfg.little.lsl_entries(), cfg.little.rcp_instruction_timeout,
           cfg.big.commit_width) {
    // Core i is bit i of dest_mask_t, and the controller needs a checker.
    if (cfg.num_little_cores < 1 || cfg.num_little_cores > k_max_little_cores) {
        throw std::invalid_argument("meek_soc: num_little_cores " +
                                    std::to_string(cfg.num_little_cores) + " outside 1.." +
                                    std::to_string(k_max_little_cores));
    }
    big_ = std::make_unique<ooo_core>(cfg.big, memory_);
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        littles_.push_back(std::make_unique<little_core>(cfg.little, i, memory_));
        littles_.back()->set_watermark(&committed_watermark_);
    }
    fabric_ = std::make_unique<fabric_model>(cfg.fabric, cfg.big.commit_width,
                                             cfg.num_little_cores);
    if (const char* mode = std::getenv("MEEK_LOW_ADVANCE")) {
        if (std::string_view(mode) == "exhaustive") event_driven_ = false;
    }
    // Table III clocks the optimized Rockets at 2 GHz (the deeper FPU
    // pipeline and unrolled divider close timing); the fabric stays in the
    // 1.6 GHz domain of Fig. 2. An explicit freq_override_mhz (design-space
    // sweeps) takes precedence over the tuning's achievable clock.
    little_freq_mhz_ = cfg.little.effective_freq_mhz();
    set_low_ticks(0);
}

void meek_soc::load_program(const program& prog) {
    prog_ = &prog;
    big_->load_program(prog);
    for (auto& lc : littles_) lc->set_program(prog);
}

void meek_soc::set_checking(bool enabled) {
    checking_ = enabled;
    deu_.set_enabled(enabled);
}

int meek_soc::find_idle_core() const {
    for (u32 i = 0; i < littles_.size(); ++i) {
        if (littles_[i]->idle()) return static_cast<int>(i);
    }
    return -1;
}

void meek_soc::assign_segment(u32 core, u32 segment, u64 start_seq) {
    littles_[core]->assign_segment({segment, start_seq});
    current_verifier_ = static_cast<int>(core);
    current_segment_ = segment;
    ++stats_.segments_started;
}

void meek_soc::hand_over(cycle_t now_lo) {
    fabric_->deliver_due(now_lo, [this](u32 core, const fwd_packet& p, cycle_t at) {
        // Every arrival waits in the checker's inbox until its first tick at
        // or after the little cycle the packet lands in. An idle checker is
        // idle through the whole span (assignments happen between spans) and
        // its reserve clears the LSL, so it drops the packet as its
        // stale-segment filter would.
        little_core& lc = *littles_[core];
        if (!lc.idle()) lc.deliver_at(p, at * little_freq_mhz_ / cfg_.fabric.freq_mhz);
    });
}

void meek_soc::tick_low_once() {
    hand_over(low_ticks_done_);
    // Little cores run at their achievable clock: e.g. 5 core cycles per 4
    // low-domain cycles at 2 GHz. Every core ticks every little cycle.
    bool reported = false;
    for (cycle_t n = little_ticks_done_; n < little_ticks_next_; ++n) {
        for (auto& lc : littles_) {
            lc->tick(n);
            reported |= lc->has_result();
        }
    }
    ++low_ticks_done_;
    little_ticks_done_ = little_ticks_next_;
    // little_ticks_next_ = T(low_ticks_done_ + 1), one step on from T(lo + 1).
    for (little_phase_ += little_freq_mhz_; little_phase_ >= cfg_.fabric.freq_mhz;
         little_phase_ -= cfg_.fabric.freq_mhz) {
        ++little_ticks_next_;
    }
    if (reported) collect_results();
}

void meek_soc::set_low_ticks(cycle_t lo) {
    const u64 ff = cfg_.fabric.freq_mhz;
    low_ticks_done_ = lo;
    little_ticks_done_ = lo * little_freq_mhz_ / ff;
    little_ticks_next_ = (lo + 1) * little_freq_mhz_ / ff;
    little_phase_ = (lo + 1) * little_freq_mhz_ % ff;
}

cycle_t meek_soc::low_cycle_of(cycle_t little) const {
    // Smallest n with T(n + 1) > little, where T(n) = n * little_freq /
    // fabric_freq (floor).
    return ((little + 1) * cfg_.fabric.freq_mhz + little_freq_mhz_ - 1) / little_freq_mhz_ -
           1;
}

void meek_soc::run_low_until(cycle_t target) {
    if (!event_driven_) {
        while (low_ticks_done_ < target) tick_low_once();
        return;
    }
    // Reservations change only between spans, so every arrival inside the
    // span can be handed over up front; each checker then runs the span in
    // one call.
    hand_over(target - 1);
    const cycle_t from = little_ticks_done_;
    set_low_ticks(target);
    bool reported = false;
    for (auto& lc : littles_) {
        // An idle-parked core holds no result: its report was collected.
        if (lc->park() != little_core::park_state::idle_wait) {
            reported |= lc->run_span(from, little_ticks_done_);
        }
    }
    if (reported) collect_results();
}

cycle_t meek_soc::next_activity_lo() const {
    const cycle_t lo = low_ticks_done_;
    // The fabric's next slot release or landing, k_no_event == k_never when
    // it is empty.
    cycle_t wake = fabric_->next_event_lo();
    if (wake <= lo) return lo;
    for (const auto& lc : littles_) {
        cycle_t w = k_never;  // little cycle at which the core can next change
        switch (lc->park()) {
            case little_core::park_state::runnable:
                return lo;
            case little_core::park_state::busy_wait:
                w = std::min(lc->park_wake(), lc->next_delivery());
                break;
            case little_core::park_state::extern_wait:
                if (lc->extern_wait_over()) return lo;
                w = lc->next_delivery();  // otherwise only a delivery wakes it
                break;
            case little_core::park_state::idle_wait:
                continue;  // only an assignment can wake it
        }
        // Due in this very low cycle once its little-tick batch reaches w.
        if (w < little_ticks_next_) return lo;
        if (w != k_never) wake = std::min(wake, low_cycle_of(w));
    }
    return wake;
}

void meek_soc::step_low_for_wait(cycle_t& guard, const char* what) {
    // Quiescence means the wait condition can never be satisfied: nothing is
    // in flight and every checker needs external input. Detected identically
    // in both advance modes (it is a pure observation of parked state).
    const cycle_t wake = next_activity_lo();
    if (wake == k_never) {
        std::string msg(what);
        msg += ": SoC quiescent with unsatisfied wait (livelock averted);";
        for (u32 i = 0; i < littles_.size(); ++i) {
            const auto& lc = littles_[i];
            msg += " core" + std::to_string(i) + "=" +
                   (lc->idle()         ? "idle"
                    : lc->has_result() ? "report"
                                       : "checking") +
                   "/park" +
                   std::to_string(static_cast<int>(lc->park()));
        }
        throw soc_stall_error(msg);
    }
    // Nothing happens before `wake`: the event-driven span runs through it.
    run_low_until((event_driven_ ? wake : low_ticks_done_) + 1);
    if (++guard > k_drain_tick_bound) {
        throw soc_stall_error(std::string(what) + ": stall budget exhausted");
    }
}

void meek_soc::collect_results() {
    // Reports are collected at the end of their low cycle, cores in index
    // order; a span can hold several, from different low cycles.
    std::array<std::pair<cycle_t, u32>, k_max_little_cores> order;
    std::size_t n = 0;
    for (u32 i = 0; i < littles_.size(); ++i) {
        if (littles_[i]->has_result()) {
            order[n++] = {low_cycle_of(littles_[i]->result_cycle()), i};
        }
    }
    std::sort(order.begin(), order.begin() + n);
    for (std::size_t k = 0; k < n; ++k) {
        const segment_result r = littles_[order[k].second]->collect_result();
        ++stats_.segments_verified;
        if (!r.passed) {
            ++stats_.segments_failed;
            ++stats_.errors_detected;
            detection_event ev;
            ev.kind = r.error.kind;
            ev.segment = r.segment;
            ev.detect_big_cycle = r.error.detect_lo_cycle *
                                  cfg_.big.freq_mhz / little_freq_mhz_;
            detections_.push_back(ev);
            if (error_ref_) error_ref_(ev);
        }
    }
}

cycle_t meek_soc::push_blocking(const fwd_packet& p, u32 path, cycle_t now_big,
                                cycle_t& stall_bucket) {
    advance_low_to(now_big);
    cycle_t guard = 0;
    while (!fabric_->can_accept(p.kind, path)) {
        // Only a transmission frees a DC-Buffer slot, and each one is a
        // fabric event: run straight through the next. With nothing staged
        // the buffer has no capacity at all, which can only end in quiescence.
        const cycle_t f = fabric_->next_event_lo();
        if (f == fabric_model::k_no_event) {
            step_low_for_wait(guard, "fabric push");
        } else {
            run_low_until(std::max(f, low_ticks_done_) + 1);
        }
        const cycle_t nb = low_ticks_done_ * 2;
        if (nb > now_big) {
            stall_bucket += nb - now_big;
            now_big = nb;
        }
    }
    fabric_->push(p, path, now_big);
    last_push_big_ = now_big;
    return now_big;
}

cycle_t meek_soc::send_status(const arch_snapshot& snap, u32 boundary,
                              dest_mask_t dest, cycle_t now_big, u64 seq) {
    const cycle_t start = now_big;
    const u32 ports = cfg_.big.commit_width;
    for (u32 w = 0; w < k_snapshot_words; ++w) {
        fwd_packet p;
        p.kind = packet_kind::status_word;
        p.segment = boundary;
        p.word_index = static_cast<u16>(w);
        p.data = snapshot_word(snap, w);
        p.seq = seq;
        p.dest = dest;
        p.created_big_cycle = now_big;
        if (packet_ref_) packet_ref_(p);
        // PRF read ports deliver `ports` words per cycle.
        now_big = std::max(now_big, start + w / ports);
        now_big = push_blocking(p, w % cfg_.big.commit_width, now_big,
                                stats_.stall_forwarding);
    }
    deu_.note_status_words(k_snapshot_words);
    return now_big;
}

cycle_t meek_soc::fire_rcp(const commit_record& rec, cycle_t now_big, bool final_rcp) {
    const int old_verifier = current_verifier_;
    if (old_verifier < 0) return now_big;

    // End marker for the finishing segment.
    fwd_packet end;
    end.kind = packet_kind::segment_end;
    end.segment = current_segment_;
    end.data = segment_instrs_;
    end.seq = rec.seq;
    end.dest = bit(old_verifier);
    end.created_big_cycle = now_big;
    if (packet_ref_) packet_ref_(end);
    now_big = push_blocking(end, 0, now_big, stats_.stall_forwarding);

    const arch_snapshot snap = arch_snapshot::capture(big_->state());
    const u32 boundary = current_segment_ + 1;
    const u64 start_seq = rec.seq + 1;

    if (final_rcp) {
        // Program finished: the snapshot is only an ERCP for the last segment.
        now_big = send_status(snap, boundary, bit(old_verifier), now_big, rec.seq);
        extract_busy_until_ = now_big + deu_.extraction_cycles();
        return now_big;
    }

    const int next = find_idle_core();
    if (next >= 0) {
        assign_segment(static_cast<u32>(next), boundary, start_seq);
        // Selective broadcast: one multicast stream serves the old verifier's
        // ERCP and the new verifier's SRCP.
        now_big = send_status(snap, boundary,
                              static_cast<dest_mask_t>(bit(old_verifier) | bit(next)),
                              now_big, rec.seq);
    } else {
        // No checker free: the old verifier still gets its ERCP so it can
        // finish; the SRCP copy is sent once a core frees (pending).
        now_big = send_status(snap, boundary, bit(old_verifier), now_big, rec.seq);
        pending_ = pending_rcp{snap, boundary, start_seq};
        current_verifier_ = -1;
        current_segment_ = boundary;
    }
    extract_busy_until_ = now_big + deu_.extraction_cycles();
    segment_instrs_ = 0;
    segment_runtime_entries_ = 0;
    segment_start_seq_ = start_seq;
    return now_big;
}

cycle_t meek_soc::on_commit(const commit_record& rec, cycle_t proposed) {
    cycle_t t = proposed;
    if (!deu_.enabled()) {
        committed_watermark_ = rec.seq + 1;
        return t;
    }
    advance_low_to(t);

    // A pending RCP blocks all commits until a checker frees (the LSL "lock"
    // the paper describes in Sec. IV-C).
    if (pending_) {
        cycle_t guard = 0;
        while (find_idle_core() < 0) {
            step_low_for_wait(guard, "rcp wait");
        }
        const cycle_t nb = low_ticks_done_ * 2;
        if (nb > t) {
            stats_.stall_checker += nb - t;
            t = nb;
        }
        const int core = find_idle_core();
        assign_segment(static_cast<u32>(core), pending_->boundary, pending_->start_seq);
        t = send_status(pending_->snapshot, pending_->boundary, bit(core), t,
                        pending_->start_seq);
        pending_.reset();
    }

    // Snapshot extraction occupies the PRF read ports (data collecting).
    if (extract_busy_until_ > t) {
        stats_.stall_collecting += extract_busy_until_ - t;
        t = extract_busy_until_;
        advance_low_to(t);
    }

    // Run-time data extraction.
    if (auto pkt = deu_.runtime_packet(rec)) {
        pkt->segment = current_segment_;
        pkt->dest = bit(current_verifier_);
        pkt->created_big_cycle = t;
        if (packet_ref_) packet_ref_(*pkt);
        t = push_blocking(*pkt, static_cast<u32>(rec.seq % cfg_.big.commit_width), t,
                          stats_.stall_forwarding);
        ++segment_runtime_entries_;
    }
    ++segment_instrs_;
    committed_watermark_ = rec.seq + 1;

    if (deu_.check_trigger(rec, segment_runtime_entries_, segment_instrs_) !=
        rcp_trigger::none) {
        t = fire_rcp(rec, t, false);
    }
    return t;
}

void meek_soc::on_halt(cycle_t at) {
    (void)at;
    halted_seen_ = true;
}

meek_run_result meek_soc::run(const run_limits& limits) {
    meek_run_result result;
    if (prog_ == nullptr) return result;

    try {
        if (checking_) {
            assign_segment(0, 0, 0);
            send_status(arch_snapshot::capture(big_->state()), 0, bit(0), 0, 0);
        }

        result.big = big_->run(limits, checking_ ? this : nullptr);

        if (checking_) {
            // Push times never decrease (fabric.h). Every other push follows
            // the commit it belongs to, but a run that commits nothing ends
            // at big cycle 0, after its SRCP burst went out: the final RCP
            // waits for that last push.
            cycle_t t = std::max(result.big.cycles, last_push_big_);
            // An unresolved pending RCP here means zero instructions followed
            // the last boundary; there is nothing left to verify for it.
            pending_.reset();
            if (current_verifier_ >= 0) {
                commit_record final_rec;
                final_rec.seq = big_->stats().instructions == 0
                                    ? 0
                                    : big_->stats().instructions - 1;
                final_rec.commit_cycle = t;
                t = fire_rcp(final_rec, t, true);
            }
            // Let the tail checkers run out (the main thread is done, so the
            // one-behind rule no longer binds).
            committed_watermark_ = ~u64{0};
            cycle_t guard = 0;
            auto all_idle = [&] {
                return std::all_of(littles_.begin(), littles_.end(),
                                   [](const auto& lc) { return lc->idle(); });
            };
            while (!fabric_->drained() || !all_idle()) {
                step_low_for_wait(guard, "drain");
            }
            const cycle_t end_big = low_ticks_done_ * 2;
            result.drain_cycles = end_big > t ? end_big - t : 0;
        }
    } catch (const soc_stall_error& e) {
        result.error = e.what();
        result.big.truncated = true;
    }

    result.soc = stats_;
    result.verified_ok = stats_.segments_failed == 0 && result.error.empty();
    return result;
}

}  // namespace meek

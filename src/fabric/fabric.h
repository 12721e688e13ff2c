// Forwarding fabric between the big core's commit stage and the little
// cores' LSLs (Fig. 2 b).
//
// F2 = per-commit-path Dual-Channel Buffers (independent status / run-time
// FIFOs, so run-time data can always be stored in the same cycle as a
// simultaneous status burst) + a Half-duplex Multicast NoC: up to two packet
// transmissions per low-frequency cycle, 1-to-N multicast (one transmission
// reaches both the ERCP consumer of segment k and the SRCP consumer of
// segment k+1), global program-order preservation via an ordering FSM
// (modeled as lowest-order-first arbitration).
//
// The AXI-Interconnect baseline shares the DC-Buffers but drains them over a
// 128-bit shared bus: one packet per cycle, no multicast (each destination
// is a separate transaction), higher per-transfer latency. This reproduces
// the Fig. 9 bottleneck.
//
// Model structure: arbitration happens at push. Lowest-order-first over the
// DC-Buffer heads always grants the oldest staged packet, and push times
// (`now_big`) never decrease (the SoC guarantees it at its fabric boundary;
// push() also clamps a packet's CDC-ready time to its predecessor's), so a
// packet's transmission slots depend only on the packets pushed before it.
// push() therefore books them at once: F2 takes the first low cycle at or
// after the CDC-ready time with one of its `f2_packets_per_cycle` slots free
// (one slot per multicast); AXI takes one slot per destination, plus a
// re-arbitration bubble when the granted channel changes. Each destination's
// arrival cycle is recorded, and the packet holds its DC-Buffer slot until its
// last transmission. tick_low(now) then only frees slots and hands over the
// deliveries due by `now`: the same deliveries, in the same cycles, as
// arbitrating every low cycle (tests/test_fabric.cpp checks it against such
// a reference).
//
// Never-reject contract: a sink must accept every delivery. The LSL cannot
// refuse one, because the DEU fires an RCP as soon as a segment's run-time
// entries fill the target LSL ("LSL full" in check_trigger) and packets of
// any other segment are dropped, not stored. A sink that returns false is a
// contract violation and throws std::logic_error.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/config.h"
#include "common/fifo.h"
#include "common/function_ref.h"
#include "deu/packet.h"

namespace meek {

struct fabric_stats {
    u64 packets_pushed = 0;
    u64 packets_delivered = 0;
    u64 transmissions = 0;        // NoC/bus slot uses
    u64 multicast_merged = 0;     // deliveries saved by 1-to-N multicast
    u64 push_rejects = 0;         // DC-Buffer full at commit -> backpressure
    u64 delivery_retries = 0;     // always 0: sinks never refuse (see above)
    cycle_t busy_lo_cycles = 0;   // low cycles with >= 1 transmission
    std::size_t max_dc_depth = 0;
};

class fabric_model {
public:
    using deliver_fn = std::function<bool(u32 core, const fwd_packet&)>;
    using deliver_ref = function_ref<bool(u32, const fwd_packet&)>;

    fabric_model(const fabric_config& cfg, u32 commit_paths, u32 num_little_cores);

    // Owning sink for arbitrary callables (tests, instrumentation).
    void set_deliver(deliver_fn fn) {
        deliver_store_ = std::move(fn);
        if (deliver_store_) {
            deliver_ = deliver_ref(deliver_store_);
        } else {
            deliver_.reset();
        }
    }

    // Non-owning sink: a raw context + function-pointer pair.
    void set_deliver_ref(deliver_ref ref) {
        deliver_store_ = nullptr;
        deliver_ = ref;
    }

    // Commit-side port (big-core clock domain). `path` selects the
    // DC-Buffer; returns false when the relevant channel FIFO is full.
    bool can_accept(packet_kind kind, u32 path) const {
        return channel_count_[channel(kind, path)] < cfg_.dc_buffer_depth;
    }
    bool push(const fwd_packet& p, u32 path, cycle_t now_big);

    // Completes low-frequency cycle `now_lo`: frees the DC-Buffer slots of
    // packets whose last transmission was at or before it and hands the
    // attached sink every delivery due by then. A cycle before the next
    // event is a no-op.
    void tick_low(cycle_t now_lo) {
        deliver_due(now_lo, [this](u32 core, const fwd_packet& p, cycle_t) {
            if (deliver_ && !deliver_(core, p)) {
                throw std::logic_error("fabric: a sink refused a delivery");
            }
        });
    }

    // tick_low with the sink inline and each delivery's arrival cycle:
    // sink(core, packet, arrival_lo), per core in arrival order.
    template <typename Sink>
    void deliver_due(cycle_t now_lo, Sink&& sink);

    bool drained() const { return ring_.empty(); }
    const fabric_stats& stats() const { return stats_; }
    const fabric_config& config() const { return cfg_; }

    // Earliest low cycle at which tick_low does observable work (a slot
    // frees or a delivery lands); k_no_event when the fabric is empty.
    static constexpr cycle_t k_no_event = ~cycle_t{0};
    cycle_t next_event_lo() const { return next_event_; }

private:
    // One per transmission booked at push, in push order: F2 books one per
    // packet, AXI one per destination. It frees its DC-Buffer slot after
    // `tx_lo` if it is the packet's last transmission, and leaves the ring
    // once every destination it reaches has been handed its copy.
    struct booking {
        fwd_packet packet;
        cycle_t tx_lo = 0;
        u32 channel = 0;
        dest_mask_t pending = 0;  // destinations not yet handed over
        bool frees_slot = false;
    };

    // DC-Buffer channel of a packet: two per commit path (status, run-time).
    u32 channel(packet_kind kind, u32 path) const {
        const bool status =
            kind == packet_kind::status_word || kind == packet_kind::segment_end;
        return 2 * (path % paths_) + (status ? 0 : 1);
    }
    // Per-core NoC hop latency: Manhattan distance in the grid placement,
    // big core at (0,0) and little core i at (1 + i/2, i%2). The AXI
    // interconnect pipeline + address/data phases take 4 for every core.
    cycle_t hop_latency(u32 core) const {
        return cfg_.kind == fabric_kind::axi_interconnect ? 4 : 2 + core / 2 + core % 2;
    }
    void book(const fwd_packet& p, cycle_t tx, u32 ch, dest_mask_t dest, bool frees_slot);

    fabric_config cfg_;
    u32 num_cores_;
    u32 paths_;
    std::vector<u32> channel_count_;  // occupancy per DC-Buffer channel
    bounded_fifo<booking> ring_;      // every booking not yet handed over
    std::size_t retired_ = 0;         // ring_ prefix whose slot is freed
    deliver_ref deliver_;             // sink behind tick_low
    deliver_fn deliver_store_;        // owning holder behind set_deliver()
    fabric_stats stats_;
    cycle_t last_ready_lo_ = 0;       // ready time of the newest packet
    cycle_t first_open_lo_ = 0;       // first low cycle not yet completed
    cycle_t next_event_ = k_no_event;

    // Slot booking: F2 counts the slots taken in the latest booked cycle; AXI
    // books the cycle after it. Switching the granted AXI master/channel
    // between transactions costs a handshake cycle (AR/AW re-arbitration).
    cycle_t slot_lo_ = k_no_event;
    u32 slots_used_ = 0;
    u32 axi_last_channel_ = ~u32{0};
    bool axi_rearb_ = false;
    bool axi_rearb_was_ = false;
};

template <typename Sink>
void fabric_model::deliver_due(cycle_t now_lo, Sink&& sink) {
    first_open_lo_ = now_lo + 1;
    if (now_lo < next_event_) return;
    for (; retired_ < ring_.size() && ring_.at(retired_).tx_lo <= now_lo; ++retired_) {
        if (ring_.at(retired_).frees_slot) --channel_count_[ring_.at(retired_).channel];
    }
    cycle_t next = retired_ < ring_.size() ? ring_.at(retired_).tx_lo : k_no_event;
    // Push order keeps each destination's deliveries in arrival order. The
    // scan ends where no booking can be due or land before `next` any more.
    const cycle_t min_hop = hop_latency(0);
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        booking& b = ring_.at(i);
        if (b.tx_lo + min_hop > now_lo && b.tx_lo + min_hop >= next) break;
        for (u32 left = b.pending; left != 0; left &= left - 1) {
            const u32 core = static_cast<u32>(std::countr_zero(left));
            const cycle_t at = b.tx_lo + hop_latency(core);
            if (at > now_lo) {
                next = std::min(next, at);
                continue;
            }
            sink(core, b.packet, at);
            ++stats_.packets_delivered;
            b.pending &= static_cast<dest_mask_t>(~(1u << core));
        }
    }
    for (; retired_ > 0 && ring_.front().pending == 0; --retired_) ring_.pop();
    next_event_ = next;
}

}  // namespace meek

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
// Model structure: every staged packet sits in one global order ring, in
// push order; each DC-Buffer channel (path x status/run-time) keeps only its
// occupancy, which is what can_accept() and the depth statistics see.
// Lowest-order-first arbitration over the channel heads always grants the
// ring's front, because of the push-time invariant:
//
//   Push times (`now_big`) never decrease. The SoC guarantees it at its
//   fabric boundary; push() also clamps a packet's CDC-ready time to its
//   predecessor's, so ready times are nondecreasing along the ring and the
//   front is the earliest-ready packet. If the front is not ready, nothing is.
//
// The earliest low cycle with work due (the ring front's ready time, or the
// earliest landing-queue arrival) is cached, so idle ticks and
// next_event_lo() are O(1).
#pragma once

#include <functional>
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
    u64 delivery_retries = 0;     // LSL rejected a delivery (retried)
    cycle_t busy_lo_cycles = 0;   // low cycles with >= 1 transmission
    std::size_t max_dc_depth = 0;
};

class fabric_model {
public:
    using deliver_fn = std::function<bool(u32 core, const fwd_packet&)>;
    using deliver_ref = function_ref<bool(u32, const fwd_packet&)>;

    fabric_model(const fabric_config& cfg, u32 commit_paths, u32 num_little_cores);

    // Owning sink for arbitrary callables (tests, instrumentation). The
    // delivery hot path always dispatches through a function_ref, so this
    // costs one extra indirection only when actually attached.
    void set_deliver(deliver_fn fn) {
        deliver_store_ = std::move(fn);
        if (deliver_store_) {
            deliver_ = deliver_ref(deliver_store_);
        } else {
            deliver_.reset();
        }
    }

    // Non-owning sink for the SoC's per-packet hot path: a raw context +
    // function-pointer pair, no type erasure layers.
    void set_deliver_ref(deliver_ref ref) {
        deliver_store_ = nullptr;
        deliver_ = ref;
    }

    // Commit-side port (big-core clock domain). `path` selects the
    // DC-Buffer; returns false when the relevant channel FIFO is full.
    bool can_accept(packet_kind kind, u32 path) const;
    bool push(fwd_packet p, u32 path, cycle_t now_big);

    // Advance one low-frequency-domain cycle: arbitrate transmissions out of
    // the DC-Buffers and complete in-flight deliveries. A cycle before the
    // next event is a no-op.
    void tick_low(cycle_t now_lo) {
        if (now_lo >= next_event_) tick_due(now_lo);
    }

    bool drained() const { return order_ring_.empty() && inflight_count_ == 0; }
    const fabric_stats& stats() const { return stats_; }
    const fabric_config& config() const { return cfg_; }

    // Earliest low cycle at which tick_low would do observable work: the
    // minimum over staged packets' CDC-ready times and in-flight deliveries'
    // arrival times. Returns k_no_event when the fabric is empty. A result
    // <= "now" means work (possibly a blocked-but-retrying delivery) is due
    // this very cycle; the event-driven SoC advance must not skip past it.
    static constexpr cycle_t k_no_event = ~cycle_t{0};
    cycle_t next_event_lo() const { return next_event_; }

private:
    struct staged_packet {
        fwd_packet packet;
        cycle_t ready_lo = 0;       // after clock-domain crossing
        dest_mask_t remaining = 0;  // destinations not yet transmitted (AXI)
        u32 channel = 0;            // DC-Buffer channel it occupies
    };

    struct in_flight {
        fwd_packet packet;
        cycle_t deliver_at_lo = 0;
    };

    // DC-Buffer channel of a packet: two per commit path (status, run-time).
    u32 channel(packet_kind kind, u32 path) const;
    // Per-core NoC hop latency: Manhattan distance in the grid placement.
    cycle_t hop_latency(u32 core) const;
    void tick_due(cycle_t now_lo);
    void pop_staged();
    void refresh_next_event();

    fabric_config cfg_;
    u32 num_cores_;
    u32 paths_;
    bounded_fifo<staged_packet> order_ring_;    // every staged packet, push order
    std::vector<u32> channel_count_;            // occupancy per DC-Buffer channel
    std::vector<bounded_fifo<in_flight>> dest_queues_;  // per little core
    deliver_ref deliver_;        // hot-path dispatch
    deliver_fn deliver_store_;   // owning holder behind set_deliver()
    fabric_stats stats_;
    std::size_t inflight_count_ = 0;  // packets in per-core landing queues
    cycle_t last_ready_lo_ = 0;       // ready time of the newest staged packet
    cycle_t next_event_ = k_no_event;

    // AXI arbitration: switching the granted master/channel between
    // transactions costs a handshake cycle (AR/AW re-arbitration).
    u32 axi_last_channel_ = ~u32{0};
    bool axi_rearb_ = false;
    bool axi_rearb_was_ = false;
};

}  // namespace meek

#include "fabric/fabric.h"

#include <algorithm>

namespace meek {
namespace {

bool is_status(packet_kind k) {
    return k == packet_kind::status_word || k == packet_kind::segment_end;
}

}  // namespace

fabric_model::fabric_model(const fabric_config& cfg, u32 commit_paths,
                           u32 num_little_cores)
    : cfg_(cfg),
      num_cores_(num_little_cores),
      paths_(commit_paths),
      order_ring_(std::size_t{2} * commit_paths * cfg.dc_buffer_depth),
      channel_count_(std::size_t{2} * commit_paths, 0) {
    // Generous per-destination landing queues: the LSL applies the real
    // backpressure; this queue models link pipelining.
    dest_queues_.assign(num_little_cores, bounded_fifo<in_flight>(64));
}

u32 fabric_model::channel(packet_kind kind, u32 path) const {
    return 2 * (path % paths_) + (is_status(kind) ? 0 : 1);
}

cycle_t fabric_model::hop_latency(u32 core) const {
    if (cfg_.kind == fabric_kind::axi_interconnect) {
        return 4;  // interconnect pipeline + address/data phases
    }
    // Manhattan grid: big core at (0,0), little core i at (1 + i/2, i%2).
    const cycle_t dist = 1 + core / 2 + core % 2;
    return 1 + dist;
}

bool fabric_model::can_accept(packet_kind kind, u32 path) const {
    return channel_count_[channel(kind, path)] < cfg_.dc_buffer_depth;
}

bool fabric_model::push(fwd_packet p, u32 path, cycle_t now_big) {
    const u32 ch = channel(p.kind, path);
    if (channel_count_[ch] >= cfg_.dc_buffer_depth) {
        ++stats_.push_rejects;
        return false;
    }
    staged_packet staged;
    staged.packet = p;
    // Clock-domain crossing: available to the low domain two low cycles after
    // the big-cycle it was produced in, and never before the packet ahead of
    // it (see the push-time invariant in fabric.h).
    staged.ready_lo = std::max(now_big / 2 + 2, last_ready_lo_);
    staged.remaining = p.dest;
    staged.channel = ch;
    last_ready_lo_ = staged.ready_lo;
    if (order_ring_.empty()) next_event_ = std::min(next_event_, staged.ready_lo);
    order_ring_.push(staged);
    ++stats_.packets_pushed;
    stats_.max_dc_depth = std::max<std::size_t>(stats_.max_dc_depth, ++channel_count_[ch]);
    return true;
}

void fabric_model::pop_staged() {
    --channel_count_[order_ring_.front().channel];
    order_ring_.pop();
}

void fabric_model::refresh_next_event() {
    cycle_t next = order_ring_.empty() ? k_no_event : order_ring_.front().ready_lo;
    if (inflight_count_ != 0) {
        for (const auto& q : dest_queues_) {
            if (!q.empty()) next = std::min(next, q.front().deliver_at_lo);
        }
    }
    next_event_ = next;
}

void fabric_model::tick_due(cycle_t now_lo) {
    // 1) Complete in-flight deliveries (per-destination, in order).
    if (inflight_count_ != 0) {
        for (u32 core = 0; core < num_cores_; ++core) {
            auto& q = dest_queues_[core];
            while (!q.empty() && q.front().deliver_at_lo <= now_lo) {
                if (deliver_ && !deliver_(core, q.front().packet)) {
                    ++stats_.delivery_retries;
                    break;  // LSL full: head blocks, order preserved
                }
                ++stats_.packets_delivered;
                q.pop();
                --inflight_count_;
            }
        }
    }

    // 2) Arbitrate transmissions out of the DC-Buffers in global order.
    const u32 slots = cfg_.kind == fabric_kind::f2 ? cfg_.f2_packets_per_cycle : 1;
    bool any = false;
    for (u32 s = 0; s < slots; ++s) {
        if (order_ring_.empty() || order_ring_.front().ready_lo > now_lo) break;
        staged_packet& head = order_ring_.front();

        if (cfg_.kind == fabric_kind::f2) {
            // 1-to-N multicast: one transmission reaches every destination.
            u32 fanout = 0;
            for (u32 core = 0; core < num_cores_; ++core) {
                if ((head.remaining >> core) & 1) {
                    if (dest_queues_[core].full()) break;  // backpressure
                    ++fanout;
                }
            }
            u32 delivered = 0;
            for (u32 core = 0; core < num_cores_ && delivered < fanout; ++core) {
                if ((head.remaining >> core) & 1) {
                    dest_queues_[core].push({head.packet, now_lo + hop_latency(core)});
                    ++inflight_count_;
                    head.remaining &= static_cast<dest_mask_t>(~(1u << core));
                    ++delivered;
                }
            }
            if (delivered > 1) stats_.multicast_merged += delivered - 1;
            if (head.remaining == 0 && delivered > 0) pop_staged();
            if (delivered == 0) break;  // all destinations blocked
        } else {
            // AXI: one destination per bus transaction, plus a re-arbitration
            // cycle whenever the granted source channel changes.
            if (axi_rearb_) {
                axi_rearb_ = false;
                break;
            }
            u32 core = 0;
            while (core < num_cores_ && !((head.remaining >> core) & 1)) ++core;
            if (core >= num_cores_ || dest_queues_[core].full()) break;
            dest_queues_[core].push({head.packet, now_lo + hop_latency(core)});
            ++inflight_count_;
            head.remaining &= static_cast<dest_mask_t>(~(1u << core));
            const u32 granted = head.channel;
            if (head.remaining == 0) pop_staged();
            // Alternate grants amortize the handshake over short bursts.
            if (granted != axi_last_channel_) axi_rearb_ = !axi_rearb_was_;
            axi_rearb_was_ = axi_rearb_;
            axi_last_channel_ = granted;
        }
        ++stats_.transmissions;
        any = true;
    }
    if (any) ++stats_.busy_lo_cycles;
    refresh_next_event();
}

}  // namespace meek

#include "fabric/fabric.h"

#include "common/bits.h"

namespace meek {

fabric_model::fabric_model(const fabric_config& cfg, u32 commit_paths,
                           u32 num_little_cores)
    : cfg_(cfg),
      num_cores_(num_little_cores),
      paths_(commit_paths),
      channel_count_(std::size_t{2} * commit_paths, 0),
      ring_([&] {
          // Every staged packet's bookings (AXI: one per destination), plus
          // those that left the DC-Buffers while still on the wire: at most
          // the transmissions of one hop's worth of cycles.
          const std::size_t staged = std::size_t{2} * commit_paths * cfg.dc_buffer_depth;
          const cycle_t max_hop = hop_latency(num_little_cores - 1);
          return cfg.kind == fabric_kind::f2
                     ? staged + std::size_t{cfg.f2_packets_per_cycle} * (max_hop + 1)
                     : staged * num_little_cores + max_hop + 1;
      }()) {}

void fabric_model::book(const fwd_packet& p, cycle_t tx, u32 ch, dest_mask_t dest,
                        bool frees_slot) {
    ring_.push({p, tx, ch, dest, frees_slot});
    next_event_ = std::min(next_event_, tx);
    ++stats_.transmissions;
}

bool fabric_model::push(const fwd_packet& p, u32 path, cycle_t now_big) {
    const u32 ch = channel(p.kind, path);
    if (channel_count_[ch] >= cfg_.dc_buffer_depth) {
        ++stats_.push_rejects;
        return false;
    }
    // Clock-domain crossing: available to the low domain two low cycles after
    // the big-cycle it was produced in, and never before the packet ahead of
    // it (see fabric.h), nor in a low cycle already completed.
    last_ready_lo_ = std::max(now_big / 2 + 2, last_ready_lo_);
    cycle_t tx = std::max(last_ready_lo_, first_open_lo_);
    const u32 dest = p.dest & mask64(num_cores_);
    if (cfg_.kind == fabric_kind::f2) {
        // 1-to-N multicast: one slot reaches every destination.
        if (slot_lo_ != k_no_event && tx <= slot_lo_) {
            tx = slots_used_ < cfg_.f2_packets_per_cycle ? slot_lo_ : slot_lo_ + 1;
        }
        if (tx != slot_lo_) {
            slot_lo_ = tx;
            slots_used_ = 0;
            ++stats_.busy_lo_cycles;
        }
        ++slots_used_;
        book(p, tx, ch, static_cast<dest_mask_t>(dest), true);
        if (const int fanout = std::popcount(dest); fanout > 1) {
            stats_.multicast_merged += static_cast<u64>(fanout - 1);
        }
    } else {
        // AXI: one destination per bus transaction, each in its own cycle.
        for (u32 left = dest; left != 0; left &= left - 1) {
            if (slot_lo_ != k_no_event) tx = std::max(tx, slot_lo_ + 1);
            if (axi_rearb_) {
                axi_rearb_ = false;  // the bubble takes this cycle
                ++tx;
            }
            const u32 core = static_cast<u32>(std::countr_zero(left));
            book(p, tx, ch, static_cast<dest_mask_t>(1u << core), (left & (left - 1)) == 0);
            slot_lo_ = tx;
            ++stats_.busy_lo_cycles;
            // Alternate grants amortize the handshake over short bursts.
            if (ch != axi_last_channel_) axi_rearb_ = !axi_rearb_was_;
            axi_rearb_was_ = axi_rearb_;
            axi_last_channel_ = ch;
        }
    }
    ++stats_.packets_pushed;
    stats_.max_dc_depth = std::max<std::size_t>(stats_.max_dc_depth, ++channel_count_[ch]);
    return true;
}

}  // namespace meek

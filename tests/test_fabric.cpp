// Forwarding-fabric tests: DC-Buffer backpressure, global ordering, F2
// multicast vs AXI unicast, throughput differences, drain semantics and the
// never-reject contract, and the push-time slot booking against a per-cycle,
// per-channel brute-force arbitration reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.h"

#include "fabric/fabric.h"

namespace meek {
namespace {

struct fabric_fixture {
    fabric_config cfg;
    std::unique_ptr<fabric_model> fabric;
    std::map<u32, std::vector<fwd_packet>> delivered;
    std::map<u32, std::vector<cycle_t>> delivered_at;  // low cycle of each
    bool reject_deliveries = false;
    cycle_t now = 0;

    void init(fabric_kind kind, u32 cores = 4) {
        cfg.kind = kind;
        fabric = std::make_unique<fabric_model>(cfg, 4, cores);
        fabric->set_deliver([this](u32 core, const fwd_packet& p) {
            if (reject_deliveries) return false;
            delivered[core].push_back(p);
            delivered_at[core].push_back(now);
            return true;
        });
    }

    void run_low(cycle_t from, cycle_t ticks) {
        for (now = from; now < from + ticks; ++now) fabric->tick_low(now);
    }
};

fwd_packet runtime_pkt(u64 seq, dest_mask_t dest) {
    fwd_packet p;
    p.kind = packet_kind::runtime_load;
    p.seq = seq;
    p.addr = 0x1000 + seq * 8;
    p.data = seq;
    p.dest = dest;
    return p;
}

fwd_packet status_pkt(u16 word, dest_mask_t dest) {
    fwd_packet p;
    p.kind = packet_kind::status_word;
    p.word_index = word;
    p.dest = dest;
    return p;
}

TEST(fabric, delivers_in_push_order_per_destination) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Interleave pushes across all 4 commit paths.
    for (u64 i = 0; i < 32; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), i));
    }
    f.run_low(0, 100);
    ASSERT_EQ(f.delivered[0].size(), 32u);
    for (u64 i = 0; i < 32; ++i) {
        EXPECT_EQ(f.delivered[0][i].seq, i) << "ordering FSM violated";
    }
    EXPECT_TRUE(f.fabric->drained());
}

TEST(fabric, status_and_runtime_channels_are_independent) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Fill the runtime FIFO of path 0 to capacity.
    for (u32 i = 0; i < f.cfg.dc_buffer_depth; ++i) {
        ASSERT_TRUE(f.fabric->can_accept(packet_kind::runtime_load, 0));
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), 0, 0));
    }
    EXPECT_FALSE(f.fabric->can_accept(packet_kind::runtime_load, 0));
    // Status data can still be stored in the same cycle (dual channels).
    EXPECT_TRUE(f.fabric->can_accept(packet_kind::status_word, 0));
    EXPECT_TRUE(f.fabric->push(status_pkt(0, 1), 0, 0));
}

TEST(fabric, push_reject_counts_backpressure) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u32 i = 0; i < f.cfg.dc_buffer_depth; ++i) {
        f.fabric->push(runtime_pkt(i, 1), 0, 0);
    }
    EXPECT_FALSE(f.fabric->push(runtime_pkt(99, 1), 0, 0));
    EXPECT_EQ(f.fabric->stats().push_rejects, 1u);
}

TEST(fabric, f2_multicast_is_single_transmission) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // One status word to cores 1 and 3 (ERCP + SRCP consumers).
    ASSERT_TRUE(f.fabric->push(status_pkt(0, 0b1010), 0, 0));
    f.run_low(0, 50);
    EXPECT_EQ(f.delivered[1].size(), 1u);
    EXPECT_EQ(f.delivered[3].size(), 1u);
    EXPECT_EQ(f.fabric->stats().transmissions, 1u);
    EXPECT_EQ(f.fabric->stats().multicast_merged, 1u);
}

TEST(fabric, axi_multicast_needs_one_transaction_per_destination) {
    fabric_fixture f;
    f.init(fabric_kind::axi_interconnect);
    ASSERT_TRUE(f.fabric->push(status_pkt(0, 0b1010), 0, 0));
    f.run_low(0, 50);
    EXPECT_EQ(f.delivered[1].size(), 1u);
    EXPECT_EQ(f.delivered[3].size(), 1u);
    EXPECT_EQ(f.fabric->stats().transmissions, 2u);
    EXPECT_EQ(f.fabric->stats().multicast_merged, 0u);
}

TEST(fabric, f2_moves_two_packets_per_low_cycle) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u64 i = 0; i < 12; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), 0));
    }
    // Packets become visible after the 2-cycle CDC; then 2 transmissions per
    // low cycle drain 12 packets in 6 cycles (2..7), landing at core 0 two
    // cycles later.
    f.run_low(0, 20);
    ASSERT_EQ(f.delivered_at[0].size(), 12u);
    for (u64 i = 0; i < 12; ++i) EXPECT_EQ(f.delivered_at[0][i], 4 + i / 2) << i;
    EXPECT_EQ(f.fabric->stats().transmissions, 12u);
    EXPECT_EQ(f.fabric->stats().busy_lo_cycles, 6u);
}

TEST(fabric, axi_is_limited_to_one_packet_per_low_cycle_at_best) {
    fabric_fixture f;
    f.init(fabric_kind::axi_interconnect);
    for (u64 i = 0; i < 12; ++i) {
        ASSERT_TRUE(f.fabric->push(runtime_pkt(i, 1), static_cast<u32>(i % 4), 0));
    }
    f.run_low(0, 60);
    ASSERT_EQ(f.delivered_at[0].size(), 12u);
    for (u64 i = 1; i < 12; ++i) {
        EXPECT_GT(f.delivered_at[0][i], f.delivered_at[0][i - 1]) << "one bus transaction per cycle";
    }
    EXPECT_GE(f.fabric->stats().busy_lo_cycles, 12u);
}

TEST(fabric, clock_domain_crossing_delays_availability) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // Pushed at big-cycle 100 -> ready in the low domain at 100/2 + 2 = 52.
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 1), 0, 100));
    f.run_low(0, 52);
    EXPECT_TRUE(f.delivered[0].empty());
    f.run_low(52, 10);
    EXPECT_EQ(f.delivered[0].size(), 1u);
}

TEST(fabric, a_refused_delivery_is_a_contract_violation) {
    // The LSL never refuses a delivery (fabric.h); a sink that does is a bug
    // the fabric reports instead of retrying.
    fabric_fixture f;
    f.init(fabric_kind::f2);
    f.reject_deliveries = true;
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 1), 0, 0));
    EXPECT_THROW(f.run_low(0, 30), std::logic_error);
    EXPECT_EQ(f.fabric->stats().delivery_retries, 0u);
}

TEST(fabric, each_multicast_destination_lands_after_its_own_hop) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    // One transmission at low cycle 2 (the CDC), to the nearest core (0:
    // hop 2) and the farthest (3: hop 4).
    ASSERT_TRUE(f.fabric->push(status_pkt(0, 0b1001), 0, 0));
    f.run_low(0, 30);
    ASSERT_EQ(f.delivered_at[0].size(), 1u);
    ASSERT_EQ(f.delivered_at[3].size(), 1u);
    EXPECT_EQ(f.delivered_at[0][0], 4u);
    EXPECT_EQ(f.delivered_at[3][0], 6u);
    EXPECT_TRUE(f.fabric->drained());
}

TEST(fabric, max_dc_depth_tracks_occupancy) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    for (u32 i = 0; i < 10; ++i) f.fabric->push(runtime_pkt(i, 1), 0, 0);
    EXPECT_GE(f.fabric->stats().max_dc_depth, 10u);
}

// Brute-force reference for arbitration: one deque per DC-Buffer channel and,
// every low cycle, transmission slots granted by a scan of all channel heads
// for the lowest push order among the ready ones. Same delivery, multicast,
// AXI re-arbitration and statistics rules as fabric_model, which books the
// same slots at push instead.
class reference_fabric {
public:
    using deliver_fn = std::function<void(u32, const fwd_packet&)>;

    reference_fabric(const fabric_config& cfg, u32 paths, u32 cores, deliver_fn deliver)
        : cfg_(cfg), channels_(2 * paths), dest_(cores), deliver_(std::move(deliver)) {}

    bool can_accept(packet_kind kind, u32 path) const {
        return channels_[channel(kind, path)].size() < cfg_.dc_buffer_depth;
    }

    bool push(const fwd_packet& p, u32 path, cycle_t now_big) {
        auto& q = channels_[channel(p.kind, path)];
        if (q.size() >= cfg_.dc_buffer_depth) {
            ++stats.push_rejects;
            return false;
        }
        q.push_back({p, order_++, now_big / 2 + 2, p.dest});
        ++stats.packets_pushed;
        stats.max_dc_depth = std::max(stats.max_dc_depth, q.size());
        return true;
    }

    void tick_low(cycle_t now) {
        for (u32 core = 0; core < dest_.size(); ++core) {
            auto& q = dest_[core];
            while (!q.empty() && q.front().second <= now) {
                deliver_(core, q.front().first);
                ++stats.packets_delivered;
                q.pop_front();
            }
        }
        const u32 slots = cfg_.kind == fabric_kind::f2 ? cfg_.f2_packets_per_cycle : 1;
        bool any = false;
        for (u32 s = 0; s < slots; ++s) {
            std::deque<staged>* best = nullptr;
            for (auto& q : channels_) {
                if (!q.empty() && q.front().ready <= now &&
                    (best == nullptr || q.front().order < best->front().order)) {
                    best = &q;
                }
            }
            if (best == nullptr) break;
            staged& head = best->front();
            const u32 ch = static_cast<u32>(best - channels_.data());
            if (cfg_.kind == fabric_kind::f2) {
                u32 sent = 0;
                for (u32 c = 0; c < dest_.size(); ++c) {
                    if ((head.remaining >> c) & 1) {
                        dest_[c].push_back({head.packet, now + hop(c)});
                        ++sent;
                    }
                }
                if (sent > 1) stats.multicast_merged += sent - 1;
                best->pop_front();
            } else {
                if (rearb_) {
                    rearb_ = false;
                    break;
                }
                u32 c = 0;
                while (!((head.remaining >> c) & 1)) ++c;
                dest_[c].push_back({head.packet, now + hop(c)});
                head.remaining &= static_cast<dest_mask_t>(~(1u << c));
                if (head.remaining == 0) best->pop_front();
                if (ch != last_channel_) rearb_ = !rearb_was_;
                rearb_was_ = rearb_;
                last_channel_ = ch;
            }
            ++stats.transmissions;
            any = true;
        }
        if (any) ++stats.busy_lo_cycles;
    }

    fabric_stats stats;

private:
    struct staged {
        fwd_packet packet;
        u64 order;
        cycle_t ready;
        dest_mask_t remaining;
    };
    static u32 channel(packet_kind kind, u32 path) {
        const bool status =
            kind == packet_kind::status_word || kind == packet_kind::segment_end;
        return 2 * path + (status ? 0 : 1);
    }
    cycle_t hop(u32 core) const {
        return cfg_.kind == fabric_kind::axi_interconnect ? 4 : 2 + core / 2 + core % 2;
    }

    fabric_config cfg_;
    std::vector<std::deque<staged>> channels_;
    std::vector<std::deque<std::pair<fwd_packet, cycle_t>>> dest_;
    deliver_fn deliver_;
    u64 order_ = 0;
    u32 last_channel_ = ~0u;
    bool rearb_ = false;
    bool rearb_was_ = false;
};

// Drives fabric_model and the reference with one random packet stream
// (nondecreasing push times, random channel, kind and multicast set) that
// backs up into the DC-Buffers, then drains. Every delivery (core, packet,
// low cycle) and every can_accept answer must agree, and so must the
// counters once both are drained.
void expect_matches_reference(fabric_kind kind, u32 depth, u32 slots, u64 seed) {
    constexpr u32 k_paths = 4;
    constexpr u32 k_cores = 4;
    fabric_config cfg;
    cfg.kind = kind;
    cfg.dc_buffer_depth = depth;
    cfg.f2_packets_per_cycle = slots;
    using delivery = std::tuple<cycle_t, u32, u64>;
    std::vector<delivery> got, want;
    cycle_t now = 0;

    fabric_model model(cfg, k_paths, k_cores);
    model.set_deliver([&](u32 core, const fwd_packet& p) {
        got.emplace_back(now, core, p.seq);
        return true;
    });
    reference_fabric ref(cfg, k_paths, k_cores, [&](u32 core, const fwd_packet& p) {
        want.emplace_back(now, core, p.seq);
    });

    rng r(seed);
    u64 seq = 0;
    u64 refused = 0;
    cycle_t big = 0;
    for (now = 0; now < 4000; ++now) {
        big = std::max(big, 2 * now);
        // Bursts outrun the slots on average in the first half, then ease.
        const u64 burst = now < 1500 ? r.next() % (2 * slots + 3) : now < 3000 ? r.next() % 3 : 0;
        for (u64 k = 0; k < burst; ++k) {
            fwd_packet p = runtime_pkt(seq, 0);
            const u64 kind_pick = r.next() % 3;
            p.kind = kind_pick == 0   ? packet_kind::status_word
                     : kind_pick == 1 ? packet_kind::runtime_store
                                      : packet_kind::runtime_load;
            p.dest = static_cast<dest_mask_t>(1 + r.next() % ((1u << k_cores) - 1));
            const u32 path = static_cast<u32>(r.next() % k_paths);
            big += r.next() % 2;
            ASSERT_EQ(model.can_accept(p.kind, path), ref.can_accept(p.kind, path));
            if (!model.can_accept(p.kind, path)) {
                ++refused;
                continue;
            }
            ASSERT_TRUE(model.push(p, path, big));
            ASSERT_TRUE(ref.push(p, path, big));
            ++seq;
        }
        model.tick_low(now);
        ref.tick_low(now);
        // Each destination's stream in order; across destinations the
        // model hands over in push order, the reference core by core.
        std::stable_sort(got.begin(), got.end(), [](const delivery& a, const delivery& b) {
            return std::get<1>(a) < std::get<1>(b);
        });
        ASSERT_EQ(got, want) << "low cycle " << now;
        got.clear();
        want.clear();
    }
    EXPECT_TRUE(model.drained());
    EXPECT_GT(refused, 0u) << "the stream must back up into the DC-Buffers";
    const fabric_stats& a = model.stats();
    const fabric_stats& b = ref.stats;
    EXPECT_EQ(a.packets_pushed, b.packets_pushed);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.transmissions, b.transmissions);
    EXPECT_EQ(a.multicast_merged, b.multicast_merged);
    EXPECT_EQ(a.delivery_retries, 0u);
    EXPECT_EQ(a.busy_lo_cycles, b.busy_lo_cycles);
    EXPECT_EQ(a.max_dc_depth, b.max_dc_depth);
}

TEST(fabric_reference, f2_push_time_booking_matches_per_cycle_arbitration) {
    for (const u32 depth : {4u, 16u}) {
        for (const u32 slots : {1u, 2u, 3u}) {
            for (const u64 seed : {1, 2, 3}) {
                SCOPED_TRACE(testing::Message() << "depth " << depth << " slots " << slots
                                                << " seed " << seed);
                expect_matches_reference(fabric_kind::f2, depth, slots, seed);
            }
        }
    }
}

TEST(fabric_reference, axi_push_time_booking_matches_per_cycle_rearbitration) {
    for (const u32 depth : {4u, 16u}) {
        for (const u64 seed : {1, 2, 3}) {
            SCOPED_TRACE(testing::Message() << "depth " << depth << " seed " << seed);
            expect_matches_reference(fabric_kind::axi_interconnect, depth, 1, seed);
        }
    }
}

TEST(fabric, next_event_is_the_earliest_due_work) {
    fabric_fixture f;
    f.init(fabric_kind::f2);
    EXPECT_EQ(f.fabric->next_event_lo(), fabric_model::k_no_event);
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 0b10), 0, 100));  // ready at 52
    EXPECT_EQ(f.fabric->next_event_lo(), 52u);
    ASSERT_TRUE(f.fabric->push(runtime_pkt(1, 0b01), 1, 120));  // behind it
    EXPECT_EQ(f.fabric->next_event_lo(), 52u);
    f.run_low(0, 53);  // packet 0 leaves at 52 for core 1 (hop 3)
    EXPECT_EQ(f.fabric->next_event_lo(), 55u);
    f.run_low(53, 20);
    EXPECT_EQ(f.fabric->next_event_lo(), fabric_model::k_no_event);
    EXPECT_EQ(f.delivered[1].size(), 1u);
    EXPECT_EQ(f.delivered[0].size(), 1u);
}

TEST(fabric, a_packet_is_never_ready_before_the_one_pushed_ahead_of_it) {
    // Push times must not decrease (see fabric.h). If a caller breaks that,
    // the later packet waits for its predecessor instead of overtaking it.
    fabric_fixture f;
    f.init(fabric_kind::f2);
    ASSERT_TRUE(f.fabric->push(runtime_pkt(0, 1), 0, 100));  // ready at 52
    ASSERT_TRUE(f.fabric->push(runtime_pkt(1, 1), 1, 0));    // would be 2
    f.run_low(0, 52);
    EXPECT_TRUE(f.delivered[0].empty());
    f.run_low(52, 10);
    ASSERT_EQ(f.delivered[0].size(), 2u);
    EXPECT_EQ(f.delivered[0][0].seq, 0u);
    EXPECT_EQ(f.delivered[0][1].seq, 1u);
}

}  // namespace
}  // namespace meek

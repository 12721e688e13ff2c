#include "fault/campaign.h"

#include <algorithm>

#include "common/bits.h"

namespace meek {
namespace {

bool eligible(packet_kind kind, fault_target target) {
    switch (target) {
        case fault_target::any:
            return kind != packet_kind::segment_end;
        case fault_target::runtime_data:
        case fault_target::runtime_addr:
            return kind == packet_kind::runtime_load ||
                   kind == packet_kind::runtime_store ||
                   kind == packet_kind::runtime_csr;
        case fault_target::status_word:
            return kind == packet_kind::status_word;
    }
    return false;
}

// Instruction cap for one shard: warmup, then each fault needs its gap plus a
// detection window; the fixed tail mirrors how the benches size their
// programs. The run normally ends well before it, when its last fault
// settles. Depends only on the shard's config, never on thread count.
run_limits shard_limits(const fault_campaign_config& shard_cfg) {
    run_limits limits;
    limits.max_instructions =
        shard_cfg.shard_warmup_instructions +
        u64{shard_cfg.num_faults} * (shard_cfg.gap_instructions + 2'000) +
        shard_cfg.detection_horizon + 50'000;
    return limits;
}

// One shard: a sequential injection run. It ends at the instruction where
// its last fault settles (detected, or masked by the horizon); the shard's
// instruction budget and program end are only caps. Nothing after that
// instruction can change a record: injection stops at `num_faults` and the
// error hook ignores detections with no fault outstanding. The warmup keeps
// the first injection out of the cold-start window.
campaign_result run_campaign_once(const soc_config& soc_cfg, const program& prog,
                                  const fault_campaign_config& cfg) {
    campaign_result result;
    rng r(cfg.seed);
    bool stop = cfg.num_faults == 0;
    run_limits limits = shard_limits(cfg);
    limits.stop = &stop;

    meek_soc soc(soc_cfg);
    soc.load_program(prog);
    const clock_domain big_clock(soc_cfg.big.freq_mhz);

    bool outstanding = false;
    fault_record current;
    u64 next_eligible_seq = cfg.shard_warmup_instructions + cfg.gap_instructions;
    u64 injected = 0;

    soc.set_packet_hook([&](fwd_packet& pkt) {
        // Horizon check: give up on a fault nothing ever detected.
        if (outstanding && pkt.seq > current.inject_seq + cfg.detection_horizon) {
            current.detected = false;
            result.faults.push_back(current);
            ++result.masked;
            outstanding = false;
            next_eligible_seq = pkt.seq + cfg.gap_instructions;
            if (injected == cfg.num_faults) stop = true;
        }
        if (outstanding || injected >= cfg.num_faults) return;
        if (pkt.seq < next_eligible_seq) return;
        if (!eligible(pkt.kind, cfg.target)) return;
        if (!r.chance(cfg.inject_probability)) return;

        // Corrupt one random bit of the chosen field.
        const bool flip_addr =
            cfg.target == fault_target::runtime_addr ||
            (cfg.target == fault_target::any &&
             pkt.kind != packet_kind::status_word && r.chance(0.5));
        if (flip_addr) {
            pkt.addr ^= u64{1} << r.below(40);
        } else {
            pkt.data ^= u64{1} << r.below(64);
            if (cfg.core_side_fault && pkt.kind == packet_kind::runtime_load) {
                pkt.parity = parity64(pkt.data);
            }
        }
        pkt.fault_injected = true;

        current = fault_record{};
        current.inject_seq = pkt.seq;
        current.inject_big_cycle = pkt.created_big_cycle;
        current.corrupted_kind = pkt.kind;
        outstanding = true;
        ++injected;
    });

    soc.set_error_hook([&](const detection_event& ev) {
        if (!outstanding) return;  // echo of an already-attributed fault
        current.detected = true;
        current.detect_big_cycle = std::max(ev.detect_big_cycle, current.inject_big_cycle);
        current.kind = ev.kind;
        result.faults.push_back(current);
        ++result.detected;
        result.latency_ns.add(big_clock.cycles_to_ns(
            current.detect_big_cycle - current.inject_big_cycle));
        outstanding = false;
        next_eligible_seq = current.inject_seq + cfg.gap_instructions;
        if (injected == cfg.num_faults) stop = true;
    });

    soc.run(limits);
    result.simulated_instructions = soc.big_core().stats().instructions;

    if (outstanding) {
        current.detected = false;
        result.faults.push_back(current);
        ++result.masked;
    }
    return result;
}

}  // namespace

campaign_result run_fault_campaign(const soc_config& soc_cfg, const program& prog,
                                   const fault_campaign_config& cfg,
                                   sim::executor& ex) {
    const u32 per_shard = std::max<u32>(1, cfg.faults_per_shard);
    const std::size_t shards = (cfg.num_faults + per_shard - 1) / per_shard;

    if (shards <= 1) {
        // Inline on the calling thread, never a nested batch, through the same
        // derived stream a batched shard 0 would get.
        fault_campaign_config shard_cfg = cfg;
        shard_cfg.seed = sim::derive_stream_seed(cfg.seed, 0);
        return run_campaign_once(soc_cfg, prog, shard_cfg);
    }

    std::vector<campaign_result> partials = ex.run_indexed(
        shards, cfg.seed,
        [&](const sim::job_context& ctx) {
            fault_campaign_config shard_cfg = cfg;
            shard_cfg.seed = ctx.stream_seed;
            const u32 first = static_cast<u32>(ctx.index) * per_shard;
            shard_cfg.num_faults = std::min(per_shard, cfg.num_faults - first);
            return run_campaign_once(soc_cfg, prog, shard_cfg);
        });

    campaign_result merged;
    for (campaign_result& p : partials) {
        merged.faults.insert(merged.faults.end(), p.faults.begin(), p.faults.end());
        merged.detected += p.detected;
        merged.masked += p.masked;
        merged.latency_ns.merge(p.latency_ns);
        merged.simulated_instructions += p.simulated_instructions;
    }
    return merged;
}

histogram latency_histogram(const campaign_result& result, double max_ns,
                            std::size_t bins) {
    histogram h(0.0, max_ns, bins);
    for (const fault_record& f : result.faults) {
        // Masked faults carry no latency; skip them explicitly rather than
        // binning a bogus zero.
        const std::optional<double> cycles = f.latency_cycles();
        if (!cycles) continue;
        h.add(*cycles * 0.3125);  // 3.2 GHz
    }
    return h;
}

}  // namespace meek

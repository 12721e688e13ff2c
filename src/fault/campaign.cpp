#include "fault/campaign.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/atomic_file.h"
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

// One sequential injection run. It ends at the instruction where its last
// fault settles (detected, or masked by the horizon); `limits` and program
// end are only caps. Nothing after that instruction can change a record:
// injection stops at `num_faults` and the error hook ignores detections with
// no fault outstanding. `warmup` delays the first eligible injection (zero
// for the serial campaign, which reaches steady state naturally; shards use
// it to skip the cold-start window).
campaign_result run_campaign_once(const soc_config& soc_cfg, const program& prog,
                                  const fault_campaign_config& cfg,
                                  run_limits limits, u64 warmup) {
    campaign_result result;
    rng r(cfg.seed);
    bool stop = cfg.num_faults == 0;
    limits.stop = &stop;

    meek_soc soc(soc_cfg);
    soc.load_program(prog);
    const clock_domain big_clock(soc_cfg.big.freq_mhz);

    bool outstanding = false;
    fault_record current;
    u64 next_eligible_seq = warmup + cfg.gap_instructions;
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

std::string shard_checkpoint_path(const std::string& dir, std::size_t shard_index) {
    return dir + "/shard_" + std::to_string(shard_index) + ".ckpt";
}

// Pour one finished shard's outcome into the campaign progress counters.
// Counter adds are relaxed atomics, so concurrent shard jobs may interleave
// freely; the totals are exact once the batch joins.
void note_shard_metrics(const fault_campaign_config& cfg,
                        const campaign_result& result, bool resumed) {
    if (cfg.metrics == nullptr) return;
    obs::metrics_registry& m = *cfg.metrics;
    m.get_counter("campaign.faults_injected").add(result.detected + result.masked);
    m.get_counter("campaign.records_emitted").add(result.faults.size());
    m.get_counter("campaign.instructions_simulated").add(result.simulated_instructions);
    m.get_counter("campaign.shards_completed").add(1);
    if (resumed) m.get_counter("campaign.shards_resumed").add(1);
}

// Run one shard, satisfying it from a checkpoint when the directory holds a
// valid one for this exact shard config and system context.
campaign_result run_or_resume_shard(const soc_config& soc_cfg, const program& prog,
                                    const fault_campaign_config& shard_cfg,
                                    std::size_t shard_index, u64 context,
                                    const run_limits& limits, u64 warmup,
                                    const std::string& path) {
    const bool checkpointing = !path.empty();
    if (checkpointing) {
        if (std::optional<campaign_result> loaded = load_shard_checkpoint(
                path, shard_cfg, shard_index, context, soc_cfg.big.freq_mhz)) {
            loaded->resumed_shards = 1;
            note_shard_metrics(shard_cfg, *loaded, /*resumed=*/true);
            return *std::move(loaded);
        }
    }
    campaign_result result = run_campaign_once(soc_cfg, prog, shard_cfg, limits, warmup);
    if (checkpointing) {
        save_shard_checkpoint(path, shard_cfg, shard_index, context, result);
    }
    note_shard_metrics(shard_cfg, result, /*resumed=*/false);
    return result;
}

}  // namespace

u64 campaign_context_fingerprint(const soc_config& soc_cfg, const program& prog) {
    // FNV-1a over the program image and the full soc configuration: any
    // difference in the code under test, its data, or the checked system —
    // including design-space knobs like LSL size or DC-Buffer depth, which
    // change detection timing — must invalidate a checkpoint.
    fnv1a h;
    h.u(prog.text_base);
    h.u(prog.entry);
    h.u(prog.text.size());
    for (const instr& ins : prog.text) {
        h.u(static_cast<u64>(ins.op));
        h.u((u64{ins.rd} << 24) | (u64{ins.rs1} << 16) | (u64{ins.rs2} << 8) |
            u64{ins.rs3});
        h.u(static_cast<u64>(static_cast<i64>(ins.imm)));
    }
    for (const data_blob& blob : prog.data) {
        h.u(blob.base);
        h.u(blob.bytes.size());
        h.bytes(blob.bytes.data(), blob.bytes.size());
    }
    h.u(soc_config_fingerprint(soc_cfg));
    return h.h;
}

campaign_result run_fault_campaign(const soc_config& soc_cfg, const program& prog,
                                   const fault_campaign_config& cfg) {
    if (cfg.checkpoint_dir.empty()) {
        campaign_result result =
            run_campaign_once(soc_cfg, prog, cfg, run_limits{}, /*warmup=*/0);
        note_shard_metrics(cfg, result, /*resumed=*/false);
        return result;
    }
    // The serial campaign is one monolithic "shard" with its own file name:
    // it must never satisfy (or be satisfied by) an executor shard, whose
    // seed derivation and instruction budget differ.
    return run_or_resume_shard(soc_cfg, prog, cfg, /*shard_index=*/0,
                               campaign_context_fingerprint(soc_cfg, prog),
                               run_limits{}, /*warmup=*/0,
                               cfg.checkpoint_dir + "/serial.ckpt");
}

campaign_result run_fault_campaign(const soc_config& soc_cfg, const program& prog,
                                   const fault_campaign_config& cfg,
                                   sim::executor& ex) {
    const u32 per_shard = std::max<u32>(1, cfg.faults_per_shard);
    const std::size_t shards = (cfg.num_faults + per_shard - 1) / per_shard;
    const u64 context = cfg.checkpoint_dir.empty()
                            ? 0
                            : campaign_context_fingerprint(soc_cfg, prog);
    auto ckpt_path = [&cfg](std::size_t shard_index) {
        return cfg.checkpoint_dir.empty()
                   ? std::string()
                   : shard_checkpoint_path(cfg.checkpoint_dir, shard_index);
    };

    if (shards <= 1) {
        // A single shard still goes through the derived stream so the result
        // is independent of whether the executor path was taken.
        fault_campaign_config shard_cfg = cfg;
        shard_cfg.seed = sim::derive_stream_seed(cfg.seed, 0);
        return run_or_resume_shard(soc_cfg, prog, shard_cfg, /*shard_index=*/0,
                                   context, shard_limits(shard_cfg),
                                   cfg.shard_warmup_instructions, ckpt_path(0));
    }

    // Hint shard costs by fault count: every shard but the last carries
    // `per_shard` faults, so the short tail shard is submitted last.
    std::vector<double> shard_costs;
    shard_costs.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        const u32 first = static_cast<u32>(i) * per_shard;
        shard_costs.push_back(std::min(per_shard, cfg.num_faults - first));
    }
    std::vector<campaign_result> partials = ex.run_indexed(
        shards, cfg.seed,
        [&](const sim::job_context& ctx) {
            fault_campaign_config shard_cfg = cfg;
            shard_cfg.seed = ctx.stream_seed;
            const u32 first = static_cast<u32>(ctx.index) * per_shard;
            shard_cfg.num_faults = std::min(per_shard, cfg.num_faults - first);
            return run_or_resume_shard(soc_cfg, prog, shard_cfg, ctx.index,
                                       context, shard_limits(shard_cfg),
                                       cfg.shard_warmup_instructions,
                                       ckpt_path(ctx.index));
        },
        shard_costs);

    campaign_result merged;
    for (campaign_result& p : partials) {
        merged.faults.insert(merged.faults.end(), p.faults.begin(), p.faults.end());
        merged.detected += p.detected;
        merged.masked += p.masked;
        merged.latency_ns.merge(p.latency_ns);
        merged.resumed_shards += p.resumed_shards;
        merged.simulated_instructions += p.simulated_instructions;
    }
    return merged;
}

bool save_shard_checkpoint(const std::string& path,
                           const fault_campaign_config& shard_cfg,
                           std::size_t shard_index, u64 context_fingerprint,
                           const campaign_result& result) {
    // Serialize the whole checkpoint into memory, then hand it to the shared
    // atomic-write helper (temp + rename): a reader never sees a torn
    // checkpoint, and a crash mid-write leaves only a stale .tmp behind.
    u64 p_bits;
    std::memcpy(&p_bits, &shard_cfg.inject_probability, sizeof p_bits);
    char buf[512];
    int n = std::snprintf(
        buf, sizeof buf,
        "meek-campaign-ckpt v1\n"
        "shard %zu seed %" PRIu64 " faults %u gap %" PRIu64 " horizon %" PRIu64
        " target %d inject_p %" PRIx64 " core_side %d warmup %" PRIu64
        " context %" PRIx64 "\n"
        "records %zu\n",
        shard_index, shard_cfg.seed, shard_cfg.num_faults,
        shard_cfg.gap_instructions, shard_cfg.detection_horizon,
        static_cast<int>(shard_cfg.target), p_bits,
        shard_cfg.core_side_fault ? 1 : 0, shard_cfg.shard_warmup_instructions,
        context_fingerprint, result.faults.size());
    if (n <= 0 || static_cast<std::size_t>(n) >= sizeof buf) return false;
    std::string doc(buf, static_cast<std::size_t>(n));
    for (const fault_record& r : result.faults) {
        n = std::snprintf(buf, sizeof buf,
                          "%" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d %d\n",
                          r.inject_seq, static_cast<u64>(r.inject_big_cycle),
                          static_cast<u64>(r.detect_big_cycle), r.detected ? 1 : 0,
                          static_cast<int>(r.kind),
                          static_cast<int>(r.corrupted_kind));
        if (n <= 0 || static_cast<std::size_t>(n) >= sizeof buf) return false;
        doc.append(buf, static_cast<std::size_t>(n));
    }
    return write_file_atomic(path, doc);
}

std::optional<campaign_result> load_shard_checkpoint(
    const std::string& path, const fault_campaign_config& shard_cfg,
    std::size_t shard_index, u64 context_fingerprint, u64 freq_mhz) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return std::nullopt;

    std::optional<campaign_result> out;
    char magic[32] = {};
    std::size_t idx = 0;
    u64 seed = 0, gap = 0, horizon = 0, warmup = 0, p_bits = 0, context = 0;
    unsigned faults = 0;
    int target = -1, core_side = -1;
    std::size_t num_records = 0;

    u64 expect_p_bits;
    std::memcpy(&expect_p_bits, &shard_cfg.inject_probability, sizeof expect_p_bits);

    const bool header_ok =
        std::fscanf(f, "meek-campaign-ckpt %31s", magic) == 1 &&
        std::strcmp(magic, "v1") == 0 &&
        std::fscanf(f,
                    " shard %zu seed %" SCNu64 " faults %u gap %" SCNu64
                    " horizon %" SCNu64 " target %d inject_p %" SCNx64
                    " core_side %d warmup %" SCNu64 " context %" SCNx64,
                    &idx, &seed, &faults, &gap, &horizon, &target, &p_bits,
                    &core_side, &warmup, &context) == 10 &&
        std::fscanf(f, " records %zu", &num_records) == 1;

    const bool config_ok =
        header_ok && idx == shard_index && seed == shard_cfg.seed &&
        faults == shard_cfg.num_faults && gap == shard_cfg.gap_instructions &&
        horizon == shard_cfg.detection_horizon &&
        target == static_cast<int>(shard_cfg.target) && p_bits == expect_p_bits &&
        core_side == (shard_cfg.core_side_fault ? 1 : 0) &&
        warmup == shard_cfg.shard_warmup_instructions &&
        context == context_fingerprint;

    if (config_ok) {
        campaign_result result;
        const clock_domain big_clock(freq_mhz);
        bool records_ok = true;
        for (std::size_t i = 0; i < num_records && records_ok; ++i) {
            fault_record r;
            u64 inject_cycle = 0, detect_cycle = 0;
            int detected = 0, kind = 0, corrupted = 0;
            records_ok = std::fscanf(f, " %" SCNu64 " %" SCNu64 " %" SCNu64 " %d %d %d",
                                     &r.inject_seq, &inject_cycle, &detect_cycle,
                                     &detected, &kind, &corrupted) == 6;
            if (!records_ok) break;
            r.inject_big_cycle = inject_cycle;
            r.detect_big_cycle = detect_cycle;
            r.detected = detected != 0;
            r.kind = static_cast<check_error_kind>(kind);
            r.corrupted_kind = static_cast<packet_kind>(corrupted);
            // Rebuild the aggregates in record order — the same sequence of
            // running_stat::add calls the simulating shard made.
            if (r.detected) {
                ++result.detected;
                result.latency_ns.add(big_clock.cycles_to_ns(r.detect_big_cycle -
                                                             r.inject_big_cycle));
            } else {
                ++result.masked;
            }
            result.faults.push_back(r);
        }
        if (records_ok) out = std::move(result);
    }
    std::fclose(f);
    return out;
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

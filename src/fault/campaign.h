// Fault-injection campaigns (Sec. V-B): bit flips are injected into the
// forwarded data stream between the DEU and F2 — memory-operation addresses
// and data, CSR read values, and architectural-register status words — so
// the big core's execution stays golden while the checker must detect the
// corruption. Detection latency is the time from the corrupted packet's
// creation to the checker's error report, in nanoseconds at 3.2 GHz.
//
// One fault is outstanding at a time (as in the paper's sequential random
// injections); a fault undetected within the horizon is recorded as masked
// (e.g. a corrupted load value that dies before reaching any store or RCP).
#pragma once

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "isa/program.h"
#include "meek/soc.h"
#include "sim/executor.h"

namespace meek {

enum class fault_target : u8 {
    any,           // paper default: addresses, data and register words
    runtime_data,  // load/store/CSR payloads only
    runtime_addr,  // memory addresses only
    status_word,   // RCP snapshot words only
};

struct fault_campaign_config {
    u32 num_faults = 1000;
    // Spacing between injections. Must exceed the maximum segment length
    // (the 5000-instruction RCP timeout): a checker that detects an error
    // stops replaying, so the tail of a failed segment is unverified until
    // recovery — injecting into that window would measure recovery policy,
    // not detection latency.
    u64 gap_instructions = 6000;
    u64 detection_horizon = 40'000;   // instructions before declaring masked
    fault_target target = fault_target::any;
    u64 seed = 1;
    double inject_probability = 0.25;  // per eligible packet, randomizes position

    // Model the fault as corruption inside the big core (parity computed
    // after the flip, so it is self-consistent and only replay comparison
    // can detect it). When false, the flip models an F2-transit fault and
    // the LSL's parity check catches it on arrival.
    bool core_side_fault = true;

    // Parallel decomposition: the campaign splits into ceil(num_faults /
    // faults_per_shard) independent shards, each with its own SoC and rng
    // stream derived from (seed, shard index). The split is a pure function
    // of this config — never of the thread count — so merged records are
    // bit-identical whether 1 or 16 workers ran the shards.
    //
    // Each shard replays the program from the start (simulation cannot be
    // fast-forwarded), so shards sample the workload's steady-state loop
    // region rather than disjoint stream offsets; `shard_warmup_instructions`
    // keeps every shard's injections out of the cold-cache startup window. A
    // shard's run ends at the instruction where its last fault settles; its
    // instruction budget (warmup + faults x (gap + 2000) + horizon + 50k) and
    // program end are only caps.
    u32 faults_per_shard = 50;
    u64 shard_warmup_instructions = 20'000;
};

struct fault_record {
    u64 inject_seq = 0;
    cycle_t inject_big_cycle = 0;
    cycle_t detect_big_cycle = 0;
    bool detected = false;
    check_error_kind kind = check_error_kind::none;
    packet_kind corrupted_kind = packet_kind::runtime_load;

    // Detection latency in big-core cycles; nullopt for masked faults (a
    // masked fault has no latency — it must not be conflated with a
    // zero-latency detection in percentile aggregation).
    std::optional<double> latency_cycles() const {
        if (!detected) return std::nullopt;
        return static_cast<double>(detect_big_cycle - inject_big_cycle);
    }
};

struct campaign_result {
    std::vector<fault_record> faults;
    u64 detected = 0;
    u64 masked = 0;
    running_stat latency_ns;  // over detected faults
    // Big-core instructions simulated, summed over shards in shard order.
    // Diagnostic only.
    u64 simulated_instructions = 0;

    double detection_rate() const {
        const u64 total = detected + masked;
        return total == 0 ? 0.0 : static_cast<double>(detected) / static_cast<double>(total);
    }
};

// Fans fixed-size fault shards (see `faults_per_shard`) out across `ex`'s
// workers and merges their records and accumulators in shard order at join.
// Each shard runs a fresh MEEK SoC over `prog` with its own rng stream and
// ends at the instruction where its last fault settles (detected, or masked
// by the horizon); its instruction budget and program end are only caps, so
// a program too short to host every requested fault yields fewer records. A
// single-shard campaign runs inline on the calling thread and posts nothing
// to `ex`, so it is safe to call from inside one of `ex`'s jobs. A campaign
// with no faults simulates nothing. Deterministic at any thread count for a
// given config.
campaign_result run_fault_campaign(const soc_config& soc_cfg, const program& prog,
                                   const fault_campaign_config& cfg,
                                   sim::executor& ex);

// Convenience: latency histogram in ns over detected faults.
histogram latency_histogram(const campaign_result& result, double max_ns = 3200.0,
                            std::size_t bins = 16);

}  // namespace meek

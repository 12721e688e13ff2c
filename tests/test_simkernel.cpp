// Simulation-kernel hot-path guarantees:
//   * the event-driven low-domain advance (each checker runs a whole span in
//     one call, parked cycles accounted in bulk) is bit-identical to the
//     exhaustive reference mode that ticks every little core on every low
//     cycle — compared field-for-field over the whole meek_run_result,
//     per-core stats included, under fault injection, shallow DC-Buffers on
//     F2 and AXI, and small LSLs;
//   * a configuration that can provably make no progress (zero-capacity
//     fabric) surfaces as an explicit run_result error instead of the former
//     livelock, in both advance modes.
#include <gtest/gtest.h>

#include <functional>

#include "isa/assembler.h"
#include "meek/soc.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace meek {
namespace {

// Mixed ALU/memory/branch loop: long enough to span several segments, with
// loaded values kept live so forwarded-data corruption must be detected.
program loop_program(int iterations) {
    program_builder b;
    b.emit_li(1, iterations);
    b.emit_li(5, k_default_data_base);
    b.emit_li(6, 0);
    b.label("loop");
    b.emit(make_r(opcode::add, 6, 6, 1));
    b.emit(make_i(opcode::xori, 6, 6, 0x55));
    b.emit(make_i(opcode::slli, 8, 6, 1));
    b.emit(make_r(opcode::add, 6, 6, 8));
    b.emit(make_store(opcode::sd, 6, 5, 0));
    b.emit(make_load(opcode::ld, 7, 5, 0));
    b.emit(make_r(opcode::add, 6, 6, 7));
    b.emit(make_i(opcode::addi, 1, 1, -1));
    b.emit_branch(opcode::bne, 1, 0, "loop");
    b.emit(make_sys(opcode::halt));
    return std::move(b).build();
}

// Field-for-field comparison of two runs that must be bit-identical. Every
// scalar the result carries is asserted individually so a divergence names
// the field that moved instead of reporting an opaque struct mismatch.
void expect_identical_results(const meek_run_result& a, const meek_run_result& b) {
    EXPECT_EQ(a.big.instructions, b.big.instructions);
    EXPECT_EQ(a.big.cycles, b.big.cycles);
    EXPECT_EQ(a.big.halted, b.big.halted);
    EXPECT_EQ(a.big.truncated, b.big.truncated);
    EXPECT_EQ(a.drain_cycles, b.drain_cycles);
    EXPECT_EQ(a.soc.segments_started, b.soc.segments_started);
    EXPECT_EQ(a.soc.segments_verified, b.soc.segments_verified);
    EXPECT_EQ(a.soc.segments_failed, b.soc.segments_failed);
    EXPECT_EQ(a.soc.errors_detected, b.soc.errors_detected);
    EXPECT_EQ(a.soc.stall_collecting, b.soc.stall_collecting);
    EXPECT_EQ(a.soc.stall_forwarding, b.soc.stall_forwarding);
    EXPECT_EQ(a.soc.stall_checker, b.soc.stall_checker);
    EXPECT_EQ(a.verified_ok, b.verified_ok);
    EXPECT_EQ(a.error, b.error);
}

void expect_identical_little_stats(const meek_soc& a, const meek_soc& b,
                                   u32 cores) {
    for (u32 i = 0; i < cores; ++i) {
        const little_core_stats& sa = a.little(i).stats();
        const little_core_stats& sb = b.little(i).stats();
        EXPECT_EQ(sa.replayed_instructions, sb.replayed_instructions) << "core " << i;
        EXPECT_EQ(sa.segments_checked, sb.segments_checked) << "core " << i;
        EXPECT_EQ(sa.segments_failed, sb.segments_failed) << "core " << i;
        EXPECT_EQ(sa.busy_cycles, sb.busy_cycles) << "core " << i;
        EXPECT_EQ(sa.stall_lsl_empty, sb.stall_lsl_empty) << "core " << i;
        EXPECT_EQ(sa.stall_watermark, sb.stall_watermark) << "core " << i;
        EXPECT_EQ(sa.stall_srcp, sb.stall_srcp) << "core " << i;
        EXPECT_EQ(sa.apply_compare_cycles, sb.apply_compare_cycles) << "core " << i;
        EXPECT_EQ(sa.app_instructions, sb.app_instructions) << "core " << i;
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_field_for_field) {
    const program p = loop_program(3000);
    for (u32 cores : {2u, 4u}) {
        soc_config cfg;
        cfg.num_little_cores = cores;

        meek_soc ev(cfg);
        ev.set_event_driven_low_advance(true);
        ev.load_program(p);
        const meek_run_result r_ev = ev.run();

        meek_soc ex(cfg);
        ex.set_event_driven_low_advance(false);
        ex.load_program(p);
        const meek_run_result r_ex = ex.run();

        ASSERT_TRUE(r_ev.big.halted);
        ASSERT_TRUE(r_ev.verified_ok);
        expect_identical_results(r_ev, r_ex);
        expect_identical_little_stats(ev, ex, cores);
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_on_generated_workload) {
    // A registry workload exercises the FP/branch mix the synthetic loop
    // does not; tight DC-Buffer depth forces the forwarding-stall path so
    // the bulk-accounted wait loops are covered too.
    const auto wl = generate_workload(*find_profile("hmmer"), 30'000, 0xC0FFEE);
    soc_config cfg;
    cfg.num_little_cores = 2;
    cfg.fabric.dc_buffer_depth = 4;

    meek_soc ev(cfg);
    ev.set_event_driven_low_advance(true);
    ev.load_program(wl.prog);
    const meek_run_result r_ev = ev.run();

    meek_soc ex(cfg);
    ex.set_event_driven_low_advance(false);
    ex.load_program(wl.prog);
    const meek_run_result r_ex = ex.run();

    ASSERT_TRUE(r_ev.big.halted);
    expect_identical_results(r_ev, r_ex);
    expect_identical_little_stats(ev, ex, cfg.num_little_cores);
}

TEST(sim_kernel, event_driven_matches_exhaustive_under_fault_injection) {
    // The detection path (checker mismatch -> segment failure -> error hook)
    // must land on the same cycle in both modes.
    const program p = loop_program(1500);
    auto run_with_fault = [&](bool event_driven, meek_run_result& out,
                              std::vector<detection_event>& detections) {
        soc_config cfg;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        bool injected = false;
        soc.set_packet_hook([&](fwd_packet& pkt) {
            if (!injected && pkt.kind == packet_kind::runtime_load && pkt.seq > 300) {
                pkt.data ^= 1ull << 7;
                pkt.fault_injected = true;
                injected = true;
            }
        });
        out = soc.run();
        detections = soc.detections();
        EXPECT_TRUE(injected);
    };

    meek_run_result r_ev, r_ex;
    std::vector<detection_event> d_ev, d_ex;
    run_with_fault(true, r_ev, d_ev);
    run_with_fault(false, r_ex, d_ex);

    EXPECT_FALSE(r_ev.verified_ok);
    expect_identical_results(r_ev, r_ex);
    ASSERT_EQ(d_ev.size(), d_ex.size());
    for (std::size_t i = 0; i < d_ev.size(); ++i) {
        EXPECT_EQ(d_ev[i].kind, d_ex[i].kind);
        EXPECT_EQ(d_ev[i].segment, d_ex[i].segment);
        EXPECT_EQ(d_ev[i].detect_big_cycle, d_ex[i].detect_big_cycle);
    }
}

// Runs `p` once per low-advance mode, each SoC with a fresh hook from
// `make_hook` (null: no hook), and expects the two runs to agree field for
// field: result, detections and per-core stats.
void expect_modes_agree(const soc_config& cfg, const program& p,
                        const std::function<meek_soc::packet_hook()>& make_hook = {}) {
    meek_soc ev(cfg);
    ev.set_event_driven_low_advance(true);
    meek_soc ex(cfg);
    ex.set_event_driven_low_advance(false);
    for (meek_soc* soc : {&ev, &ex}) {
        soc->load_program(p);
        if (make_hook) soc->set_packet_hook(make_hook());
    }
    const meek_run_result r_ev = ev.run();
    const meek_run_result r_ex = ex.run();
    ASSERT_TRUE(r_ev.error.empty()) << r_ev.error;
    expect_identical_results(r_ev, r_ex);
    expect_identical_little_stats(ev, ex, cfg.num_little_cores);
    ASSERT_EQ(ev.detections().size(), ex.detections().size());
    for (std::size_t i = 0; i < ev.detections().size(); ++i) {
        EXPECT_EQ(ev.detections()[i].kind, ex.detections()[i].kind) << i;
        EXPECT_EQ(ev.detections()[i].segment, ex.detections()[i].segment) << i;
        EXPECT_EQ(ev.detections()[i].detect_big_cycle, ex.detections()[i].detect_big_cycle) << i;
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_under_f2_transit_parity_faults) {
    // F2-transit faults flip forwarded load data without recomputing its
    // parity, so each one lands as a parity fault on whichever checker holds
    // the segment, mid-span or mid-busy-wait.
    const auto wl = generate_workload(*find_profile("dedup"), 40'000, 7);
    soc_config cfg;
    cfg.num_little_cores = 4;
    u64 faults = 0;
    expect_modes_agree(cfg, wl.prog, [&faults] {
        return [&faults, loads = u64{0}](fwd_packet& pkt) mutable {
            if (pkt.kind != packet_kind::runtime_load || ++loads % 97 != 0) return;
            pkt.data ^= u64{1} << (loads % 64);
            pkt.fault_injected = true;
            ++faults;
        };
    });
    EXPECT_GT(faults, 20u);
}

TEST(sim_kernel, event_driven_matches_exhaustive_at_dc_buffer_depth_4_on_f2_and_axi) {
    // Shallow DC-Buffers make every status burst wait for slots, so the push
    // wait runs from fabric event to fabric event; AXI adds per-destination
    // transactions and re-arbitration bubbles.
    const auto wl = generate_workload(*find_profile("hmmer"), 30'000, 0xC0FFEE);
    for (const fabric_kind kind : {fabric_kind::f2, fabric_kind::axi_interconnect}) {
        SCOPED_TRACE(static_cast<int>(kind));
        soc_config cfg;
        cfg.num_little_cores = 4;
        cfg.fabric.kind = kind;
        cfg.fabric.dc_buffer_depth = 4;
        expect_modes_agree(cfg, wl.prog);
    }
}

TEST(sim_kernel, event_driven_matches_exhaustive_at_the_smallest_searched_lsl) {
    // 2 KiB LSLs (the search grid's smallest) end segments on "LSL full"
    // most often, so checkers turn over and re-reserve fastest.
    const auto wl = generate_workload(*find_profile("mcf"), 30'000, 11);
    soc_config cfg;
    cfg.num_little_cores = 4;
    cfg.little.lsl_bytes = 2048;
    expect_modes_agree(cfg, wl.prog);
}

TEST(sim_kernel, single_core_rcp_deadlock_reports_error_instead_of_livelock) {
    // With one little core the pending-RCP block and the one-behind rule
    // deadlock each other: the only checker needs the watermark to advance
    // past the boundary to finish, and the watermark cannot advance while
    // commits are blocked on it going idle. This used to spin ~2e8 low ticks
    // and then abort the whole process with an uncaught exception; it must
    // now come back immediately as a run_result error, identically in both
    // advance modes.
    const program p = loop_program(3000);
    meek_run_result results[2];
    for (const bool event_driven : {true, false}) {
        soc_config cfg;
        cfg.num_little_cores = 1;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        const meek_run_result r = soc.run();
        EXPECT_FALSE(r.error.empty()) << "event_driven=" << event_driven;
        EXPECT_TRUE(r.big.truncated) << "event_driven=" << event_driven;
        EXPECT_FALSE(r.verified_ok) << "event_driven=" << event_driven;
        EXPECT_NE(r.error.find("livelock averted"), std::string::npos) << r.error;
        results[event_driven ? 0 : 1] = r;
    }
    expect_identical_results(results[0], results[1]);
}

TEST(sim_kernel, zero_capacity_fabric_reports_error_instead_of_livelock) {
    // A fabric that can never accept a packet used to livelock push_blocking
    // forever. Quiescence detection must now abort the run with an explicit
    // error, in both advance modes, and the two modes must agree on it.
    const program p = loop_program(500);
    meek_run_result results[2];
    for (const bool event_driven : {true, false}) {
        soc_config cfg;
        cfg.fabric.dc_buffer_depth = 0;
        meek_soc soc(cfg);
        soc.set_event_driven_low_advance(event_driven);
        soc.load_program(p);
        const meek_run_result r = soc.run();
        EXPECT_FALSE(r.error.empty()) << "event_driven=" << event_driven;
        EXPECT_TRUE(r.big.truncated) << "event_driven=" << event_driven;
        EXPECT_FALSE(r.verified_ok) << "event_driven=" << event_driven;
        results[event_driven ? 0 : 1] = r;
    }
    expect_identical_results(results[0], results[1]);
}

}  // namespace
}  // namespace meek

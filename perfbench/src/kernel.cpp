// kernel: one thread, no executor. Each pass runs sim::execute of vanilla
// and meek/f2/opt/4 over four SPEC profiles generated in setup, so nearly all
// host time is in bigcore, deu, fabric, littlecore and meek. Each profile is
// generated with three seeds derived from --seed: host cost per instruction
// depends on the seed (libquantum's checker pressure most of all), and three
// programs per profile keep one seed's luck from setting the pass time.
//   hmmer      — the Fig. 6 default;
//   libquantum — the checker-bound outlier (high IPC, long checker queues);
//   mcf        — memory-bound, IPC ~0.06;
//   swaptions  — heavy on division (little-core divider pressure).
// The one thread moves to the next CPU before each program it simulates (see
// cpu_rotation in bench.h).
//
// The traced run splits MEEK's host cost from outside the SoC: the commit
// stream is captured with a benchmark-owned commit_sink on ooo_core::run and
// replayed into a standalone data_extraction_unit, and the forwarded packet
// stream is captured with meek_soc::set_packet_hook and replayed through
// fabric_model::push/tick_low with a deliver ref that always accepts (so
// the fabric replay has no LSL back-pressure). Whatever MEEK costs beyond
// vanilla that DEU and fabric do not explain is the residual: the little
// cores plus the controller.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bigcore/ooo_core.h"
#include "deu/deu.h"
#include "fabric/fabric.h"
#include "meek/soc.h"
#include "mem/functional_memory.h"
#include "sim/job.h"
#include "sim/scenario.h"
#include "workloads.h"
#include "workloads/generator.h"
#include "workloads/profile.h"

namespace perfbench {
namespace {

using namespace meek;

constexpr const char* k_profiles[] = {"hmmer", "libquantum", "mcf", "swaptions"};
constexpr u64 k_seeds_per_profile = 3;

// One generated program of the pass.
struct input {
    const workload_profile* profile = nullptr;
    u64 seed = 0;
    std::shared_ptr<const generated_workload> program;
};

// Hands sim::execute the programs generated in setup, so passes time
// simulation only.
class pregenerated final : public workload_source {
public:
    std::vector<input> inputs;

    std::shared_ptr<const generated_workload> workload_for(const workload_profile& profile,
                                                           u64, u64 seed) override {
        for (const input& in : inputs) {
            if (in.profile->name == profile.name && in.seed == seed) return in.program;
        }
        throw std::logic_error("kernel: no program generated for " + profile.name);
    }
};

class commit_recorder final : public commit_sink {
public:
    std::vector<commit_record> records;
    cycle_t on_commit(const commit_record& rec, cycle_t proposed) override {
        records.push_back(rec);
        return proposed;
    }
};

// One profile's captured streams plus the counters of the capturing SoC run.
struct capture {
    std::vector<commit_record> commits;
    std::vector<fwd_packet> packets;
    u64 instructions = 0;
    deu_stats deu;
    fabric_stats fabric;
    cycle_t low_cycles = 0;          // fabric-domain cycles of the whole run
    cycle_t little_core_cycles = 0;  // little-core cycles, summed over cores
    cycle_t little_busy = 0;
    cycle_t little_lsl_empty = 0;
    u64 replayed = 0;
};

deu_stats replay_deu(const soc_config& cfg, const std::vector<commit_record>& commits) {
    data_extraction_unit deu(cfg.little.lsl_entries(), cfg.little.rcp_instruction_timeout,
                             cfg.big.commit_width);
    u32 entries = 0;
    u32 instrs = 0;
    for (const commit_record& rec : commits) {
        if (deu.runtime_packet(rec)) ++entries;
        ++instrs;
        if (deu.check_trigger(rec, entries, instrs) != rcp_trigger::none) {
            deu.note_status_words(k_snapshot_words);
            entries = 0;
            instrs = 0;
        }
    }
    return deu.stats();
}

fabric_stats replay_fabric(const soc_config& cfg, const std::vector<fwd_packet>& packets) {
    fabric_model fab(cfg.fabric, cfg.big.commit_width, cfg.num_little_cores);
    fab.set_deliver_ref({nullptr, [](void*, u32, const fwd_packet&) { return true; }});
    cycle_t lo = 0;
    // Tick only cycles where the fabric has work due, as the SoC's
    // event-driven low domain does.
    auto step = [&](cycle_t limit) {
        const cycle_t next = fab.next_event_lo();
        if (next > lo) {
            lo = std::min(next, limit);
        } else {
            fab.tick_low(lo++);
        }
    };
    const u32 width = cfg.big.commit_width;
    for (const fwd_packet& p : packets) {
        // The SoC's DC-Buffer choice: status words by word index, segment
        // ends on path 0, run-time packets by commit sequence.
        const u32 path = p.kind == packet_kind::status_word   ? p.word_index % width
                         : p.kind == packet_kind::segment_end ? 0
                                                              : static_cast<u32>(p.seq % width);
        const cycle_t due = (p.created_big_cycle + 1) / 2;
        while (lo < due) step(due);
        while (!fab.can_accept(p.kind, path)) fab.tick_low(lo++);
        fab.push(p, path, std::max<cycle_t>(p.created_big_cycle, lo * 2));
    }
    while (!fab.drained()) step(fabric_model::k_no_event);
    return fab.stats();
}

class kernel_workload final : public workload {
public:
    explicit kernel_workload(const options& opt)
        : seed_(opt.seed), instructions_(opt.tiny ? 10'000 : 100'000) {}

    void setup(const obs::trace_context& parent) override {
        source_.inputs.clear();
        for (const char* name : k_profiles) {
            for (u64 j = 0; j < k_seeds_per_profile; ++j) {
                input in;
                in.profile = find_profile(name);
                in.seed = sim::derive_stream_seed(seed_, j);
                obs::trace_span span(parent, "workloads.gen", source_.inputs.size());
                in.program = std::make_shared<const generated_workload>(
                    generate_workload(*in.profile, instructions_, in.seed));
                source_.inputs.push_back(std::move(in));
            }
        }
    }

    u64 pass(const obs::trace_context& parent) override {
        u64 ops = 0;
        for (std::size_t k = 0; k < source_.inputs.size(); ++k) {
            // The rotation shifts by one each pass, so every program visits
            // every CPU.
            cpus_.step(k + passes_);
            sim::run_spec spec;
            spec.workload = *source_.inputs[k].profile;
            spec.instructions = instructions_;
            spec.workload_seed = source_.inputs[k].seed;
            spec.workloads = &source_;

            spec.sc = sim::vanilla_scenario();
            const double t0 = wall_s();
            sim::run_outcome v;
            {
                obs::trace_span span(parent, "bigcore.execute", k);
                v = sim::execute(spec);
            }
            const double t1 = wall_s();
            spec.sc = sim::meek_scenario(4);
            sim::run_outcome m;
            {
                obs::trace_span span(parent, "meek.execute", k);
                m = sim::execute(spec);
            }
            const double t2 = wall_s();

            check(k, v, m);
            note_unit(2 * k, t1 - t0);
            note_unit(2 * k + 1, t2 - t1);
            ops += v.instructions + m.instructions;
        }
        cpus_.release();
        ++passes_;
        return ops;
    }

    void reset() override { unit_best_s.clear(); }

    void probe(const obs::trace_context& parent) override {
        if (captures_.empty()) {
            obs::trace_span span(parent, "bench.capture");
            for (std::size_t k = 0; k < source_.inputs.size(); ++k) {
                captures_.push_back(capture_run(k));
            }
        }
        const soc_config cfg = sim::meek_scenario(4).soc();
        for (std::size_t k = 0; k < captures_.size(); ++k) {
            const capture& c = captures_[k];
            deu_stats d;
            {
                obs::trace_span span(parent, "deu.replay", k);
                d = replay_deu(cfg, c.commits);
            }
            fabric_stats f;
            {
                obs::trace_span span(parent, "fabric.replay", k);
                f = replay_fabric(cfg, c.packets);
            }
            // The replays must see the traffic the SoC saw.
            bool ok = require(d.runtime_packets == c.deu.runtime_packets &&
                                  d.rcps_lsl_full == c.deu.rcps_lsl_full &&
                                  d.rcps_timeout == c.deu.rcps_timeout &&
                                  d.rcps_trap == c.deu.rcps_trap,
                              "kernel: DEU replay disagrees with the SoC's DEU");
            ok &= require(f.packets_pushed == c.packets.size() &&
                              f.packets_pushed == c.fabric.packets_pushed,
                          "kernel: fabric replay lost packets");
            checks.add(ok);
        }
    }

    // Throughputs at each call's fastest time (see unit_best_s in bench.h).
    void own_metrics(metric_map& out) const override {
        double vanilla_s = 0.0, meek_s = 0.0;
        u64 instr = 0;
        for (std::size_t k = 0; k < refs_.size(); ++k) {
            vanilla_s += unit_best_s[2 * k];
            meek_s += unit_best_s[2 * k + 1];
            instr += refs_[k].vanilla.instructions;
        }
        out["meek_mips"] = static_cast<double>(instr) / meek_s * 1e-6;
        out["vanilla_mips"] = static_cast<double>(instr) / vanilla_s * 1e-6;
        double log_sum = 0.0;
        for (const reference& r : refs_) {
            log_sum += std::log(static_cast<double>(r.meek.cycles) /
                                static_cast<double>(r.vanilla.cycles));
        }
        out["meek_slowdown"] = std::exp(log_sum / static_cast<double>(refs_.size()));
    }

    void layer_metrics(const trace_totals& spans, metric_map& out) const override {
        auto total = [&](const char* name) {
            const auto it = spans.pass_ms.find(name);
            return it == spans.pass_ms.end() ? 0.0 : it->second * 1e6;  // ns
        };
        const double passes = static_cast<double>(spans.passes);
        u64 instr = 0, vanilla_cycles = 0, meek_cycles = 0;
        cycle_t stall_checker = 0, stall_forwarding = 0, stall_collecting = 0;
        for (const reference& r : refs_) {
            instr += r.vanilla.instructions;
            vanilla_cycles += r.vanilla.cycles;
            meek_cycles += r.meek.cycles;
            stall_checker += r.meek.stats.stall_checker;
            stall_forwarding += r.meek.stats.stall_forwarding;
            stall_collecting += r.meek.stats.stall_collecting;
        }
        capture sum;
        u64 commits = 0, packets = 0;
        for (const capture& c : captures_) {
            commits += c.commits.size();
            packets += c.packets.size();
            sum.instructions += c.instructions;
            sum.deu.runtime_packets += c.deu.runtime_packets;
            sum.deu.status_words += c.deu.status_words;
            sum.fabric.transmissions += c.fabric.transmissions;
            sum.fabric.delivery_retries += c.fabric.delivery_retries;
            sum.fabric.busy_lo_cycles += c.fabric.busy_lo_cycles;
            sum.low_cycles += c.low_cycles;
            sum.little_core_cycles += c.little_core_cycles;
            sum.little_busy += c.little_busy;
            sum.little_lsl_empty += c.little_lsl_empty;
            sum.replayed += c.replayed;
        }
        auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
        auto d = [](auto x) { return static_cast<double>(x); };

        const double vanilla_ns = total("bigcore.execute");
        const double meek_ns = total("meek.execute");
        const double deu_ns = total("deu.replay");
        const double fabric_ns = total("fabric.replay");
        const double sim_instr = d(instr) * passes;

        const auto gen = spans.setup_ms.find("workloads.gen");
        out["workloads.gen_ms"] = gen == spans.setup_ms.end() ? 0.0 : gen->second;
        out["workloads.len_ratio"] =
            ratio(d(instr), d(instructions_) * d(refs_.size()));
        out["bigcore.host_ns_per_instr"] = ratio(vanilla_ns, sim_instr);
        out["bigcore.ipc"] = ratio(d(instr), d(vanilla_cycles));
        out["meek.check_host_ns_per_instr"] = ratio(meek_ns - vanilla_ns, sim_instr);
        out["meek.residual_host_ns_per_instr"] =
            ratio(meek_ns - vanilla_ns - deu_ns - fabric_ns, sim_instr);
        out["meek.stall_checker_frac"] = ratio(d(stall_checker), d(meek_cycles));
        out["meek.stall_forwarding_frac"] = ratio(d(stall_forwarding), d(meek_cycles));
        out["meek.stall_collecting_frac"] = ratio(d(stall_collecting), d(meek_cycles));
        out["deu.host_ns_per_commit"] = ratio(deu_ns, d(commits) * passes);
        out["deu.packets_per_ki"] = ratio(d(sum.deu.runtime_packets) * 1e3, d(sum.instructions));
        out["deu.status_words_per_ki"] = ratio(d(sum.deu.status_words) * 1e3, d(sum.instructions));
        out["fabric.host_ns_per_packet"] = ratio(fabric_ns, d(packets) * passes);
        out["fabric.transmissions_per_ki"] =
            ratio(d(sum.fabric.transmissions) * 1e3, d(sum.instructions));
        out["fabric.retries_per_ki"] =
            ratio(d(sum.fabric.delivery_retries) * 1e3, d(sum.instructions));
        out["fabric.busy_frac"] = ratio(d(sum.fabric.busy_lo_cycles), d(sum.low_cycles));
        out["littlecore.busy_frac"] = ratio(d(sum.little_busy), d(sum.little_core_cycles));
        out["littlecore.stall_lsl_empty_frac"] = ratio(d(sum.little_lsl_empty), d(sum.little_busy));
        out["littlecore.replay_ratio"] = ratio(d(sum.replayed), d(sum.instructions));
    }

    u64 digest() const override {
        digest_builder h;
        for (const reference& r : refs_) {
            for (const sim::run_outcome* o : {&r.vanilla, &r.meek}) {
                h.add(o->cycles);
                h.add(o->instructions);
                h.add(o->replayed_instructions);
                h.add(o->checker_compute_cycles);
                h.add(o->stats.segments_verified);
                h.add(o->stats.total_stall());
            }
        }
        return h.h;
    }

private:
    struct reference {
        sim::run_outcome vanilla;
        sim::run_outcome meek;
    };

    static bool same(const sim::run_outcome& a, const sim::run_outcome& b) {
        return a.cycles == b.cycles && a.instructions == b.instructions && a.ipc == b.ipc &&
               a.verified_ok == b.verified_ok &&
               a.replayed_instructions == b.replayed_instructions &&
               a.checker_compute_cycles == b.checker_compute_cycles &&
               a.stats.segments_started == b.stats.segments_started &&
               a.stats.segments_verified == b.stats.segments_verified &&
               a.stats.segments_failed == b.stats.segments_failed &&
               a.stats.stall_collecting == b.stats.stall_collecting &&
               a.stats.stall_forwarding == b.stats.stall_forwarding &&
               a.stats.stall_checker == b.stats.stall_checker;
    }

    static bool ipc_consistent(const sim::run_outcome& o) {
        return o.instructions > 0 && o.cycles > 0 &&
               o.ipc == static_cast<double>(o.instructions) / static_cast<double>(o.cycles);
    }

    // One operation per simulation run.
    void check(std::size_t k, const sim::run_outcome& v, const sim::run_outcome& m) {
        if (refs_.size() <= k) refs_.push_back({v, m});  // the warm-up pass
        checks.add(require(ipc_consistent(v), "kernel: vanilla ipc != instructions/cycles") &
                   require(same(v, refs_[k].vanilla), "kernel: vanilla outcome changed"));
        checks.add(require(m.verified_ok, "kernel: meek run not verified (failed segment or SoC error)") &
                   require(ipc_consistent(m), "kernel: meek ipc != instructions/cycles") &
                   require(m.replayed_instructions == m.instructions,
                           "kernel: meek replayed != instructions") &
                   require(same(m, refs_[k].meek), "kernel: meek outcome changed"));
    }

    capture capture_run(std::size_t k) {
        const program& prog = source_.inputs[k].program->prog;
        const soc_config cfg = sim::meek_scenario(4).soc();
        capture c;
        {
            functional_memory memory;
            ooo_core core(cfg.big, memory);
            core.load_program(prog);
            commit_recorder recorder;
            core.run(run_limits{}, &recorder);
            c.commits = std::move(recorder.records);
        }
        meek_soc soc(cfg);
        soc.load_program(prog);
        soc.set_packet_hook([&c](fwd_packet& p) { c.packets.push_back(p); });
        const meek_run_result r = soc.run();
        c.instructions = r.big.instructions;
        c.deu = soc.deu().stats();
        c.fabric = soc.fabric().stats();
        c.low_cycles = (r.big.cycles + r.drain_cycles) / 2;
        const cycle_t little_cycles =
            c.low_cycles * cfg.little.effective_freq_mhz() / cfg.fabric.freq_mhz;
        for (u32 i = 0; i < cfg.num_little_cores; ++i) {
            const little_core_stats& s = soc.little(i).stats();
            c.little_core_cycles += little_cycles;
            c.little_busy += s.busy_cycles;
            c.little_lsl_empty += s.stall_lsl_empty;
            c.replayed += s.replayed_instructions;
        }
        checks.add(require(r.error.empty() && r.verified_ok,
                           "kernel: capture run failed (SoC error or failed segment)") &
                   require(c.commits.size() == c.instructions,
                           "kernel: commit stream length != SoC instructions"));
        return c;
    }

    u64 seed_;
    u64 instructions_;
    cpu_rotation cpus_;
    u64 passes_ = 0;
    pregenerated source_;
    std::vector<reference> refs_;
    std::vector<capture> captures_;
};

}  // namespace

std::unique_ptr<workload> make_kernel(const options& opt) {
    return std::make_unique<kernel_workload>(opt);
}

}  // namespace perfbench

// The benchmark's three workloads. Each stresses a different set of layers:
//
//   kernel   — serial sim::execute of vanilla and meek/f2/opt/4 over four
//              SPEC profiles; bigcore, deu, fabric, littlecore and meek.
//   campaign — run_fault_campaign on the executor over three PARSEC
//              profiles; fault, sched and the SoC with hooks attached.
//   serve    — the golden 50-line batch through a fresh streaming
//              serve::service per pass; workloads, serve and sched.
#pragma once

#include <memory>

#include "bench.h"

namespace perfbench {

std::unique_ptr<workload> make_kernel(const options& opt);
std::unique_ptr<workload> make_campaign(const options& opt);
std::unique_ptr<workload> make_serve(const options& opt);

// nullptr for an unknown workload name.
inline std::unique_ptr<workload> make_workload(const options& opt) {
    if (opt.workload == "kernel") return make_kernel(opt);
    if (opt.workload == "campaign") return make_campaign(opt);
    if (opt.workload == "serve") return make_serve(opt);
    return nullptr;
}

}  // namespace perfbench

#include "sim/scenario.h"

#include <vector>

#include "deu/packet.h"

namespace meek::sim {

const char* system_kind_name(system_kind k) {
    switch (k) {
        case system_kind::vanilla: return "vanilla";
        case system_kind::meek: return "meek";
        case system_kind::ea_lockstep: return "ea-lockstep";
        case system_kind::nzdc: return "nzdc";
    }
    return "?";
}

soc_config scenario::soc() const {
    soc_config cfg;
    if (system == system_kind::meek) {
        cfg.num_little_cores = little_cores;
        cfg.fabric.kind = fabric;
        cfg.little.tuning = tuning;
    }
    return cfg;
}

scenario vanilla_scenario() {
    scenario s;
    s.name = "vanilla";
    s.system = system_kind::vanilla;
    return s;
}

scenario ea_lockstep_scenario() {
    scenario s;
    s.name = "ea-lockstep";
    s.system = system_kind::ea_lockstep;
    return s;
}

scenario nzdc_scenario() {
    scenario s;
    s.name = "nzdc";
    s.system = system_kind::nzdc;
    return s;
}

scenario meek_scenario(u32 little_cores, fabric_kind fabric,
                       little_core_tuning tuning) {
    scenario s;
    s.system = system_kind::meek;
    s.little_cores = little_cores;
    s.fabric = fabric;
    s.tuning = tuning;
    s.name = std::string("meek/") +
             (fabric == fabric_kind::f2 ? "f2" : "axi") + "/" +
             (tuning == little_core_tuning::optimized ? "opt" : "def") + "/" +
             std::to_string(little_cores);
    return s;
}

std::string little_cores_error(u64 little_cores) {
    if (little_cores >= 1 && little_cores <= k_max_little_cores) return {};
    return "cores out of range (1.." + std::to_string(k_max_little_cores) + ")";
}

std::span<const scenario> all_scenarios() {
    static const std::vector<scenario> registry = [] {
        std::vector<scenario> r;
        r.push_back(vanilla_scenario());
        r.push_back(ea_lockstep_scenario());
        r.push_back(nzdc_scenario());
        for (const fabric_kind fabric : {fabric_kind::f2, fabric_kind::axi_interconnect}) {
            for (const little_core_tuning tuning :
                 {little_core_tuning::optimized, little_core_tuning::default_rocket}) {
                for (const u32 cores : {2u, 4u, 6u}) {
                    r.push_back(meek_scenario(cores, fabric, tuning));
                }
            }
        }
        return r;
    }();
    return registry;
}

const scenario* find_scenario(std::string_view name) {
    for (const scenario& s : all_scenarios()) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

}  // namespace meek::sim

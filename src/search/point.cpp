#include "search/point.h"

#include <cstdlib>
#include <unordered_set>

namespace meek::search {
namespace {

// Resolve an axis to its sweep values: an empty axis pins the default.
template <class T>
std::vector<T> axis_or(const std::vector<T>& axis, T fallback) {
    if (!axis.empty()) return axis;
    return {fallback};
}

}  // namespace

bool parameter_grid::empty() const {
    return little_cores.empty() && fabrics.empty() && tunings.empty() &&
           lsl_bytes.empty() && dc_buffer_depths.empty() && div_unrolls.empty() &&
           checker_freq_mhz.empty();
}

std::size_t parameter_grid::combinations() const {
    if (empty()) return 0;
    auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
    return dim(little_cores.size()) * dim(fabrics.size()) * dim(tunings.size()) *
           dim(lsl_bytes.size()) * dim(dc_buffer_depths.size()) *
           dim(div_unrolls.size()) * dim(checker_freq_mhz.size());
}

bool parse_grid_axis(parameter_grid& grid, std::string_view spec, std::string* error) {
    auto fail = [error](std::string why) {
        if (error) *error = std::move(why);
        return false;
    };
    const std::size_t eq = spec.find('=');
    if (eq == std::string_view::npos) return fail("expected key=v1,v2,...");
    const std::string_view key = spec.substr(0, eq);
    const std::string_view values = spec.substr(eq + 1);
    // "--grid fabric=" must not be a no-op
    if (values.empty()) return fail("no values for '" + std::string(key) + "'");

    std::size_t pos = 0;
    while (pos < values.size()) {
        std::size_t comma = values.find(',', pos);
        if (comma == std::string_view::npos) comma = values.size();
        const std::string v(values.substr(pos, comma - pos));
        pos = comma + 1;
        if (key == "fabric") {
            if (v == "f2") {
                grid.fabrics.push_back(fabric_kind::f2);
            } else if (v == "axi") {
                grid.fabrics.push_back(fabric_kind::axi_interconnect);
            } else {
                return fail("unknown fabric '" + v + "' (f2|axi)");
            }
        } else if (key == "tuning") {
            if (v == "opt") {
                grid.tunings.push_back(little_core_tuning::optimized);
            } else if (v == "def") {
                grid.tunings.push_back(little_core_tuning::default_rocket);
            } else {
                return fail("unknown tuning '" + v + "' (opt|def)");
            }
        } else {
            const u64 n = std::strtoull(v.c_str(), nullptr, 10);
            if (key == "cores") {
                if (std::string why = sim::little_cores_error(n); !why.empty()) {
                    return fail(std::move(why));
                }
                grid.little_cores.push_back(static_cast<u32>(n));
            } else if (key == "lsl") {
                grid.lsl_bytes.push_back(static_cast<u32>(n));
            } else if (key == "depth") {
                grid.dc_buffer_depths.push_back(static_cast<u32>(n));
            } else if (key == "unroll") {
                grid.div_unrolls.push_back(static_cast<u32>(n));
            } else if (key == "freq") {
                grid.checker_freq_mhz.push_back(n);
            } else {
                return fail("unknown key '" + std::string(key) +
                            "' (cores, fabric, tuning, lsl, depth, unroll, freq)");
            }
        }
    }
    return true;
}

parameter_grid default_grid() {
    parameter_grid g;
    g.little_cores = {2, 4, 6};
    g.lsl_bytes = {2048, 4096, 8192};
    g.dc_buffer_depths = {8, 16};
    g.checker_freq_mhz = {1600, 2000};
    return g;
}

std::string grid_point_name(const soc_config& cfg) {
    std::string name = "grid/";
    name += cfg.fabric.kind == fabric_kind::f2 ? "f2" : "axi";
    name += cfg.little.tuning == little_core_tuning::optimized ? "/opt/" : "/def/";
    name += std::to_string(cfg.num_little_cores) + "c";
    name += "/lsl" + std::to_string(cfg.little.lsl_bytes);
    name += "/d" + std::to_string(cfg.fabric.dc_buffer_depth);
    name += "/u" + std::to_string(cfg.little.div_unroll());
    name += "/f" + std::to_string(cfg.little.effective_freq_mhz());
    return name;
}

std::vector<design_point> enumerate_points(const parameter_grid& grid,
                                           bool include_registry) {
    std::vector<design_point> points;
    std::unordered_set<u64> seen;  // soc fingerprints of registry MEEK points

    if (include_registry) {
        for (const sim::scenario& sc : sim::all_scenarios()) {
            design_point p;
            p.name = sc.name;
            p.sc = sc;
            p.soc = sc.soc();
            points.push_back(std::move(p));
            if (sc.system == sim::system_kind::meek) {
                seen.insert(soc_config_fingerprint(sc.soc()));
            }
        }
    }

    // Odometer order: the axes below from outermost to innermost, each in its
    // declared value order.
    for (const u32 cores : axis_or(grid.little_cores, 4u)) {
        for (const fabric_kind fabric : axis_or(grid.fabrics, fabric_kind::f2)) {
            for (const little_core_tuning tuning :
                 axis_or(grid.tunings, little_core_tuning::optimized)) {
                for (const u32 lsl : axis_or(grid.lsl_bytes, 4096u)) {
                    for (const u32 depth : axis_or(grid.dc_buffer_depths, 16u)) {
                        for (const u32 unroll : axis_or(grid.div_unrolls, 0u)) {
                            for (const u64 freq :
                                 axis_or<u64>(grid.checker_freq_mhz, 0)) {
                                if (grid.empty()) continue;
                                sim::scenario sc =
                                    sim::meek_scenario(cores, fabric, tuning);
                                soc_config cfg = sc.soc();
                                cfg.little.lsl_bytes = lsl;
                                cfg.fabric.dc_buffer_depth = depth;
                                // Canonicalize: an override equal to the
                                // tuning default is the same machine, and must
                                // fingerprint (and dedupe) as such.
                                const u32 unroll_default =
                                    tuning == little_core_tuning::optimized ? 8u : 1u;
                                cfg.little.div_unroll_override =
                                    unroll == unroll_default ? 0u : unroll;
                                cfg.little.freq_override_mhz =
                                    freq == cfg.little.achievable_freq_mhz() ? 0 : freq;
                                if (!seen.insert(soc_config_fingerprint(cfg)).second) {
                                    continue;  // duplicates a registry point
                                }
                                design_point p;
                                p.name = grid_point_name(cfg);
                                sc.name = p.name;  // outcomes report the grid name
                                p.sc = sc;
                                p.soc = cfg;
                                p.off_registry = true;
                                points.push_back(std::move(p));
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

}  // namespace meek::search

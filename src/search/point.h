// Design-space points: the candidate universe a search explores.
//
// A point is one system under test — either a scenario straight from the sim
// registry (vanilla, ea-lockstep, nzdc, meek/<fabric>/<tuning>/<cores>) or an
// off-registry MEEK configuration produced from a declarative parameter grid
// over the knobs the paper's Secs. III/V tune but the registry does not
// enumerate: LSL size, DC-Buffer (fabric) depth, divider unroll and checker
// clock. `soc` is the exact configuration the driver simulates; for registry
// points it equals `sc.soc()`.
//
// Enumeration is deterministic: registry points in registry order, then grid
// points in fixed odometer order with canonical names
// (`grid/<f2|axi>/<opt|def>/<cores>c/lsl<bytes>/d<depth>/u<unroll>/f<mhz>`),
// so every shard of a sharded search derives the identical point list.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "sim/scenario.h"

namespace meek::search {

struct design_point {
    std::string name;
    sim::scenario sc;  // system kind + registry-level knobs; sc.name == name
    soc_config soc;    // the exact config to simulate
    bool off_registry = false;
};

// Declarative sweep axes for off-registry MEEK points. An empty axis pins the
// Table II default for that knob; the grid is the cross product of the
// non-empty axes. `div_unrolls` holds effective quotient-bits-per-cycle
// values and `checker_freq_mhz` checker-core clocks (0 in either means the
// tuning default; they map to the little_core_config overrides, canonicalized
// so a value equal to the tuning default is the identical machine).
struct parameter_grid {
    std::vector<u32> little_cores;
    std::vector<fabric_kind> fabrics;
    std::vector<little_core_tuning> tunings;
    std::vector<u32> lsl_bytes;
    std::vector<u32> dc_buffer_depths;
    std::vector<u32> div_unrolls;
    std::vector<u64> checker_freq_mhz;

    // True when every axis is empty — such a grid contributes no points
    // (the lone all-defaults combination would just duplicate the registry).
    bool empty() const;
    // Cross-product size (empty axes count as 1); 0 when empty().
    std::size_t combinations() const;
};

// Parse one `key=v1,v2,...` sweep axis and append its values to `grid`.
// Keys: cores, fabric (f2|axi), tuning (opt|def), lsl, depth, unroll, freq.
// Returns false and sets `error` on an unknown key, an empty or unknown value,
// or a core count outside sim::little_cores_error's bound — an out-of-range
// count must never reach the simulator.
bool parse_grid_axis(parameter_grid& grid, std::string_view spec,
                     std::string* error = nullptr);

// The default off-registry sweep around the Table II operating point:
// cores {2,4,6} x LSL {2,4,8} KB x DC-Buffer depth {8,16} x checker clock
// {1.6,2} GHz on the F2 / optimized corner.
parameter_grid default_grid();

// Canonical grid-point name derived from the effective config.
std::string grid_point_name(const soc_config& cfg);

// The candidate universe: every registry scenario (when `include_registry`),
// then every grid combination. Grid points whose soc_config collides with a
// registry scenario's are dropped when the registry is included, so a point
// is never evaluated under two names.
std::vector<design_point> enumerate_points(const parameter_grid& grid,
                                           bool include_registry = true);

}  // namespace meek::search

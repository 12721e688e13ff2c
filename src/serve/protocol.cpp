#include "serve/protocol.h"

#include <istream>

#include "deu/packet.h"
#include "serve/json.h"
#include "sim/executor.h"
#include "workloads/profile.h"

namespace meek::serve {

std::string_view strip_cr(std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
}

bool is_blank_line(std::string_view line) {
    for (const char c : strip_cr(line)) {
        if (c != ' ' && c != '\t') return false;
    }
    return true;
}

batch_read read_batch(std::istream& in, const batch_limits& limits) {
    batch_read out;
    u64 bytes = 0;
    std::string line;
    // getline on a throwing streambuf (a failing transport) sets badbit and
    // swallows the exception by default; in.bad() below catches both that
    // and a streambuf that signalled the error state directly.
    while (std::getline(in, line)) {
        if (is_blank_line(line)) {
            if (out.empty()) continue;  // skip leading blank lines
            break;                      // batch terminator
        }
        const std::string_view stripped = strip_cr(line);
        // Once a cap is crossed every later line of the batch overflows too,
        // so overflow indices stay contiguous at the tail — each becomes one
        // in-slot error row without its content ever being buffered.
        const bool over_lines =
            limits.max_lines != 0 && out.lines.size() >= limits.max_lines;
        const bool over_bytes =
            limits.max_bytes != 0 && bytes + stripped.size() > limits.max_bytes;
        if (out.overflow_lines > 0 || over_lines || over_bytes) {
            ++out.overflow_lines;
            continue;
        }
        bytes += stripped.size();
        out.lines.emplace_back(stripped);
    }
    out.stream_error = in.bad();
    return out;
}

std::vector<std::string> read_batch_lines(std::istream& in) {
    return read_batch(in).lines;
}

namespace {

constexpr int k_ipc_decimals = 6;

// One request fans out into `repeats` jobs (and, on a gateway worker
// failure, `repeats` synthesized error-row slots) — bound it so a single
// line cannot demand an absurd allocation before any simulation starts.
constexpr u64 k_max_repeats = 1'000'000;

bool field_is_string(const json_value& v) { return v.is_string(); }

// A strictly positive integer: -1 must be rejected, not wrapped or defaulted.
bool field_is_uint(const json_value& v) {
    return v.is_unsigned_integer() && v.as_u64(0) != 0;
}

// The "trace" request field: exactly {"trace_id":N(,"span_id":N)}, trace_id
// nonzero. As strict as the outer parser — a typo must not drop a context.
std::string parse_trace_field(const json_value& v, obs::trace_context* out) {
    if (!v.is_object()) return "field 'trace' must be an object";
    for (const auto& [key, value] : v.members()) {
        if (key == "trace_id") {
            if (!field_is_uint(value)) {
                return "field 'trace.trace_id' must be a positive integer";
            }
            out->trace_id = value.as_u64();
        } else if (key == "span_id") {
            if (!value.is_unsigned_integer()) {
                return "field 'trace.span_id' must be a non-negative integer";
            }
            out->span_id = value.as_u64();
        } else {
            return "unknown field 'trace." + key + "'";
        }
    }
    if (out->trace_id == 0) return "field 'trace' requires a nonzero trace_id";
    return "";
}

}  // namespace

parsed_request parse_request(std::string_view line) {
    parsed_request out;
    std::string json_error;
    const std::optional<json_value> doc = json_parse(line, &json_error);
    if (!doc) {
        out.error = "bad json: " + json_error;
        return out;
    }
    if (!doc->is_object()) {
        out.error = "request must be a json object";
        return out;
    }

    run_request& req = out.request;
    for (const auto& [key, value] : doc->members()) {
        if (key == "id") {
            if (!field_is_string(value)) {
                out.error = "field 'id' must be a string";
                return out;
            }
            req.id = value.as_string();
        } else if (key == "scenario") {
            if (!field_is_string(value)) {
                out.error = "field 'scenario' must be a string";
                return out;
            }
            req.scenario = value.as_string();
        } else if (key == "workload") {
            if (!field_is_string(value)) {
                out.error = "field 'workload' must be a string";
                return out;
            }
            req.workload = value.as_string();
        } else if (key == "fabric") {
            if (!field_is_string(value)) {
                out.error = "field 'fabric' must be a string";
                return out;
            }
            req.fabric = value.as_string();
        } else if (key == "tuning") {
            if (!field_is_string(value)) {
                out.error = "field 'tuning' must be a string";
                return out;
            }
            req.tuning = value.as_string();
        } else if (key == "cores") {
            if (!field_is_uint(value)) {
                out.error = "field 'cores' must be a positive integer";
                return out;
            }
            req.cores = value.as_u64();
        } else if (key == "instructions") {
            if (!field_is_uint(value)) {
                out.error = "field 'instructions' must be a positive integer";
                return out;
            }
            req.instructions = value.as_u64();
        } else if (key == "seed") {
            if (!value.is_unsigned_integer()) {
                out.error = "field 'seed' must be a non-negative integer";
                return out;
            }
            req.seed = value.as_u64();
        } else if (key == "repeats") {
            if (!field_is_uint(value)) {
                out.error = "field 'repeats' must be a positive integer";
                return out;
            }
            if (value.as_u64() > k_max_repeats) {
                out.error = "field 'repeats' out of range (1.." +
                            std::to_string(k_max_repeats) + ")";
                return out;
            }
            req.repeats = value.as_u64();
        } else if (key == "trace") {
            obs::trace_context ctx;
            out.error = parse_trace_field(value, &ctx);
            if (!out.error.empty()) return out;
            req.trace = ctx;
        } else {
            out.error = "unknown field '" + key + "'";
            return out;
        }
    }

    if (req.scenario.empty()) {
        out.error = "missing required field 'scenario'";
        return out;
    }
    if (req.workload.empty()) {
        out.error = "missing required field 'workload'";
        return out;
    }
    const bool has_knobs = req.cores || req.fabric || req.tuning;
    if (has_knobs && req.scenario != "meek") {
        out.error = "inline knobs (cores/fabric/tuning) require scenario \"meek\"";
        return out;
    }
    return out;
}

bool parse_stats_request(std::string_view line, std::string* out_id) {
    const std::optional<json_value> doc = json_parse(line);
    if (!doc || !doc->is_object()) return false;
    const json_value* stats = doc->get("stats");
    if (stats == nullptr || !stats->is_bool() || !stats->as_bool()) return false;
    std::string id;
    for (const auto& [key, value] : doc->members()) {
        if (key == "stats") continue;
        if (key == "id" && value.is_string()) {
            id = value.as_string();
            continue;
        }
        return false;  // unknown field: fall through to the strict parser
    }
    if (out_id) *out_id = std::move(id);
    return true;
}

std::string to_json(const run_request& req) {
    json_object_writer w;
    if (!req.id.empty()) w.field("id", req.id);
    w.field("scenario", req.scenario);
    if (req.cores) w.field("cores", *req.cores);
    if (req.fabric) w.field("fabric", *req.fabric);
    if (req.tuning) w.field("tuning", *req.tuning);
    w.field("workload", req.workload);
    w.field("instructions", req.instructions);
    w.field("seed", req.seed);
    if (req.repeats != 1) w.field("repeats", req.repeats);
    if (req.trace) {
        json_object_writer t;
        t.field("trace_id", req.trace->trace_id);
        if (req.trace->span_id != 0) t.field("span_id", req.trace->span_id);
        w.field_raw("trace", t.str());
    }
    return w.str();
}

std::string resolve_request(const run_request& req, u64 repeat, sim::run_spec* out) {
    // Scenario: registry name, or "meek" assembled from the inline knobs.
    if (req.scenario == "meek") {
        u32 cores = 4;
        fabric_kind fabric = fabric_kind::f2;
        little_core_tuning tuning = little_core_tuning::optimized;
        if (req.cores) {
            if (*req.cores == 0 || *req.cores > k_max_little_cores) {
                return "cores out of range (1.." + std::to_string(k_max_little_cores) +
                       ")";
            }
            cores = static_cast<u32>(*req.cores);
        }
        if (req.fabric) {
            if (*req.fabric == "f2") {
                fabric = fabric_kind::f2;
            } else if (*req.fabric == "axi") {
                fabric = fabric_kind::axi_interconnect;
            } else {
                return "unknown fabric '" + *req.fabric + "' (want f2|axi)";
            }
        }
        if (req.tuning) {
            if (*req.tuning == "opt") {
                tuning = little_core_tuning::optimized;
            } else if (*req.tuning == "def") {
                tuning = little_core_tuning::default_rocket;
            } else {
                return "unknown tuning '" + *req.tuning + "' (want opt|def)";
            }
        }
        out->sc = sim::meek_scenario(cores, fabric, tuning);
    } else {
        const sim::scenario* sc = sim::find_scenario(req.scenario);
        if (sc == nullptr) {
            return "unknown scenario '" + req.scenario + "'";
        }
        out->sc = *sc;
    }

    const workload_profile* profile = find_profile(req.workload);
    if (profile == nullptr) {
        return "unknown workload '" + req.workload + "'";
    }
    out->workload = *profile;
    out->instructions = req.instructions;
    // Repeat 0 runs the requested seed itself; later repeats fan out into
    // independent derived streams, so a repeated request samples fresh
    // workload instances deterministically.
    out->workload_seed =
        repeat == 0 ? req.seed : sim::derive_stream_seed(req.seed, repeat);
    return "";
}

std::string to_json(const response_row& row) {
    if (!row.raw.empty()) return row.raw;
    json_object_writer w;
    w.field("request", row.request_index);
    w.field("repeat", row.repeat);
    if (!row.id.empty()) w.field("id", row.id);
    if (row.trace_id != 0) w.field("trace_id", row.trace_id);
    if (!row.error.empty()) {
        w.field("error", row.error);
        if (row.retry_after_ms != 0) w.field("retry_after_ms", row.retry_after_ms);
        return w.str();
    }
    const sim::run_outcome& o = row.outcome;
    w.field("scenario", o.scenario);
    w.field("workload", o.workload);
    w.field("seed", row.seed);
    w.field("cycles", static_cast<u64>(o.cycles));
    w.field("instructions", o.instructions);
    w.field_fixed("ipc", o.ipc, k_ipc_decimals);
    w.field("verified_ok", o.verified_ok);
    w.field("skipped", o.skipped);
    w.field("replayed_instructions", o.replayed_instructions);
    w.field("checker_compute_cycles", static_cast<u64>(o.checker_compute_cycles));
    w.field("stall_collecting", static_cast<u64>(o.stats.stall_collecting));
    w.field("stall_forwarding", static_cast<u64>(o.stats.stall_forwarding));
    w.field("stall_checker", static_cast<u64>(o.stats.stall_checker));
    return w.str();
}

response_row overloaded_row(u64 request_index, u64 retry_after_ms, std::string id) {
    response_row row;
    row.request_index = request_index;
    row.id = std::move(id);
    row.error = "overloaded";
    row.retry_after_ms = retry_after_ms;
    return row;
}

std::optional<response_row> parse_response(std::string_view line, std::string* error) {
    std::string json_error;
    const std::optional<json_value> doc = json_parse(line, &json_error);
    if (!doc || !doc->is_object()) {
        if (error) {
            *error = !doc ? "bad json: " + json_error : "response must be an object";
        }
        return std::nullopt;
    }
    response_row row;
    const json_value* v;
    if ((v = doc->get("request"))) row.request_index = v->as_u64();
    if ((v = doc->get("repeat"))) row.repeat = v->as_u64();
    if ((v = doc->get("id"))) row.id = v->as_string();
    if ((v = doc->get("trace_id"))) row.trace_id = v->as_u64();
    if (doc->get("stats") != nullptr) {
        // A stats row passes through whole: re-serializing it would need the
        // full stats schema, and the gateway only rewrites its index anyway.
        row.raw = std::string(line);
        return row;
    }
    if ((v = doc->get("error"))) {
        row.error = v->as_string();
        if ((v = doc->get("retry_after_ms"))) row.retry_after_ms = v->as_u64();
        return row;
    }
    if ((v = doc->get("scenario"))) row.outcome.scenario = v->as_string();
    if ((v = doc->get("workload"))) row.outcome.workload = v->as_string();
    if ((v = doc->get("seed"))) row.seed = v->as_u64();
    if ((v = doc->get("cycles"))) row.outcome.cycles = v->as_u64();
    if ((v = doc->get("instructions"))) row.outcome.instructions = v->as_u64();
    if ((v = doc->get("ipc"))) row.outcome.ipc = v->as_double();
    if ((v = doc->get("verified_ok"))) row.outcome.verified_ok = v->as_bool();
    if ((v = doc->get("skipped"))) row.outcome.skipped = v->as_bool();
    if ((v = doc->get("replayed_instructions"))) {
        row.outcome.replayed_instructions = v->as_u64();
    }
    if ((v = doc->get("checker_compute_cycles"))) {
        row.outcome.checker_compute_cycles = v->as_u64();
    }
    if ((v = doc->get("stall_collecting"))) {
        row.outcome.stats.stall_collecting = v->as_u64();
    }
    if ((v = doc->get("stall_forwarding"))) {
        row.outcome.stats.stall_forwarding = v->as_u64();
    }
    if ((v = doc->get("stall_checker"))) {
        row.outcome.stats.stall_checker = v->as_u64();
    }
    return row;
}

}  // namespace meek::serve

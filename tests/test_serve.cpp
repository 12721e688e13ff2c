// Serve-layer tests: JSON reader/writer round-trips, request/response wire
// protocol (including malformed-request error paths), the content-addressed
// workload cache (hit/miss accounting, LRU bounds, cache-on/off outcome
// equivalence), and batch service determinism across thread counts.
//
// The fuzz/property section hardens the JSON layer: seeded-random round-trip
// properties over generated request/response/value trees (integer-exact,
// escapes, nesting) and a malformed-input corpus (tests/data/json_corpus/)
// that must parse-fail cleanly — no crash, no partial row. The concurrency
// section hammers serve::outcome_cache from many threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "serve/json.h"
#include "serve/outcome_cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/workload_cache.h"
#include "workloads/generator.h"

namespace meek {
namespace {

// ------------------------------------------------------------------- json ---

TEST(serve_json, parses_scalars_arrays_and_nested_objects) {
    const auto doc = serve::json_parse(
        R"({"s":"a\"b\\c\n","u":18446744073709551615,"neg":-42,"d":1.5e3,)"
        R"("t":true,"f":false,"z":null,"arr":[1,2,3],"obj":{"k":"v"}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->get("s")->as_string(), "a\"b\\c\n");
    EXPECT_EQ(doc->get("u")->as_u64(), 18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(doc->get("neg")->as_double(), -42.0);
    EXPECT_DOUBLE_EQ(doc->get("d")->as_double(), 1500.0);
    EXPECT_TRUE(doc->get("t")->as_bool());
    EXPECT_FALSE(doc->get("f")->as_bool(true));
    EXPECT_TRUE(doc->get("z")->is_null());
    ASSERT_TRUE(doc->get("arr")->is_array());
    EXPECT_EQ(doc->get("arr")->items().size(), 3u);
    EXPECT_EQ(doc->get("arr")->items()[2].as_u64(), 3u);
    EXPECT_EQ(doc->get("obj")->get("k")->as_string(), "v");
    EXPECT_EQ(doc->get("missing"), nullptr);
}

TEST(serve_json, rejects_malformed_documents_with_an_offset) {
    for (const char* bad : {"{", "{\"a\":}", "[1,]", "\"unterminated", "{'a':1}",
                            "01x", "{\"a\":1} trailing", "nul", "1.e5", "--3",
                            "{\"a\" 1}", "\"bad\\qescape\""}) {
        std::string error;
        EXPECT_FALSE(serve::json_parse(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
        EXPECT_NE(error.find("offset"), std::string::npos) << bad;
    }
}

TEST(serve_json, integers_round_trip_exactly_through_writer_and_parser) {
    serve::json_object_writer w;
    w.field("cycles", u64{18446744073709551615ULL});
    w.field("count", u64{1234567890123456789ULL});
    w.field("ok", true);
    w.field("name", "x\"y");
    w.field_fixed("ipc", 1.25, 6);
    const std::string line = w.str();
    const auto doc = serve::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->get("cycles")->as_u64(), 18446744073709551615ULL);
    EXPECT_EQ(doc->get("count")->as_u64(), 1234567890123456789ULL);
    EXPECT_TRUE(doc->get("ok")->as_bool());
    EXPECT_EQ(doc->get("name")->as_string(), "x\"y");
    EXPECT_DOUBLE_EQ(doc->get("ipc")->as_double(), 1.25);
}

// ----------------------------------------------------- json property/fuzz ---

// Deterministic generator state shared by the property tests: mt19937_64 is
// fully specified by the standard, so every platform fuzzes the same inputs.
using fuzz_rng = std::mt19937_64;

u64 rand_u64(fuzz_rng& rng) { return rng(); }

u64 rand_extreme_u64(fuzz_rng& rng) {
    switch (rng() % 5) {
        case 0: return 1;
        case 1: return 0xFFFFFFFFFFFFFFFFull;
        case 2: return 0x8000000000000000ull;
        case 3: return rng() % 1000;
        default: return rng();
    }
}

// For wire fields validated as strictly positive (instructions, repeats, ...).
u64 rand_positive_u64(fuzz_rng& rng) {
    const u64 v = rand_extreme_u64(rng);
    return v == 0 ? 1 : v;
}

// Strings that stress every escape path: quotes, backslashes, control bytes,
// multi-byte UTF-8, and JSON-looking metacharacters.
std::string rand_string(fuzz_rng& rng, std::size_t max_len) {
    static const char* const atoms[] = {
        "a", "Z", "7", " ", "\"", "\\", "\n", "\r", "\t", "\b", "\f",
        "\x01", "\x1f", "{", "}", "[", "]", ":", ",", "\xC3\xA9", "\xE2\x82\xAC",
        "\\u0041", "error\":", "null",
    };
    const std::size_t len = rng() % (max_len + 1);
    std::string out;
    for (std::size_t i = 0; i < len; ++i) {
        out += atoms[rng() % (sizeof atoms / sizeof atoms[0])];
    }
    return out;
}

// Finite doubles across many magnitudes, deterministic across platforms.
double rand_double(fuzz_rng& rng) {
    const double mantissa =
        static_cast<double>(rng() >> 11) / static_cast<double>(1ull << 53);
    const int exponent = static_cast<int>(rng() % 61) - 30;
    const double d = std::ldexp(mantissa + 0.5, exponent);
    return (rng() % 2 == 0) ? d : -d;
}

// A random JSON value tree of bounded depth; at depth 0 only scalars.
serve::json_value rand_json_value(fuzz_rng& rng, int depth) {
    const u64 pick = rng() % (depth > 0 ? 8 : 6);
    switch (pick) {
        case 0: return serve::json_value::make_null();
        case 1: return serve::json_value::make_bool(rng() % 2 == 0);
        case 2: return serve::json_value::make_unsigned(rand_extreme_u64(rng));
        case 3: {
            const u64 mag = rng();
            return serve::json_value::make_integer(
                mag > static_cast<u64>(INT64_MAX)
                    ? INT64_MIN + static_cast<i64>(mag % 1000)
                    : -static_cast<i64>(mag % 0x7FFFFFFFFFFFFFFFll));
        }
        case 4: return serve::json_value::make_number(rand_double(rng));
        case 5: return serve::json_value::make_string(rand_string(rng, 12));
        case 6: {
            serve::json_value arr = serve::json_value::make_array();
            const std::size_t n = rng() % 4;
            for (std::size_t i = 0; i < n; ++i) {
                arr.push_back(rand_json_value(rng, depth - 1));
            }
            return arr;
        }
        default: {
            serve::json_value obj = serve::json_value::make_object();
            const std::size_t n = rng() % 4;
            for (std::size_t i = 0; i < n; ++i) {
                obj.set(rand_string(rng, 8), rand_json_value(rng, depth - 1));
            }
            return obj;
        }
    }
}

// Structural equality after a round-trip. Numbers compare through the typed
// views: unsigned integers bit-exact via as_u64, everything else via the
// double view (which both sides derive the same way from the printed text).
bool json_equal(const serve::json_value& a, const serve::json_value& b) {
    if (a.kind() != b.kind()) return false;
    switch (a.kind()) {
        case serve::json_kind::null:
            return true;
        case serve::json_kind::boolean:
            return a.as_bool() == b.as_bool();
        case serve::json_kind::number:
            if (a.is_integer() != b.is_integer()) return false;
            if (a.is_integer()) {
                // Bit-exact for the full 64-bit range, both signs.
                return a.is_unsigned_integer() == b.is_unsigned_integer() &&
                       a.integer_magnitude() == b.integer_magnitude();
            }
            return a.as_double() == b.as_double();
        case serve::json_kind::string:
            return a.as_string() == b.as_string();
        case serve::json_kind::array: {
            if (a.items().size() != b.items().size()) return false;
            for (std::size_t i = 0; i < a.items().size(); ++i) {
                if (!json_equal(a.items()[i], b.items()[i])) return false;
            }
            return true;
        }
        case serve::json_kind::object: {
            if (a.members().size() != b.members().size()) return false;
            for (std::size_t i = 0; i < a.members().size(); ++i) {
                if (a.members()[i].first != b.members()[i].first) return false;
                if (!json_equal(a.members()[i].second, b.members()[i].second)) {
                    return false;
                }
            }
            return true;
        }
    }
    return false;
}

TEST(serve_json_property, generated_value_trees_round_trip_exactly) {
    fuzz_rng rng(0xA11CE);
    for (int iter = 0; iter < 500; ++iter) {
        const serve::json_value value = rand_json_value(rng, 5);
        const std::string text = serve::json_dump(value);
        std::string error;
        const auto back = serve::json_parse(text, &error);
        ASSERT_TRUE(back.has_value()) << text << " -> " << error;
        EXPECT_TRUE(json_equal(value, *back)) << text;
        // And the dump of the parse is a fixed point: bytes are stable after
        // one round, which is what lets rows be diffed across processes.
        EXPECT_EQ(serve::json_dump(*back), text);
    }
}

TEST(serve_json_property, integral_doubles_and_extreme_integers_keep_their_kind) {
    // 2.0 must not collapse into the integer 2 on the wire, and 64-bit
    // integers of both signs must survive bit-exactly.
    const auto two = serve::json_parse(serve::json_dump(serve::json_value::make_number(2.0)));
    ASSERT_TRUE(two.has_value());
    EXPECT_TRUE(two->is_number());
    EXPECT_FALSE(two->is_integer()) << "2.0 must stay a non-integer number";
    EXPECT_DOUBLE_EQ(two->as_double(), 2.0);

    for (const i64 v : {i64{0} - INT64_MAX, INT64_MIN, i64{-1}, i64{-4503599627370497}}) {
        const serve::json_value orig = serve::json_value::make_integer(v);
        const auto back = serve::json_parse(serve::json_dump(orig));
        ASSERT_TRUE(back.has_value()) << v;
        EXPECT_TRUE(back->is_integer()) << v;
        EXPECT_EQ(back->integer_magnitude(), orig.integer_magnitude()) << v;
    }
    const serve::json_value umax = serve::json_value::make_unsigned(~u64{0});
    EXPECT_EQ(serve::json_dump(umax), "18446744073709551615");
}

TEST(serve_json_property, escape_torture_strings_round_trip) {
    fuzz_rng rng(0xE5CA9E);
    for (int iter = 0; iter < 300; ++iter) {
        const std::string s = rand_string(rng, 40);
        const std::string quoted = "\"" + serve::json_escape(s) + "\"";
        const auto back = serve::json_parse(quoted);
        ASSERT_TRUE(back.has_value()) << quoted;
        EXPECT_EQ(back->as_string(), s) << quoted;
    }
}

TEST(serve_protocol_property, generated_requests_round_trip_through_wire_form) {
    fuzz_rng rng(0xF00D);
    static const char* const scenarios[] = {
        "vanilla", "nzdc", "ea-lockstep", "meek/f2/opt/4", "meek/axi/def/2", "meek",
    };
    for (int iter = 0; iter < 400; ++iter) {
        serve::run_request req;
        req.id = rand_string(rng, 10);
        req.scenario = scenarios[rng() % 6];
        if (req.scenario == "meek") {
            // Inline knobs are only legal with the literal "meek" scenario;
            // parse does not validate their values (resolve does), so any
            // token must survive the wire.
            if (rng() % 2) req.cores = rand_positive_u64(rng);
            if (rng() % 2) req.fabric = rand_string(rng, 6) + "f";
            if (rng() % 2) req.tuning = rand_string(rng, 6) + "t";
        }
        req.workload = rand_string(rng, 8) + "w";  // non-empty: required field
        req.instructions = rand_positive_u64(rng);
        req.seed = rand_u64(rng);
        req.repeats = 1 + rng() % 1'000'000;  // the wire caps repeats at 1e6

        const std::string line = serve::to_json(req);
        const serve::parsed_request back = serve::parse_request(line);
        ASSERT_TRUE(back.ok()) << line << " -> " << back.error;
        EXPECT_EQ(back.request.id, req.id) << line;
        EXPECT_EQ(back.request.scenario, req.scenario) << line;
        EXPECT_EQ(back.request.cores, req.cores) << line;
        EXPECT_EQ(back.request.fabric, req.fabric) << line;
        EXPECT_EQ(back.request.tuning, req.tuning) << line;
        EXPECT_EQ(back.request.workload, req.workload) << line;
        EXPECT_EQ(back.request.instructions, req.instructions) << line;
        EXPECT_EQ(back.request.seed, req.seed) << line;
        EXPECT_EQ(back.request.repeats, req.repeats) << line;
    }
}

TEST(serve_protocol_property, generated_response_rows_round_trip) {
    fuzz_rng rng(0xB0B);
    for (int iter = 0; iter < 400; ++iter) {
        serve::response_row row;
        row.request_index = rand_extreme_u64(rng);
        row.repeat = rng() % 16;
        row.id = rand_string(rng, 10);
        if (rng() % 4 == 0) {
            row.error = rand_string(rng, 20) + "!";
        } else {
            row.seed = rand_u64(rng);
            row.outcome.scenario = rand_string(rng, 8) + "s";
            row.outcome.workload = rand_string(rng, 8) + "w";
            row.outcome.cycles = rand_extreme_u64(rng);
            row.outcome.instructions = rand_extreme_u64(rng);
            row.outcome.ipc = std::abs(rand_double(rng));
            row.outcome.verified_ok = rng() % 2 == 0;
            row.outcome.skipped = rng() % 2 == 0;
            row.outcome.replayed_instructions = rand_extreme_u64(rng);
            row.outcome.checker_compute_cycles = rand_extreme_u64(rng);
            row.outcome.stats.stall_collecting = rand_extreme_u64(rng);
            row.outcome.stats.stall_forwarding = rand_extreme_u64(rng);
            row.outcome.stats.stall_checker = rand_extreme_u64(rng);
        }

        const std::string line = serve::to_json(row);
        const auto back = serve::parse_response(line);
        ASSERT_TRUE(back.has_value()) << line;
        EXPECT_EQ(back->request_index, row.request_index) << line;
        EXPECT_EQ(back->repeat, row.repeat) << line;
        EXPECT_EQ(back->id, row.id) << line;
        EXPECT_EQ(back->error, row.error) << line;
        if (!row.error.empty()) continue;  // error rows carry no outcome
        EXPECT_EQ(back->seed, row.seed) << line;
        EXPECT_EQ(back->outcome.scenario, row.outcome.scenario) << line;
        EXPECT_EQ(back->outcome.workload, row.outcome.workload) << line;
        EXPECT_EQ(back->outcome.cycles, row.outcome.cycles) << line;
        EXPECT_EQ(back->outcome.instructions, row.outcome.instructions) << line;
        EXPECT_EQ(back->outcome.verified_ok, row.outcome.verified_ok) << line;
        EXPECT_EQ(back->outcome.skipped, row.outcome.skipped) << line;
        EXPECT_EQ(back->outcome.replayed_instructions,
                  row.outcome.replayed_instructions)
            << line;
        EXPECT_EQ(back->outcome.checker_compute_cycles,
                  row.outcome.checker_compute_cycles)
            << line;
        EXPECT_EQ(back->outcome.stats.stall_collecting,
                  row.outcome.stats.stall_collecting)
            << line;
        // ipc travels as fixed 6-decimal text; compare at that precision.
        char want[64], got[64];
        std::snprintf(want, sizeof want, "%.6f", row.outcome.ipc);
        std::snprintf(got, sizeof got, "%.6f", back->outcome.ipc);
        EXPECT_STREQ(got, want) << line;
    }
}

TEST(serve_json_fuzz, malformed_corpus_fails_cleanly_with_no_partial_rows) {
    const std::filesystem::path corpus_dir =
        std::filesystem::path(MEEK_DATA_DIR) / "json_corpus";
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 5u) << "corpus missing from " << corpus_dir;

    int cases = 0;
    for (const auto& path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;  // separators in the corpus files
            ++cases;
            std::string error;
            EXPECT_FALSE(serve::json_parse(line, &error).has_value())
                << path << ": " << line;
            EXPECT_FALSE(error.empty()) << path << ": " << line;
            // No partial row: the request parser must reject it outright,
            // never hand back a half-filled request.
            const serve::parsed_request parsed = serve::parse_request(line);
            EXPECT_FALSE(parsed.ok()) << path << ": " << line;
            EXPECT_FALSE(parsed.error.empty()) << path << ": " << line;
        }
    }
    EXPECT_GE(cases, 40) << "corpus unexpectedly thin";
}

TEST(serve_json_fuzz, mutated_valid_rows_never_crash_the_parser) {
    // Flip/insert/delete bytes of well-formed rows; the parser must either
    // parse (some mutations stay valid) or fail with an error — not crash.
    fuzz_rng rng(0xDEAD);
    serve::run_request req;
    req.id = "mutate-me";
    req.scenario = "meek/f2/opt/4";
    req.workload = "hmmer";
    const std::string base = serve::to_json(req);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string line = base;
        const int edits = 1 + static_cast<int>(rng() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = rng() % line.size();
            switch (rng() % 3) {
                case 0: line[pos] = static_cast<char>(rng() % 256); break;
                case 1: line.insert(pos, 1, static_cast<char>(rng() % 256)); break;
                default: line.erase(pos, 1); break;
            }
            if (line.empty()) line = "x";
        }
        std::string error;
        const auto doc = serve::json_parse(line, &error);
        if (!doc) {
            EXPECT_FALSE(error.empty()) << line;
        }
        (void)serve::parse_request(line);  // must not crash either way
    }
}

// --------------------------------------------------------------- protocol ---

TEST(serve_protocol, request_round_trips_through_wire_form) {
    serve::run_request req;
    req.id = "tag-1";
    req.scenario = "meek";
    req.cores = 6;
    req.fabric = "axi";
    req.tuning = "def";
    req.workload = "swaptions";
    req.instructions = 44'000;
    req.seed = 99;
    req.repeats = 3;

    const serve::parsed_request back = serve::parse_request(serve::to_json(req));
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(back.request.id, req.id);
    EXPECT_EQ(back.request.scenario, req.scenario);
    EXPECT_EQ(back.request.cores, req.cores);
    EXPECT_EQ(back.request.fabric, req.fabric);
    EXPECT_EQ(back.request.tuning, req.tuning);
    EXPECT_EQ(back.request.workload, req.workload);
    EXPECT_EQ(back.request.instructions, req.instructions);
    EXPECT_EQ(back.request.seed, req.seed);
    EXPECT_EQ(back.request.repeats, req.repeats);
}

TEST(serve_protocol, malformed_requests_are_rejected_with_reasons) {
    const std::vector<std::pair<const char*, const char*>> cases = {
        {"not json", "bad json"},
        {"[1,2]", "must be a json object"},
        {R"({"scenario":"vanilla"})", "missing required field 'workload'"},
        {R"({"workload":"hmmer"})", "missing required field 'scenario'"},
        {R"({"scenario":"vanilla","workload":"hmmer","typo":1})", "unknown field"},
        {R"({"scenario":"vanilla","workload":"hmmer","instructions":0})",
         "positive integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","repeats":"two"})",
         "positive integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","repeats":-1})",
         "positive integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","repeats":1000001})",
         "out of range"},
        {R"({"scenario":"vanilla","workload":"hmmer","instructions":-5})",
         "positive integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","seed":-3})",
         "non-negative integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","seed":1.5})", "integer"},
        {R"({"scenario":"vanilla","workload":"hmmer","cores":2})",
         "require scenario \"meek\""},
        {R"({"scenario":5,"workload":"hmmer"})", "must be a string"},
    };
    for (const auto& [line, want] : cases) {
        const serve::parsed_request parsed = serve::parse_request(line);
        EXPECT_FALSE(parsed.ok()) << line;
        EXPECT_NE(parsed.error.find(want), std::string::npos)
            << line << " -> " << parsed.error;
    }
}

TEST(serve_protocol, resolve_covers_registry_names_inline_knobs_and_failures) {
    serve::run_request req;
    req.scenario = "meek/axi/def/6";
    req.workload = "hmmer";
    sim::run_spec spec;
    EXPECT_EQ(serve::resolve_request(req, 0, &spec), "");
    EXPECT_EQ(spec.sc.name, "meek/axi/def/6");
    EXPECT_EQ(spec.workload.name, "hmmer");
    EXPECT_EQ(spec.workload_seed, req.seed);

    // Repeat >0 derives a fresh stream from the request seed.
    EXPECT_EQ(serve::resolve_request(req, 2, &spec), "");
    EXPECT_EQ(spec.workload_seed, sim::derive_stream_seed(req.seed, 2));

    serve::run_request inline_req;
    inline_req.scenario = "meek";
    inline_req.cores = 2;
    inline_req.fabric = "axi";
    inline_req.workload = "mcf";
    EXPECT_EQ(serve::resolve_request(inline_req, 0, &spec), "");
    EXPECT_EQ(spec.sc.name, "meek/axi/opt/2");

    serve::run_request bad = req;
    bad.scenario = "meek/f3/opt/4";
    EXPECT_NE(serve::resolve_request(bad, 0, &spec).find("unknown scenario"),
              std::string::npos);
    bad = req;
    bad.workload = "doom";
    EXPECT_NE(serve::resolve_request(bad, 0, &spec).find("unknown workload"),
              std::string::npos);
    bad = req;
    bad.scenario = "meek";
    bad.fabric = "pcie";
    EXPECT_NE(serve::resolve_request(bad, 0, &spec).find("unknown fabric"),
              std::string::npos);
}

TEST(serve_protocol, response_rows_round_trip_including_error_rows) {
    serve::response_row row;
    row.request_index = 7;
    row.repeat = 2;
    row.id = "cli";
    row.seed = 1234;
    row.outcome.scenario = "meek/f2/opt/4";
    row.outcome.workload = "hmmer";
    row.outcome.cycles = 123'456'789'012ULL;
    row.outcome.instructions = 20'000;
    row.outcome.ipc = 1.5;
    row.outcome.verified_ok = true;
    row.outcome.replayed_instructions = 19'000;
    row.outcome.checker_compute_cycles = 88;
    row.outcome.stats.stall_forwarding = 17;

    const auto back = serve::parse_response(serve::to_json(row));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->request_index, 7u);
    EXPECT_EQ(back->repeat, 2u);
    EXPECT_EQ(back->id, "cli");
    EXPECT_EQ(back->seed, 1234u);
    EXPECT_EQ(back->outcome.scenario, row.outcome.scenario);
    EXPECT_EQ(back->outcome.cycles, row.outcome.cycles);
    EXPECT_EQ(back->outcome.instructions, row.outcome.instructions);
    EXPECT_DOUBLE_EQ(back->outcome.ipc, 1.5);
    EXPECT_TRUE(back->outcome.verified_ok);
    EXPECT_EQ(back->outcome.replayed_instructions, 19'000u);
    EXPECT_EQ(back->outcome.checker_compute_cycles, 88u);
    EXPECT_EQ(back->outcome.stats.stall_forwarding, 17u);

    serve::response_row err_row;
    err_row.request_index = 3;
    err_row.error = "unknown workload 'doom'";
    const auto err_back = serve::parse_response(serve::to_json(err_row));
    ASSERT_TRUE(err_back.has_value());
    EXPECT_EQ(err_back->request_index, 3u);
    EXPECT_EQ(err_back->error, "unknown workload 'doom'");

    std::string parse_error;
    EXPECT_FALSE(serve::parse_response("garbage", &parse_error).has_value());
    EXPECT_FALSE(parse_error.empty());
}

// ------------------------------------------------------------------ cache ---

TEST(workload_cache, counts_hits_misses_and_shares_one_generation) {
    serve::workload_cache cache(8);
    const workload_profile& p = *find_profile("hmmer");

    const auto a = cache.workload_for(p, 10'000, 1);
    const auto b = cache.workload_for(p, 10'000, 1);
    const auto c = cache.workload_for(p, 10'000, 2);  // different seed: miss
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get()) << "same key must return the same program";
    EXPECT_NE(a.get(), c.get());

    const serve::workload_cache_stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_DOUBLE_EQ(s.hit_rate(), 1.0 / 3.0);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(workload_cache, is_content_addressed_not_name_addressed) {
    const workload_profile& base = *find_profile("hmmer");
    workload_profile tweaked = base;
    tweaked.div_frac += 0.01;  // same name, different generated program

    EXPECT_NE(profile_fingerprint(base), profile_fingerprint(tweaked));

    serve::workload_cache cache(8);
    const auto a = cache.workload_for(base, 10'000, 1);
    const auto b = cache.workload_for(tweaked, 10'000, 1);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u) << "tweaked profile must not hit stale entry";
}

TEST(workload_cache, lru_eviction_keeps_recently_used_entries) {
    serve::workload_cache cache(2);
    const workload_profile& p = *find_profile("hmmer");

    cache.workload_for(p, 10'000, 1);  // miss -> {1}
    cache.workload_for(p, 10'000, 2);  // miss -> {2,1}
    cache.workload_for(p, 10'000, 1);  // hit  -> {1,2}
    cache.workload_for(p, 10'000, 3);  // miss, evicts 2 -> {3,1}
    cache.workload_for(p, 10'000, 1);  // hit (survived as MRU)
    cache.workload_for(p, 10'000, 2);  // miss (was evicted)

    const serve::workload_cache_stats s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(workload_cache, capacity_zero_disables_caching_but_still_counts) {
    serve::workload_cache cache(0);
    const workload_profile& p = *find_profile("hmmer");
    const auto a = cache.workload_for(p, 10'000, 1);
    const auto b = cache.workload_for(p, 10'000, 1);
    ASSERT_NE(a, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

TEST(workload_cache, cached_program_is_identical_to_direct_generation) {
    serve::workload_cache cache(4);
    const workload_profile& p = *find_profile("swaptions");
    const auto cached = cache.workload_for(p, 12'000, 9);
    const generated_workload direct = generate_workload(p, 12'000, 9);
    ASSERT_EQ(cached->prog.text.size(), direct.prog.text.size());
    for (std::size_t i = 0; i < direct.prog.text.size(); ++i) {
        EXPECT_EQ(cached->prog.text[i], direct.prog.text[i]) << "instr " << i;
    }
    EXPECT_EQ(cached->expected_dynamic_instructions,
              direct.expected_dynamic_instructions);
}

// ---------------------------------------------------------- outcome cache ---

sim::run_spec quick_spec(const char* scenario, const char* workload,
                         u64 instructions = 8'000, u64 seed = 3) {
    sim::run_spec spec;
    spec.sc = *sim::find_scenario(scenario);
    spec.workload = *find_profile(workload);
    spec.instructions = instructions;
    spec.workload_seed = seed;
    return spec;
}

void expect_same_outcome(const sim::run_outcome& a, const sim::run_outcome& b) {
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.replayed_instructions, b.replayed_instructions);
}

TEST(outcome_cache, repeated_specs_simulate_once_and_match_direct_execution) {
    serve::outcome_cache cache(8);
    const sim::run_spec spec = quick_spec("meek/f2/opt/2", "hmmer");
    const sim::run_outcome first = cache.outcome_for(spec);
    const sim::run_outcome second = cache.outcome_for(spec);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    expect_same_outcome(first, second);
    expect_same_outcome(first, sim::execute(spec));
}

TEST(outcome_cache, keys_on_content_and_patches_names_per_spec) {
    serve::outcome_cache cache(8);
    // The same physical experiment under two names: a grid-style alias of a
    // registry scenario must hit the cached entry yet report its own name.
    sim::run_spec registry = quick_spec("meek/f2/opt/4", "hmmer");
    sim::run_spec alias = registry;
    alias.sc.name = "grid/alias-of-f2-opt-4";
    alias.soc_override = registry.sc.soc();

    const sim::run_outcome a = cache.outcome_for(registry);
    const sim::run_outcome b = cache.outcome_for(alias);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(a.scenario, "meek/f2/opt/4");
    EXPECT_EQ(b.scenario, "grid/alias-of-f2-opt-4");
    EXPECT_EQ(a.cycles, b.cycles);

    // Any knob difference is a different key.
    sim::run_spec deeper = registry;
    soc_config cfg = registry.sc.soc();
    cfg.fabric.dc_buffer_depth = 8;
    deeper.soc_override = cfg;
    cache.outcome_for(deeper);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(outcome_cache, capacity_zero_disables_caching_but_still_counts) {
    serve::outcome_cache cache(0);
    const sim::run_spec spec = quick_spec("vanilla", "hmmer", 6'000);
    expect_same_outcome(cache.outcome_for(spec), cache.outcome_for(spec));
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(outcome_cache, lru_evicts_the_coldest_entry) {
    serve::outcome_cache cache(2);
    const sim::run_spec a = quick_spec("vanilla", "hmmer", 6'000, 1);
    const sim::run_spec b = quick_spec("vanilla", "hmmer", 6'000, 2);
    const sim::run_spec c = quick_spec("vanilla", "hmmer", 6'000, 3);
    cache.outcome_for(a);
    cache.outcome_for(b);
    cache.outcome_for(a);  // touch: b is now coldest
    cache.outcome_for(c);  // evicts b
    EXPECT_EQ(cache.stats().evictions, 1u);
    cache.outcome_for(a);
    EXPECT_EQ(cache.stats().hits, 2u);
    cache.outcome_for(b);
    EXPECT_EQ(cache.stats().misses, 4u) << "evicted entry re-simulates";
}

// ---------------------------------------------------------------- service ---

std::vector<std::string> mixed_batch() {
    std::vector<std::string> lines;
    for (const char* w : {"hmmer", "blackscholes"}) {
        for (const char* s :
             {"vanilla", "meek/f2/opt/4", "meek/f2/opt/2", "meek/axi/def/4"}) {
            lines.push_back(std::string(R"({"scenario":")") + s +
                            R"(","workload":")" + w +
                            R"(","instructions":8000,"seed":3})");
        }
    }
    return lines;
}

std::string rows_to_text(const std::vector<serve::response_row>& rows) {
    std::string out;
    for (const serve::response_row& row : rows) {
        out += serve::to_json(row);
        out += '\n';
    }
    return out;
}

TEST(serve_service, batches_are_byte_identical_across_thread_counts) {
    const std::vector<std::string> lines = mixed_batch();
    serve::service one({.threads = 1});
    serve::service four({.threads = 4});
    const std::string a = rows_to_text(one.evaluate(lines));
    const std::string b = rows_to_text(four.evaluate(lines));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(serve_service, cache_on_and_off_produce_identical_outcomes) {
    const std::vector<std::string> lines = mixed_batch();
    serve::service cached({.threads = 2, .cache_capacity = 32});
    serve::service uncached({.threads = 2, .cache_capacity = 0});
    EXPECT_EQ(rows_to_text(cached.evaluate(lines)),
              rows_to_text(uncached.evaluate(lines)));
    // 8 jobs over 2 distinct (profile, instructions, seed) points.
    EXPECT_EQ(cached.cache().stats().misses, 2u);
    EXPECT_EQ(cached.cache().stats().hits, 6u);
    EXPECT_EQ(uncached.cache().stats().hits, 0u);
}

TEST(serve_service, duplicate_requests_are_served_from_the_outcome_cache) {
    std::vector<std::string> lines = mixed_batch();
    const std::vector<std::string> dupes = lines;
    lines.insert(lines.end(), dupes.begin(), dupes.end());  // every line twice

    serve::service cached({.threads = 2});
    serve::service uncached({.threads = 2, .outcome_capacity = 0});
    EXPECT_EQ(rows_to_text(cached.evaluate(lines)),
              rows_to_text(uncached.evaluate(lines)));
    EXPECT_EQ(cached.outcomes().stats().misses, 8u);
    EXPECT_EQ(cached.outcomes().stats().hits, 8u)
        << "the duplicate half of the batch must not re-simulate";
    EXPECT_EQ(uncached.outcomes().stats().hits, 0u);
}

TEST(serve_service, error_rows_keep_their_slot_and_good_requests_still_run) {
    std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})",
        R"(}{ not json)",
        R"({"scenario":"vanilla","workload":"doom"})",
        R"({"id":"ok2","scenario":"meek/f2/opt/2","workload":"hmmer","instructions":6000})",
        "",  // evaluate() does no framing: a blank element is a request slot
    };
    serve::service svc({.threads = 2});
    serve::batch_stats stats;
    const std::vector<serve::response_row> rows = svc.evaluate(lines, &stats);
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_TRUE(rows[0].error.empty());
    EXPECT_EQ(rows[0].outcome.scenario, "vanilla");
    EXPECT_EQ(rows[1].request_index, 1u);
    EXPECT_NE(rows[1].error.find("bad json"), std::string::npos);
    EXPECT_NE(rows[2].error.find("unknown workload"), std::string::npos);
    EXPECT_TRUE(rows[3].error.empty());
    EXPECT_EQ(rows[3].id, "ok2");
    EXPECT_GT(rows[3].outcome.cycles, 0u);
    EXPECT_EQ(rows[4].request_index, 4u);
    EXPECT_FALSE(rows[4].error.empty());
    EXPECT_EQ(stats.requests, 5u);
    EXPECT_EQ(stats.rows, 5u);
    EXPECT_EQ(stats.errors, 3u);
    EXPECT_EQ(stats.jobs, 2u);
}

TEST(serve_service, cores_beyond_the_destination_mask_are_an_in_slot_error) {
    // A status multicast addresses each little core by one dest_mask_t bit,
    // so the protocol refuses more cores than the mask is wide: "cores":17
    // settles as an error row in its slot and the rest of the batch runs.
    const std::vector<std::string> lines = {
        R"({"scenario":"meek","cores":17,"workload":"hmmer","instructions":6000})",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})",
    };
    serve::service svc({.threads = 2});
    const std::vector<serve::response_row> rows = svc.evaluate(lines);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].request_index, 0u);
    EXPECT_EQ(rows[0].error, "cores out of range (1..16)");
    EXPECT_TRUE(rows[1].error.empty());

    // The full mask width still resolves.
    serve::run_request widest;
    widest.scenario = "meek";
    widest.cores = 16;
    widest.workload = "hmmer";
    sim::run_spec spec;
    EXPECT_EQ(serve::resolve_request(widest, 0, &spec), "");
    EXPECT_EQ(spec.sc.name, "meek/f2/opt/16");
}

TEST(serve_service, an_aborted_simulation_is_an_in_slot_error_and_never_cached) {
    // One checker cannot take the next segment while it still verifies the
    // current one, so the SoC stops with an explicit error. That must reach
    // the client as an error row, not as a row of partial counters, and a
    // re-sent request must simulate again rather than hit a cached failure.
    const std::vector<std::string> lines = {
        R"({"scenario":"meek","cores":1,"workload":"hmmer"})",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})",
    };
    serve::service svc({.threads = 2});
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<serve::response_row> rows = svc.evaluate(lines);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0].request_index, 0u);
        EXPECT_NE(rows[0].error.find("livelock averted"), std::string::npos)
            << rows[0].error;
        EXPECT_EQ(serve::to_json(rows[0]).find("\"cycles\""), std::string::npos);
        EXPECT_TRUE(rows[1].error.empty());
        EXPECT_GT(rows[1].outcome.cycles, 0u);
    }
    EXPECT_EQ(svc.outcomes().size(), 1u) << "only the valid outcome is cached";
    EXPECT_EQ(svc.outcomes().stats().misses, 3u) << "the failed run simulated twice";
}

TEST(serve_service, repeats_fan_out_into_derived_seeds_in_order) {
    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":11,"repeats":3})",
    };
    serve::service svc({.threads = 2});
    const std::vector<serve::response_row> rows = svc.evaluate(lines);
    ASSERT_EQ(rows.size(), 3u);
    for (u64 r = 0; r < 3; ++r) {
        EXPECT_EQ(rows[r].request_index, 0u);
        EXPECT_EQ(rows[r].repeat, r);
        EXPECT_EQ(rows[r].seed, r == 0 ? 11u : sim::derive_stream_seed(11, r));
    }
    // Distinct workload instances: the repeats are not one simulation echoed.
    EXPECT_NE(rows[0].outcome.cycles, rows[1].outcome.cycles);
}

TEST(outcome_cache, concurrent_overlapping_keys_compute_once_and_agree) {
    // N threads hammer one cache with the same K keys in different orders.
    // In-flight dedup must collapse every key to exactly one simulation
    // (K misses total, everything else hits), and every thread must see the
    // same outcome bytes for a given key.
    constexpr std::size_t k_threads = 8;
    constexpr std::size_t k_keys = 6;
    constexpr std::size_t k_rounds = 4;

    serve::outcome_cache cache(k_keys);
    std::vector<sim::run_spec> specs;
    for (std::size_t k = 0; k < k_keys; ++k) {
        specs.push_back(quick_spec("vanilla", "hmmer", 6'000, /*seed=*/100 + k));
    }

    std::vector<std::vector<sim::run_outcome>> seen(k_threads,
                                                    std::vector<sim::run_outcome>(k_keys));
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < k_threads; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < k_threads) {
            }  // start the stampede together
            for (std::size_t round = 0; round < k_rounds; ++round) {
                for (std::size_t i = 0; i < k_keys; ++i) {
                    // Rotated traversal per (thread, round): every thread
                    // touches every key, in overlapping, non-lock-step order.
                    const std::size_t k = (i + t + round) % k_keys;
                    seen[t][k] = cache.outcome_for(specs[k]);
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();

    const serve::outcome_cache_stats s = cache.stats();
    EXPECT_EQ(s.misses, k_keys) << "each key must simulate exactly once";
    EXPECT_EQ(s.hits, k_threads * k_keys * k_rounds - k_keys);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(cache.size(), k_keys);
    for (std::size_t t = 0; t < k_threads; ++t) {
        for (std::size_t k = 0; k < k_keys; ++k) {
            expect_same_outcome(seen[t][k], seen[0][k]);
        }
    }
}

TEST(outcome_cache, lru_order_survives_concurrent_hammering) {
    // After a contended phase, the LRU list and index must still agree:
    // a deterministic serial probe sequence shows coldest-first eviction.
    constexpr std::size_t k_threads = 8;
    serve::outcome_cache cache(3);
    const sim::run_spec a = quick_spec("vanilla", "hmmer", 6'000, 1);
    const sim::run_spec b = quick_spec("vanilla", "hmmer", 6'000, 2);
    const sim::run_spec c = quick_spec("vanilla", "hmmer", 6'000, 3);
    const sim::run_spec d = quick_spec("vanilla", "hmmer", 6'000, 4);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < k_threads; ++t) {
        threads.emplace_back([&] {
            for (int round = 0; round < 6; ++round) {
                cache.outcome_for(a);
                cache.outcome_for(b);
                cache.outcome_for(c);
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Serial epilogue: touch a then b, insert d => c is coldest and must be
    // the one evicted; a and b still hit, c re-misses.
    cache.outcome_for(a);
    cache.outcome_for(b);
    cache.outcome_for(d);
    EXPECT_EQ(cache.stats().evictions, 1u);
    const u64 hits_before = cache.stats().hits;
    cache.outcome_for(a);
    cache.outcome_for(b);
    EXPECT_EQ(cache.stats().hits, hits_before + 2) << "a and b must have survived";
    cache.outcome_for(c);
    EXPECT_EQ(cache.stats().misses, 5u) << "c was the eviction victim";
}

TEST(serve_service, crlf_batches_frame_and_serve_identically_to_lf) {
    // The CRLF bugfix pin: framing strips the trailing '\r' before any line
    // reaches the JSON parser, so a CRLF client's rows are byte-identical to
    // an LF client's — including a whitespace-only "\r" line acting as the
    // batch terminator.
    const std::string lf =
        R"({"id":"x","scenario":"vanilla","workload":"hmmer","instructions":6000})"
        "\n"
        R"({"scenario":"meek/f2/opt/2","workload":"hmmer","instructions":6000})"
        "\n\n";
    std::string crlf;
    for (const char ch : lf) {
        if (ch == '\n') crlf += "\r\n";
        else crlf += ch;
    }

    serve::service svc({.threads = 2});
    std::istringstream lf_in(lf), crlf_in(crlf);
    std::ostringstream lf_out, crlf_out;
    serve::batch_stats lf_stats, crlf_stats;
    EXPECT_TRUE(svc.serve_batch(lf_in, lf_out, &lf_stats));
    EXPECT_TRUE(svc.serve_batch(crlf_in, crlf_out, &crlf_stats));
    EXPECT_FALSE(lf_out.str().empty());
    EXPECT_EQ(lf_out.str(), crlf_out.str());
    EXPECT_EQ(lf_stats.requests, 2u);
    EXPECT_EQ(crlf_stats.requests, 2u);
    EXPECT_EQ(crlf_stats.errors, 0u) << "no '\\r' may reach the JSON parser";

    // And the framing layer itself: batch_reader hands the parser CR-free
    // lines, and the CRLF blank line still terminates the batch.
    std::istringstream raw("{\"a\":1}\r\n\r\n");
    serve::batch_reader reader(raw, {});
    std::string_view line;
    ASSERT_EQ(reader.next(&line), serve::slot_kind::line);
    EXPECT_EQ(line, "{\"a\":1}");
    EXPECT_EQ(reader.next(&line), serve::slot_kind::end);
}

TEST(serve_service, framed_batches_end_with_one_blank_line) {
    const std::string input =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})"
        "\n\n"
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":2})"
        "\n";
    std::istringstream plain_in(input), framed_in(input);
    std::ostringstream plain_out, framed_out;
    serve::service svc({.threads = 2});
    svc.serve_stream(plain_in, plain_out, /*framed=*/false);
    svc.serve_stream(framed_in, framed_out, /*framed=*/true);

    // Framed output = plain output + one blank line after each batch's rows.
    std::istringstream plain_rows(plain_out.str());
    std::string expected;
    std::string row;
    int batch_row = 0;
    while (std::getline(plain_rows, row)) {
        expected += row + "\n";
        // one row per batch in this input
        expected += "\n";
        ++batch_row;
    }
    EXPECT_EQ(batch_row, 2);
    EXPECT_EQ(framed_out.str(), expected);
}

TEST(serve_service, stream_mode_frames_batches_on_blank_lines) {
    const std::string input =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})"
        "\n\n"
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":2})"
        "\n";
    std::istringstream in(input);
    std::ostringstream out;
    serve::service svc({.threads = 2});
    const serve::batch_stats stats = svc.serve_stream(in, out);
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.rows, 2u);
    EXPECT_EQ(stats.errors, 0u);

    // Two rows, each a parseable response for request index 0 of its batch.
    std::istringstream rows_in(out.str());
    std::string line;
    int n = 0;
    while (std::getline(rows_in, line)) {
        const auto row = serve::parse_response(line);
        ASSERT_TRUE(row.has_value()) << line;
        EXPECT_EQ(row->request_index, 0u);
        ++n;
    }
    EXPECT_EQ(n, 2);
}

TEST(serve_protocol, stats_requests_parse_strictly) {
    std::string id;
    EXPECT_TRUE(serve::parse_stats_request(R"({"stats":true})", &id));
    EXPECT_EQ(id, "");
    EXPECT_TRUE(serve::parse_stats_request(R"({"stats":true,"id":"probe"})", &id));
    EXPECT_EQ(id, "probe");
    EXPECT_TRUE(serve::parse_stats_request(R"({"id":"x","stats":true})"));

    // Anything else must fall through to the strict request parser: "stats"
    // not literally true, extra fields, non-objects, malformed JSON.
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":false})"));
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":1})"));
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":"true"})"));
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":true,"scenario":"meek"})"));
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":true,"id":7})"));
    EXPECT_FALSE(serve::parse_stats_request(R"([true])"));
    EXPECT_FALSE(serve::parse_stats_request(R"({"stats":true)"));
    EXPECT_FALSE(serve::parse_stats_request(""));
}

TEST(serve_protocol, raw_rows_pass_through_to_json_verbatim) {
    serve::response_row row;
    row.request_index = 3;
    row.raw = R"({"request":3,"repeat":0,"stats":{"schema":"meek.stats.v1"}})";
    EXPECT_EQ(serve::to_json(row), row.raw);

    // And parse_response keeps a stats row whole instead of dissecting it.
    const auto parsed = serve::parse_response(row.raw);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->request_index, 3u);
    EXPECT_EQ(parsed->raw, row.raw);
    EXPECT_TRUE(parsed->error.empty());
}

TEST(serve_service, stats_request_returns_one_observability_row_in_slot) {
    serve::service svc({.threads = 2});
    serve::batch_stats stats;
    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":1})",
        R"({"stats":true,"id":"probe"})",
        R"({"scenario":"vanilla","workload":"mcf","instructions":6000,"seed":1})",
    };
    const std::vector<serve::response_row> rows = svc.evaluate(lines, &stats);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.jobs, 2u);  // the stats line dispatches no simulation
    EXPECT_EQ(stats.errors, 0u);

    const serve::response_row& sr = rows[1];
    EXPECT_EQ(sr.request_index, 1u);
    ASSERT_FALSE(sr.raw.empty());

    // The raw row is one parseable JSON object, in its slot, with the echoed
    // id and a meek.stats.v1 document under "stats".
    std::string error;
    const auto doc = serve::json_parse(sr.raw, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->get("request")->as_u64(), 1u);
    EXPECT_EQ(doc->get("repeat")->as_u64(), 0u);
    EXPECT_EQ(doc->get("id")->as_string(), "probe");
    const serve::json_value* stats_doc = doc->get("stats");
    ASSERT_NE(stats_doc, nullptr);
    EXPECT_EQ(stats_doc->get("schema")->as_string(), "meek.stats.v1");

    // The snapshot's deterministic counters reflect this very batch, and the
    // service-stage + pool queue-wait histograms carry samples.
    const serve::json_value* counters = stats_doc->get("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->get("service.requests")->as_u64(), 3u);
    EXPECT_EQ(counters->get("service.jobs")->as_u64(), 2u);
    EXPECT_EQ(counters->get("service.errors")->as_u64(), 0u);
    const serve::json_value* hists = stats_doc->get("histograms");
    ASSERT_NE(hists, nullptr);
    EXPECT_GE(hists->get("service.parse_ns")->get("count")->as_u64(), 3u);
    EXPECT_GE(hists->get("pool.queue_wait_ns")->get("count")->as_u64(), 2u);

    // The neighbours are ordinary outcome rows, untouched by the probe.
    EXPECT_TRUE(rows[0].error.empty());
    EXPECT_TRUE(rows[2].error.empty());
    EXPECT_EQ(rows[0].outcome.workload, "hmmer");
    EXPECT_EQ(rows[2].outcome.workload, "mcf");

    // Streaming emission holds the probe until its whole batch has settled
    // too, so the streamed probe row counts the same batch.
    serve::service streamed({.threads = 2, .streaming = true});
    std::string text;
    for (const std::string& l : lines) text += l + '\n';
    std::istringstream in(text);
    std::ostringstream out;
    ASSERT_TRUE(streamed.serve_batch(in, out));
    std::istringstream rows_in(out.str());
    std::string row_line;
    std::vector<std::string> row_lines;
    while (std::getline(rows_in, row_line)) row_lines.push_back(row_line);
    ASSERT_EQ(row_lines.size(), 3u);
    const auto streamed_doc = serve::json_parse(row_lines[1], &error);
    ASSERT_TRUE(streamed_doc.has_value()) << error;
    const serve::json_value* streamed_stats = streamed_doc->get("stats");
    ASSERT_NE(streamed_stats, nullptr);
    const serve::json_value* streamed_counters = streamed_stats->get("counters");
    ASSERT_NE(streamed_counters, nullptr);
    const serve::json_value* streamed_requests =
        streamed_counters->get("service.requests");
    ASSERT_NE(streamed_requests, nullptr) << "the probe must count its own batch";
    EXPECT_EQ(streamed_requests->as_u64(), 3u);
}

TEST(serve_service, stats_snapshot_carries_cache_and_pool_metrics) {
    serve::service svc({.threads = 1});
    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":1})",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":1})",
    };
    svc.evaluate(lines);
    const obs::metrics_snapshot snap = svc.stats_snapshot();
    ASSERT_NE(snap.counter_value("workload_cache.misses"), nullptr);
    EXPECT_EQ(*snap.counter_value("workload_cache.misses"), 1u);
    ASSERT_NE(snap.counter_value("outcome_cache.hits"), nullptr);
    EXPECT_EQ(*snap.counter_value("outcome_cache.hits"), 1u);  // duplicate spec
    ASSERT_NE(snap.counter_value("pool.executed"), nullptr);
    EXPECT_EQ(*snap.counter_value("pool.executed"), 2u);
    ASSERT_NE(snap.gauge_value("pool.threads"), nullptr);
    EXPECT_EQ(*snap.gauge_value("pool.threads"), 1u);
    ASSERT_NE(snap.histogram("pool.run_ns"), nullptr);
    EXPECT_EQ(snap.histogram("pool.run_ns")->count(), 2u);
}

TEST(serve_service, sim_work_counters_deterministic_across_paths_and_threads) {
    // sim.instructions / sim.big_cycles sum the simulated work behind every
    // served outcome — cache hits included, buffered or streaming, at any
    // thread count — so they are part of the deterministic counter set.
    const std::string batch =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":1})"
        "\n"
        R"({"scenario":"meek/f2/opt/2","workload":"mcf","instructions":5000,"seed":2})"
        "\n"
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":1})"
        "\n";

    u64 expect_instr = 0, expect_cycles = 0;
    {
        serve::service svc({.threads = 1});
        std::istringstream in(batch);
        std::ostringstream out;
        svc.serve_stream(in, out, /*framed=*/false);
        const obs::metrics_snapshot snap = svc.stats_snapshot();
        ASSERT_NE(snap.counter_value("sim.instructions"), nullptr);
        ASSERT_NE(snap.counter_value("sim.big_cycles"), nullptr);
        expect_instr = *snap.counter_value("sim.instructions");
        expect_cycles = *snap.counter_value("sim.big_cycles");
        EXPECT_GT(expect_instr, 0u);
        EXPECT_GT(expect_cycles, 0u);
    }
    for (const bool streaming : {false, true}) {
        serve::service_options opts;
        opts.threads = 4;
        opts.streaming = streaming;
        serve::service svc(opts);
        std::istringstream in(batch);
        std::ostringstream out;
        svc.serve_stream(in, out, /*framed=*/false);
        const obs::metrics_snapshot snap = svc.stats_snapshot();
        ASSERT_NE(snap.counter_value("sim.instructions"), nullptr);
        EXPECT_EQ(*snap.counter_value("sim.instructions"), expect_instr)
            << "streaming=" << streaming;
        EXPECT_EQ(*snap.counter_value("sim.big_cycles"), expect_cycles)
            << "streaming=" << streaming;
    }
}

// ---------------------------------------------------------------- tracing ---

// The tracer is process-wide; every tracing test scopes enable/reset so the
// rest of the suite runs untraced.
struct tracer_guard {
    tracer_guard() {
        obs::tracer::instance().disable();
        obs::tracer::instance().reset();
    }
    ~tracer_guard() {
        obs::tracer::instance().disable();
        obs::tracer::instance().reset();
    }
};

std::vector<std::string> golden_request_lines() {
    const std::filesystem::path path =
        std::filesystem::path(MEEK_DATA_DIR) / "serve_requests.ndjson";
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!serve::is_blank_line(line)) lines.push_back(line);
    }
    return lines;
}

TEST(serve_tracing, golden_batch_rows_are_identical_with_tracing_on) {
    const std::vector<std::string> lines = golden_request_lines();
    ASSERT_EQ(lines.size(), 50u);

    tracer_guard guard;
    std::string untraced;
    {
        serve::service svc({.threads = 2});
        untraced = rows_to_text(svc.evaluate(lines));
    }
    obs::tracer::instance().enable(obs::trace_clock_mode::virtual_);
    serve::service svc({.threads = 2});
    EXPECT_EQ(rows_to_text(svc.evaluate(lines)), untraced)
        << "tracing must never change response bytes";
    EXPECT_GT(obs::tracer::instance().spans_recorded(), 0u);
}

TEST(serve_tracing, golden_batch_virtual_trace_is_identical_across_threads) {
    const std::vector<std::string> lines = golden_request_lines();
    ASSERT_EQ(lines.size(), 50u);
    tracer_guard guard;

    auto traced_export = [&lines](u32 threads) {
        obs::tracer& tr = obs::tracer::instance();
        tr.reset();
        tr.enable(obs::trace_clock_mode::virtual_);
        serve::service svc({.threads = threads});
        std::istringstream in(
            [&lines] {
                std::string text;
                for (const std::string& l : lines) text += l + '\n';
                return text;
            }());
        std::ostringstream out;
        svc.serve_stream(in, out, /*framed=*/false);
        const std::string doc = obs::chrome_trace_json(tr.drain(), tr.spans_dropped());
        tr.disable();
        return doc;
    };

    const std::string doc1 = traced_export(1);
    const std::string doc4 = traced_export(4);
    EXPECT_EQ(doc1, doc4)
        << "virtual-clock trace export must not depend on thread count";

    std::vector<obs::span_record> spans;
    u64 dropped = 0;
    std::string error;
    ASSERT_TRUE(obs::parse_chrome_trace_json(doc1, &spans, &dropped, &error))
        << error;
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(obs::validate_span_nesting(spans), "");
    // Every request line contributes one full span chain: request, parse,
    // resolve, job, queue_wait, run, serialize.
    EXPECT_EQ(spans.size(), 50u * 7u);
    std::set<u64> traces;
    for (const obs::span_record& s : spans) traces.insert(s.trace_id);
    EXPECT_EQ(traces.size(), 50u);
}

TEST(serve_tracing, fuzzed_batches_always_produce_valid_span_nests) {
    tracer_guard guard;

    std::mt19937_64 rng(0x5EEDBA7C);
    const std::vector<std::string> pool = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"scenario":"meek/f2/opt/2","workload":"blackscholes","instructions":6000,"repeats":3})",
        R"({"scenario":"vanilla","workload":"doom"})",   // unknown workload
        R"(}{ not json)",                                 // parse error
        R"({"stats":true})",                              // stats row
        "trace",  // placeholder: adopted wire context, fresh ids per pick
    };
    u64 next_wire_trace = 1000;
    for (int round = 0; round < 8; ++round) {
        const std::size_t n = 1 + rng() % 12;
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < n; ++i) {
            std::string line = pool[rng() % pool.size()];
            if (line == "trace") {
                // Span ids are pure functions of the adopted context, so each
                // occurrence needs a distinct trace id to keep them unique.
                line = R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"trace":{"trace_id":)" +
                       std::to_string(next_wire_trace++) + R"(,"span_id":5}})";
            }
            lines.push_back(line);
        }
        // Fresh services restart their batch sequence, so minted trace ids
        // (and their virtual timelines) repeat across rounds: give each round
        // a clean tracer and validate its journal on its own.
        obs::tracer::instance().reset();
        obs::tracer::instance().enable(obs::trace_clock_mode::virtual_);
        serve::service svc({.threads = 1 + static_cast<u32>(rng() % 4)});
        svc.evaluate(lines);
        const std::vector<obs::span_record> spans =
            obs::tracer::instance().drain();
        obs::tracer::instance().disable();
        ASSERT_FALSE(spans.empty()) << "round " << round;
        // Adopted wire contexts parent the request span outside this journal,
        // so external parents are legal; all other invariants hold strictly.
        EXPECT_EQ(
            obs::validate_span_nesting(spans, /*allow_external_parents=*/true),
            "")
            << "round " << round;
    }
}

TEST(serve_protocol, trace_field_round_trips_and_parses_strictly) {
    const serve::parsed_request with = serve::parse_request(
        R"({"scenario":"vanilla","workload":"hmmer","trace":{"trace_id":7,"span_id":9}})");
    ASSERT_TRUE(with.ok()) << with.error;
    ASSERT_TRUE(with.request.trace.has_value());
    EXPECT_EQ(with.request.trace->trace_id, 7u);
    EXPECT_EQ(with.request.trace->span_id, 9u);

    // Serialization emits the field; reparsing recovers the same context.
    const serve::parsed_request again =
        serve::parse_request(serve::to_json(with.request));
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_EQ(again.request.trace, with.request.trace);

    // Absent field => no context (old wire form unchanged).
    const serve::parsed_request without = serve::parse_request(
        R"({"scenario":"vanilla","workload":"hmmer"})");
    ASSERT_TRUE(without.ok()) << without.error;
    EXPECT_FALSE(without.request.trace.has_value());

    // Strictness: a typo must not silently drop a context.
    const char* bad[] = {
        R"({"scenario":"vanilla","workload":"hmmer","trace":{"trace_id":0}})",
        R"({"scenario":"vanilla","workload":"hmmer","trace":{"span_id":9}})",
        R"({"scenario":"vanilla","workload":"hmmer","trace":{"trace_id":7,"spam_id":9}})",
        R"({"scenario":"vanilla","workload":"hmmer","trace":{"trace_id":-1}})",
        R"({"scenario":"vanilla","workload":"hmmer","trace":7})",
    };
    for (const char* line : bad) {
        const serve::parsed_request p = serve::parse_request(line);
        EXPECT_FALSE(p.ok()) << line;
        EXPECT_NE(p.error.find("trace"), std::string::npos) << p.error;
    }
}

TEST(serve_protocol, response_trace_id_round_trips_but_is_never_minted) {
    serve::response_row row;
    row.request_index = 3;
    row.trace_id = 0xfeed;
    row.outcome.scenario = "vanilla";
    const std::string wire = serve::to_json(row);
    EXPECT_NE(wire.find("\"trace_id\":65261"), std::string::npos) << wire;
    std::string error;
    const auto parsed = serve::parse_response(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->trace_id, 0xfeedu);

    // The service itself must not emit the field: rows stay byte-identical
    // with tracing on (pinned by golden_batch_rows_are_identical above).
    serve::response_row plain;
    plain.outcome.scenario = "vanilla";
    EXPECT_EQ(serve::to_json(plain).find("trace_id"), std::string::npos);
}

// ----------------------------------------------------- overload + streaming ---

TEST(serve_protocol, overloaded_rows_round_trip_retry_after_ms) {
    const serve::response_row row = serve::overloaded_row(5);
    const std::string wire = serve::to_json(row);
    EXPECT_EQ(wire, R"({"request":5,"repeat":0,"error":"overloaded","retry_after_ms":100})");

    std::string error;
    const auto parsed = serve::parse_response(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->request_index, 5u);
    EXPECT_EQ(parsed->error, "overloaded");
    EXPECT_EQ(parsed->retry_after_ms, 100u);

    // Ordinary rows never carry the field.
    serve::response_row plain;
    plain.outcome.scenario = "vanilla";
    EXPECT_EQ(serve::to_json(plain).find("retry_after_ms"), std::string::npos);
}

// A streambuf that serves a fixed prefix and then dies with an I/O error, the
// way a socket read returning -1 surfaces through fd_stream: underflow throws,
// istream swallows the exception (default exception mask) and sets badbit.
class dying_streambuf : public std::streambuf {
public:
    explicit dying_streambuf(std::string text) : text_(std::move(text)) {
        setg(text_.data(), text_.data(), text_.data() + text_.size());
    }

protected:
    int_type underflow() override {
        throw std::ios_base::failure("injected transport failure");
    }

private:
    std::string text_;
};

// One batch drained through serve::batch_reader: the admitted lines, the
// overflow slots (sticky caps: always a tail), and the stream-error flag.
struct drained_batch {
    std::vector<std::string> lines;
    u64 overflow = 0;
    bool stream_error = false;
};

drained_batch drain_batch(std::istream& in, const serve::batch_limits& limits = {}) {
    drained_batch out;
    serve::batch_reader reader(in, limits);
    std::string_view line;
    for (serve::slot_kind kind; (kind = reader.next(&line)) != serve::slot_kind::end;) {
        if (kind == serve::slot_kind::overflow) {
            ++out.overflow;
        } else {
            EXPECT_EQ(out.overflow, 0u) << "an admitted line after an overflow slot";
            out.lines.emplace_back(line);
        }
    }
    out.stream_error = reader.stream_error();
    return out;
}

TEST(serve_service, batch_reader_separates_eof_from_stream_error) {
    // Clean EOF: no stream_error.
    std::istringstream clean("{\"a\":1}\n{\"b\":2}\n");
    const drained_batch ok = drain_batch(clean);
    EXPECT_EQ(ok.lines.size(), 2u);
    EXPECT_FALSE(ok.stream_error);

    // Mid-batch I/O death: the lines read so far survive, and the error is
    // surfaced instead of masquerading as a polite hang-up.
    dying_streambuf buf("{\"a\":1}\n{\"b\":2}\n");
    std::istream dying(&buf);
    const drained_batch bad = drain_batch(dying);
    EXPECT_EQ(bad.lines.size(), 2u);
    EXPECT_TRUE(bad.stream_error);

    // And through the service: the batch still evaluates, the connection
    // loop stops (serve_batch returns false), and the counter ticks.
    dying_streambuf buf2(
        "{\"scenario\":\"vanilla\",\"workload\":\"hmmer\",\"instructions\":6000}\n");
    std::istream dying2(&buf2);
    std::ostringstream out;
    serve::service svc({.threads = 1});
    serve::batch_stats stats;
    EXPECT_FALSE(svc.serve_batch(dying2, out, &stats));
    EXPECT_EQ(stats.stream_errors, 1u);
    EXPECT_EQ(stats.rows, 1u) << "rows read before the error are still served";
    const obs::metrics_snapshot snap = svc.stats_snapshot();
    ASSERT_NE(snap.counter_value("service.stream_errors"), nullptr);
    EXPECT_EQ(*snap.counter_value("service.stream_errors"), 1u);
}

TEST(serve_service, batch_caps_turn_overflow_lines_into_overloaded_rows) {
    // Protocol level: lines past the cap are drained (framing intact) but
    // their content is dropped.
    std::istringstream in("{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n\n{\"next\":1}\n");
    const drained_batch r = drain_batch(in, {.max_lines = 2, .max_bytes = 0});
    EXPECT_EQ(r.lines.size(), 2u);
    EXPECT_EQ(r.overflow, 1u);
    const drained_batch next = drain_batch(in);
    ASSERT_EQ(next.lines.size(), 1u) << "overflow must not desync framing";
    EXPECT_EQ(next.lines[0], "{\"next\":1}");

    // Byte cap too.
    std::istringstream in2("{\"aaaaaaaaaaaaaaaa\":1}\n{\"b\":2}\n");
    const drained_batch r2 = drain_batch(in2, {.max_lines = 0, .max_bytes = 24});
    EXPECT_EQ(r2.lines.size(), 1u);
    EXPECT_EQ(r2.overflow, 1u);

    // The byte cap is sticky: a short line after an over-cap one overflows
    // too, though it alone would fit, so overflow stays a contiguous tail.
    // The next batch starts with a fresh budget.
    std::istringstream in3(
        "{\"a\":1}\n{\"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\":2}\n{\"c\":3}\n\n{\"d\":4}\n");
    const drained_batch r3 = drain_batch(in3, {.max_lines = 0, .max_bytes = 24});
    ASSERT_EQ(r3.lines.size(), 1u);
    EXPECT_EQ(r3.lines[0], "{\"a\":1}");
    EXPECT_EQ(r3.overflow, 2u) << "the short third line must overflow too";
    const drained_batch next3 = drain_batch(in3, {.max_lines = 0, .max_bytes = 24});
    ASSERT_EQ(next3.lines.size(), 1u) << "overflow must not desync framing";
    EXPECT_EQ(next3.lines[0], "{\"d\":4}");

    // Service level: each overflow slot settles with an in-slot overloaded
    // row, so no accepted line is silently dropped.
    serve::service_options opts;
    opts.threads = 2;
    opts.limits.max_lines = 2;
    serve::service svc(opts);
    const std::string req =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})";
    std::istringstream batch_in(req + "\n" + req + "\n" + req + "\n" + req + "\n");
    std::ostringstream batch_out;
    serve::batch_stats stats;
    svc.serve_batch(batch_in, batch_out, &stats);
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.rows, 4u);
    EXPECT_EQ(stats.shed, 2u);
    std::istringstream rows_in(batch_out.str());
    std::string line;
    std::vector<serve::response_row> rows;
    while (std::getline(rows_in, line)) {
        const auto row = serve::parse_response(line);
        ASSERT_TRUE(row.has_value()) << line;
        rows.push_back(*row);
    }
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_TRUE(rows[0].error.empty());
    EXPECT_TRUE(rows[1].error.empty());
    EXPECT_EQ(rows[2].request_index, 2u);
    EXPECT_EQ(rows[2].error, "overloaded");
    EXPECT_EQ(rows[3].request_index, 3u);
    EXPECT_EQ(rows[3].error, "overloaded");
    EXPECT_GT(rows[3].retry_after_ms, 0u);
    const obs::metrics_snapshot snap = svc.stats_snapshot();
    ASSERT_NE(snap.counter_value("service.shed"), nullptr);
    EXPECT_EQ(*snap.counter_value("service.shed"), 2u);
}

std::string streaming_identity_input() {
    std::string text;
    for (const std::string& l : mixed_batch()) text += l + '\n';
    text +=
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":9,"repeats":3})"
        "\n";
    text += "}{ not json\n";
    text += R"({"scenario":"vanilla","workload":"doom"})" "\n";
    text += "\n";  // second batch below
    for (const std::string& l : mixed_batch()) text += l + '\n';
    return text;
}

TEST(serve_service, streaming_bytes_identical_to_buffered_at_any_thread_count) {
    const std::string input = streaming_identity_input();
    auto run = [&input](bool streaming, u32 threads, bool framed) {
        serve::service_options opts;
        opts.threads = threads;
        opts.streaming = streaming;
        serve::service svc(opts);
        std::istringstream in(input);
        std::ostringstream out;
        const serve::batch_stats stats = svc.serve_stream(in, out, framed);
        EXPECT_EQ(stats.requests, 19u);
        EXPECT_EQ(stats.client_aborts, 0u);
        return out.str();
    };
    const std::string golden = run(/*streaming=*/false, 1, false);
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(run(true, 1, false), golden);
    EXPECT_EQ(run(true, 4, false), golden);
    const std::string golden_framed = run(false, 4, true);
    EXPECT_EQ(run(true, 4, true), golden_framed)
        << "framing markers must survive streaming too";
}

// An ostream that accepts nothing: every write fails, the way a closed socket
// surfaces once SIGPIPE is ignored.
class closed_streambuf : public std::streambuf {
protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(serve_service, client_abort_ends_the_connection_in_both_modes) {
    const std::string req =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000})";
    for (const bool streaming : {false, true}) {
        serve::service_options opts;
        opts.threads = 2;
        opts.streaming = streaming;
        serve::service svc(opts);
        closed_streambuf buf;
        std::ostream dead(&buf);
        std::istringstream in(req + "\n" + req + "\n\n" + req + "\n");
        serve::batch_stats stats;
        EXPECT_FALSE(svc.serve_batch(in, dead, &stats))
            << "streaming=" << streaming;
        EXPECT_EQ(stats.client_aborts, 1u) << "streaming=" << streaming;
        const obs::metrics_snapshot snap = svc.stats_snapshot();
        ASSERT_NE(snap.counter_value("service.client_aborts"), nullptr);
        EXPECT_EQ(*snap.counter_value("service.client_aborts"), 1u)
            << "streaming=" << streaming;
    }
}

}  // namespace
}  // namespace meek

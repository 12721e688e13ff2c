// trace_check — validator for the Chrome trace-event JSON the serve tools
// export via --trace-json.
//
//   trace_check FILE [--allow-external-parents]
//
// Parses the catapult document back into span records and checks the nesting
// invariants: begin <= end, span ids unique per trace, parents resolve within
// their trace, child intervals inside parent intervals, acyclic parent
// chains. `--allow-external-parents` relaxes the parent-resolution check for
// journals whose parent spans live in another process (requests that carried
// a client's "trace" context); such spans are treated as roots.
//
// Prints one summary line and exits 0 when the document is well-formed and
// every invariant holds, 1 otherwise — the CI gate behind the trace exports.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

using namespace meek;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s FILE [--allow-external-parents]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string path;
    bool allow_external_parents = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--allow-external-parents") {
            allow_external_parents = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty()) return usage(argv[0]);

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_check: cannot open '%s'\n", path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::vector<obs::span_record> spans;
    u64 dropped = 0;
    std::string error;
    if (!obs::parse_chrome_trace_json(text, &spans, &dropped, &error)) {
        std::fprintf(stderr, "trace_check: %s: malformed trace: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    const std::string violation =
        obs::validate_span_nesting(spans, allow_external_parents);
    if (!violation.empty()) {
        std::fprintf(stderr, "trace_check: %s: nesting violation: %s\n",
                     path.c_str(), violation.c_str());
        return 1;
    }

    std::set<u64> traces;
    for (const obs::span_record& s : spans) traces.insert(s.trace_id);
    std::printf("trace_check: %s: spans=%zu traces=%zu dropped=%llu ok\n",
                path.c_str(), spans.size(), traces.size(),
                static_cast<unsigned long long>(dropped));
    return 0;
}

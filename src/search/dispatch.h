// Multi-process shard dispatch for the design-space search: the scale-out
// hook that drives `meek_search --shard k/n` workers from one front-end.
//
// Each shard worker is a child process spawned over the serve layer's process
// transport (serve::child_process); it evaluates its slice of the candidate
// list — the slices come from the driver's cost-balanced split
// (sched::balanced_assignment over per-point cost estimates, identical in
// every worker), not a blind "position mod N" — and persists per-point
// checkpoints into the shared checkpoint directory. The dispatcher waits for
// every worker, then the caller merges by running the search once more in
// resume mode — with all checkpoints present that run simulates nothing and
// emits the frontier byte-identical to an unsharded run.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace meek::search {

struct shard_dispatch_options {
    u32 shard_count = 2;
    // The worker command *without* the --shard flag; typically this process's
    // own argv. Workers must share the same search flags and --checkpoint-dir
    // or their checkpoints will be rejected at merge time.
    std::vector<std::string> argv_base;
};

struct shard_dispatch_result {
    bool ok = false;
    std::string error;            // spawn-level failure detail
    std::vector<int> exit_codes;  // one per shard, in shard order
};

// Spawn one `argv_base + ["--shard", "k/N"]` worker per shard, with the
// worker's stdout discarded (the frontier a straggler might print belongs to
// the merging front-end, not a worker), and wait for all of them. `ok` only
// when every worker exited 0.
shard_dispatch_result dispatch_shards(const shard_dispatch_options& opts);

}  // namespace meek::search

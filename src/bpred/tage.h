// TAGE conditional-branch predictor (6 tagged tables, geometric history
// lengths 2..64, per Table II) with a bimodal base table, plus BTB and RAS.
//
// The core resolves branches in program order relative to prediction (no
// wrong-path fetch is modeled), so predict() and update() are called in
// matched pairs and the global history needs no checkpoint/restore.
#pragma once

#include <vector>

#include "common/bits.h"
#include "common/config.h"
#include "common/types.h"

namespace meek {

struct bp_stats {
    u64 lookups = 0;
    u64 mispredicts = 0;
    u64 btb_misses = 0;
    u64 ras_mispredicts = 0;

    double mispredict_rate() const {
        return lookups == 0 ? 0.0
                            : static_cast<double>(mispredicts) / static_cast<double>(lookups);
    }
};

struct tage_prediction {
    bool taken = false;
    int provider = -1;      // -1: bimodal base, else table index
    int alt_provider = -1;
    bool alt_taken = false;
    u32 provider_index = 0;
    u32 alt_index = 0;
    bool new_alloc_candidate = false;
};

// XOR-fold of the newest `length` bits of a global history into `width`
// bits, kept incrementally: each shift rotates the fold by one, inserts the
// new bit and removes the bit leaving the window, which sits at
// length % width after the rotation.
class folded_history {
public:
    folded_history(u32 length, u32 width)
        : width_(width), mask_(mask64(width)), leave_at_(length % width) {}

    // `leaving` is bit length-1 of the history before the shift.
    void shift(bool in, bool leaving) {
        value_ = ((value_ << 1) | (value_ >> (width_ - 1))) & mask_;
        value_ ^= u64{in} ^ (u64{leaving} << leave_at_);
    }
    u64 value() const { return value_; }

private:
    u32 width_;
    u64 mask_;
    u32 leave_at_;
    u64 value_ = 0;
};

class tage_predictor {
public:
    explicit tage_predictor(const branch_predictor_config& cfg);

    tage_prediction predict(addr_t pc) const;
    void update(addr_t pc, const tage_prediction& pred, bool taken);

    const bp_stats& stats() const { return stats_; }

private:
    struct entry {
        u16 tag = 0;
        i8 counter = 0;   // signed 3-bit: taken when >= 0
        u8 useful = 0;
    };

    u32 table_index(addr_t pc, u32 table) const;
    u16 table_tag(addr_t pc, u32 table) const;

    branch_predictor_config cfg_;
    std::vector<u32> history_lengths_;
    std::vector<folded_history> index_folds_;  // per table, to the index width
    std::vector<folded_history> tag_folds_;    // per table, to the tag width
    std::vector<std::vector<entry>> tables_;
    std::vector<i8> bimodal_;  // 2-bit counters, taken when >= 0
    u64 ghist_ = 0;
    mutable bp_stats stats_;
    u64 alloc_seed_ = 0x12345;
};

class btb {
public:
    explicit btb(u32 entries);

    // Returns the predicted target, or nullopt on BTB miss.
    bool lookup(addr_t pc, addr_t& target) const;
    void install(addr_t pc, addr_t target);

private:
    struct slot {
        addr_t pc = 0;
        addr_t target = 0;
        bool valid = false;
    };
    std::vector<slot> slots_;
};

class return_address_stack {
public:
    explicit return_address_stack(u32 entries) : capacity_(entries) {}

    void push(addr_t return_pc);
    addr_t pop();  // returns 0 when empty
    bool empty() const { return stack_.empty(); }

private:
    u32 capacity_;
    std::vector<addr_t> stack_;
};

// Front-end predictor bundle the big core consumes.
class branch_predictor {
public:
    explicit branch_predictor(const branch_predictor_config& cfg);

    // Conditional branch: predicted direction. Target comes from the
    // instruction (direct) so only direction accuracy matters.
    bool predict_branch(addr_t pc, tage_prediction& meta);
    void resolve_branch(addr_t pc, const tage_prediction& meta, bool taken);

    // Indirect jump (jalr): predicted target via BTB/RAS; returns true when
    // the prediction matched `actual_target`.
    bool predict_indirect(addr_t pc, bool is_return, addr_t actual_target);
    void note_call(addr_t return_pc);

    const bp_stats& stats() const { return tage_.stats(); }
    bp_stats& mutable_stats() { return stats_ext_; }
    const bp_stats& indirect_stats() const { return stats_ext_; }

private:
    tage_predictor tage_;
    btb btb_;
    return_address_stack ras_;
    bp_stats stats_ext_;
};

}  // namespace meek

#include "bpred/tage.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"

namespace meek {
namespace {

// Geometric sequence of history lengths between min and max (inclusive).
std::vector<u32> geometric_lengths(u32 tables, u32 min_len, u32 max_len) {
    std::vector<u32> lengths(tables);
    const double ratio =
        tables > 1 ? std::pow(static_cast<double>(max_len) / min_len,
                              1.0 / static_cast<double>(tables - 1))
                   : 1.0;
    double len = min_len;
    for (u32 i = 0; i < tables; ++i) {
        lengths[i] = std::max<u32>(1, static_cast<u32>(len + 0.5));
        len *= ratio;
    }
    lengths.back() = max_len;
    return lengths;
}

constexpr i8 k_counter_max = 3;   // 3-bit signed: [-4, 3]
constexpr i8 k_counter_min = -4;
constexpr i8 k_bimodal_max = 1;   // 2-bit signed: [-2, 1]
constexpr i8 k_bimodal_min = -2;

i8 saturate_update(i8 counter, bool up, i8 lo, i8 hi) {
    if (up) return std::min<i8>(hi, counter + 1);
    return std::max<i8>(lo, counter - 1);
}

}  // namespace

tage_predictor::tage_predictor(const branch_predictor_config& cfg)
    : cfg_(cfg),
      history_lengths_(
          geometric_lengths(cfg.tage_tables, cfg.tage_min_history, cfg.tage_max_history)),
      tables_(cfg.tage_tables, std::vector<entry>(cfg.tage_entries_per_table)),
      bimodal_(4096, 0) {
    for (const u32 len : history_lengths_) {
        index_folds_.emplace_back(len, log2_floor(cfg.tage_entries_per_table));
        tag_folds_.emplace_back(len, cfg.tage_tag_bits);
    }
}

u32 tage_predictor::table_index(addr_t pc, u32 table) const {
    const u32 idx_bits = log2_floor(cfg_.tage_entries_per_table);
    const u64 h = index_folds_[table].value();
    const u64 p = pc >> 3;
    return static_cast<u32>((p ^ (p >> idx_bits) ^ h ^ (table * 0x9e37)) &
                            mask64(idx_bits));
}

u16 tage_predictor::table_tag(addr_t pc, u32 table) const {
    const u64 h = tag_folds_[table].value();
    const u64 p = pc >> 3;
    return static_cast<u16>((p ^ (p >> cfg_.tage_tag_bits) ^ (h << 1) ^ table) &
                            mask64(cfg_.tage_tag_bits));
}

tage_prediction tage_predictor::predict(addr_t pc) const {
    tage_prediction pred;
    // Base prediction.
    const u32 base_idx = static_cast<u32>((pc >> 3) % bimodal_.size());
    pred.taken = bimodal_[base_idx] >= 0;

    // Longest-history match wins; second-longest provides the alternate.
    for (int t = static_cast<int>(cfg_.tage_tables) - 1; t >= 0; --t) {
        const u32 idx = table_index(pc, t);
        const entry& e = tables_[t][idx];
        if (e.tag == table_tag(pc, t)) {
            if (pred.provider < 0) {
                pred.provider = t;
                pred.provider_index = idx;
                pred.taken = e.counter >= 0;
            } else if (pred.alt_provider < 0) {
                pred.alt_provider = t;
                pred.alt_index = idx;
                pred.alt_taken = e.counter >= 0;
                break;
            }
        }
    }
    return pred;
}

void tage_predictor::update(addr_t pc, const tage_prediction& pred, bool taken) {
    ++stats_.lookups;
    const bool correct = pred.taken == taken;
    if (!correct) ++stats_.mispredicts;

    const u32 base_idx = static_cast<u32>((pc >> 3) % bimodal_.size());
    if (pred.provider >= 0) {
        entry& e = tables_[pred.provider][pred.provider_index];
        e.counter = saturate_update(e.counter, taken, k_counter_min, k_counter_max);
        // Usefulness: provider correct where alternate would have been wrong.
        const bool alt_correct =
            (pred.alt_provider >= 0 ? pred.alt_taken : bimodal_[base_idx] >= 0) == taken;
        if (correct && !alt_correct && e.useful < 3) ++e.useful;
        if (!correct && alt_correct && e.useful > 0) --e.useful;
    } else {
        bimodal_[base_idx] =
            saturate_update(bimodal_[base_idx], taken, k_bimodal_min, k_bimodal_max);
    }

    // On a mispredict, try to allocate an entry in a longer-history table.
    if (!correct) {
        const int start = pred.provider + 1;
        bool allocated = false;
        for (u32 t = static_cast<u32>(start); t < cfg_.tage_tables && !allocated; ++t) {
            const u32 idx = table_index(pc, t);
            entry& e = tables_[t][idx];
            if (e.useful == 0) {
                e.tag = table_tag(pc, t);
                e.counter = taken ? 0 : -1;
                allocated = true;
            }
        }
        // Nothing free: age usefulness so future allocations can succeed
        // (cheap stand-in for TAGE's periodic useful-bit reset).
        if (!allocated) {
            alloc_seed_ = alloc_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;
            const u32 t = static_cast<u32>(start) +
                          static_cast<u32>(alloc_seed_ >> 60) %
                              std::max(1u, cfg_.tage_tables - static_cast<u32>(start));
            if (t < cfg_.tage_tables) {
                entry& e = tables_[t][table_index(pc, t)];
                if (e.useful > 0) --e.useful;
            }
        }
    }

    for (u32 t = 0; t < cfg_.tage_tables; ++t) {
        const bool leaving = (ghist_ >> (history_lengths_[t] - 1)) & 1;
        index_folds_[t].shift(taken, leaving);
        tag_folds_[t].shift(taken, leaving);
    }
    ghist_ = (ghist_ << 1) | (taken ? 1 : 0);
}

btb::btb(u32 entries) : slots_(entries) {}

bool btb::lookup(addr_t pc, addr_t& target) const {
    const slot& s = slots_[(pc >> 3) % slots_.size()];
    if (s.valid && s.pc == pc) {
        target = s.target;
        return true;
    }
    return false;
}

void btb::install(addr_t pc, addr_t target) {
    slots_[(pc >> 3) % slots_.size()] = {pc, target, true};
}

void return_address_stack::push(addr_t return_pc) {
    if (stack_.size() >= capacity_) {
        stack_.erase(stack_.begin());  // overflow drops the oldest entry
    }
    stack_.push_back(return_pc);
}

addr_t return_address_stack::pop() {
    if (stack_.empty()) return 0;
    const addr_t top = stack_.back();
    stack_.pop_back();
    return top;
}

branch_predictor::branch_predictor(const branch_predictor_config& cfg)
    : tage_(cfg), btb_(cfg.btb_entries), ras_(cfg.ras_entries) {}

bool branch_predictor::predict_branch(addr_t pc, tage_prediction& meta) {
    meta = tage_.predict(pc);
    return meta.taken;
}

void branch_predictor::resolve_branch(addr_t pc, const tage_prediction& meta, bool taken) {
    tage_.update(pc, meta, taken);
}

bool branch_predictor::predict_indirect(addr_t pc, bool is_return, addr_t actual_target) {
    ++stats_ext_.lookups;
    addr_t predicted = 0;
    if (is_return) {
        predicted = ras_.pop();
        if (predicted != actual_target) {
            ++stats_ext_.ras_mispredicts;
            ++stats_ext_.mispredicts;
            return false;
        }
        return true;
    }
    if (!btb_.lookup(pc, predicted)) {
        ++stats_ext_.btb_misses;
        ++stats_ext_.mispredicts;
        btb_.install(pc, actual_target);
        return false;
    }
    if (predicted != actual_target) {
        ++stats_ext_.mispredicts;
        btb_.install(pc, actual_target);
        return false;
    }
    return true;
}

void branch_predictor::note_call(addr_t return_pc) { ras_.push(return_pc); }

}  // namespace meek

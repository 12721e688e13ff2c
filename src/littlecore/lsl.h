// Load-Store Log: the per-little-core SRAM bank that buffers packets from F2
// and replaces the L1 D$ during replay (Fig. 4). Run-time entries live in a
// dual-way FIFO (address way / data way — modeled as one FIFO of paired
// entries); RCP status words assemble into the SRCP and ERCP snapshots for
// the segment this LSL is reserved for.
#pragma once

#include <optional>

#include "common/fifo.h"
#include "deu/packet.h"

namespace meek {

class load_store_log {
public:
    explicit load_store_log(u32 runtime_capacity) : runtime_(runtime_capacity) {}

    // Reserve the log for segment `s` (the OS pins one checker thread per
    // LSL; see Sec. IV-B). Clears all buffered state.
    void reserve(u32 segment) {
        segment_ = segment;
        runtime_.clear();
        srcp_words_ = 0;
        ercp_words_ = 0;
        srcp_ = arch_snapshot{};
        ercp_ = arch_snapshot{};
        expected_count_.reset();
    }

    u32 segment() const { return segment_; }

    // Accepts a fabric delivery addressed to this core. Returns false when a
    // run-time entry cannot be buffered (log full), which breaks the fabric's
    // never-reject contract (fabric.h) and ends the run with
    // std::logic_error; the DEU's "LSL full" trigger keeps the run-time FIFO
    // from overflowing.
    // Packets for a segment other than the reserved one are dropped: "once
    // LSL is reserved, only data relevant to the associated checker thread is
    // forwarded" (Sec. IV-B) — stale stragglers from a segment whose check
    // already concluded (e.g. failed early) must not pollute the log.
    bool deliver(const fwd_packet& p) {
        switch (p.kind) {
            case packet_kind::runtime_load:
            case packet_kind::runtime_store:
            case packet_kind::runtime_csr:
                if (p.segment != segment_) return true;  // stale: drop
                return runtime_.push(p);
            case packet_kind::status_word:
                if (p.segment == segment_) {
                    set_snapshot_word(srcp_, p.word_index, p.data);
                    ++srcp_words_;
                } else if (p.segment == segment_ + 1) {
                    set_snapshot_word(ercp_, p.word_index, p.data);
                    ++ercp_words_;
                }
                return true;
            case packet_kind::segment_end:
                if (p.segment == segment_) expected_count_ = p.data;
                return true;
        }
        return true;
    }

    bool srcp_ready() const { return srcp_words_ >= k_snapshot_words; }
    bool ercp_ready() const { return ercp_words_ >= k_snapshot_words; }
    const arch_snapshot& srcp() const { return srcp_; }
    const arch_snapshot& ercp() const { return ercp_; }

    std::optional<u64> expected_count() const { return expected_count_; }

    bool runtime_empty() const { return runtime_.empty(); }
    bool runtime_full() const { return runtime_.full(); }
    std::size_t runtime_size() const { return runtime_.size(); }
    const fwd_packet& runtime_front() const { return runtime_.front(); }
    std::optional<fwd_packet> pop_runtime() { return runtime_.pop(); }

private:
    u32 segment_ = 0;
    bounded_fifo<fwd_packet> runtime_;
    arch_snapshot srcp_;
    arch_snapshot ercp_;
    u32 srcp_words_ = 0;
    u32 ercp_words_ = 0;
    std::optional<u64> expected_count_;
};

}  // namespace meek

// Forwarding-fabric packet format. The DEU emits two packet families
// (Fig. 2/3): run-time data (memory addresses+data, non-repeatable CSR
// reads) between RCPs, and status data (architectural snapshot words) at
// RCPs. Status packets are selectively multicast: the same snapshot serves
// as the ERCP of segment k and the SRCP of segment k+1 on two different
// little cores.
#pragma once

#include "common/types.h"
#include "isa/arch_state.h"

namespace meek {

enum class packet_kind : u8 {
    runtime_load,   // addr = effective address, data = loaded raw bytes
    runtime_store,  // addr = effective address, data = stored bytes
    runtime_csr,    // addr = CSR address, data = read value
    status_word,    // one 64-bit word of an RCP snapshot (word_index selects)
    segment_end,    // ERCP marker: data = dynamic instruction count of segment
};

using dest_mask_t = u16;  // bit i = little core i

// The most little cores a status multicast can address: one mask bit each.
inline constexpr u32 k_max_little_cores = sizeof(dest_mask_t) * 8;

// Narrow fields first: 48 bytes with no padding holes, since every packet is
// copied into a landing queue and an LSL on its way.
struct fwd_packet {
    packet_kind kind = packet_kind::runtime_load;
    u8 size = 0;          // memory access size for runtime packets
    u8 parity = 0;        // parity accompanying load data through the LSQ
    bool fault_injected = false;  // campaign marker: this packet was corrupted
    u16 word_index = 0;   // for status words
    dest_mask_t dest = 0;
    u32 segment = 0;      // segment this packet belongs to
    addr_t addr = 0;
    u64 data = 0;
    u64 seq = 0;          // committing instruction's dynamic number
    cycle_t created_big_cycle = 0;  // injection timestamp (fault latency base)
};

// Snapshot <-> word-stream packing. Layout: word 0 = PC, words 1..32 = x1..x31
// plus x0 slot, 33..64 = f0..f31, 65.. = checkpointed CSRs.
inline constexpr u32 k_snapshot_words = arch_snapshot::payload_words();

inline u64 snapshot_word(const arch_snapshot& s, u32 index) {
    if (index == 0) return s.pc;
    if (index <= k_num_arch_regs) return s.xregs[index - 1];
    if (index <= 2 * k_num_arch_regs) return s.fregs[index - 1 - k_num_arch_regs];
    return s.csrs[index - 1 - 2 * k_num_arch_regs];
}

inline void set_snapshot_word(arch_snapshot& s, u32 index, u64 value) {
    if (index == 0) {
        s.pc = value;
    } else if (index <= k_num_arch_regs) {
        s.xregs[index - 1] = value;
    } else if (index <= 2 * k_num_arch_regs) {
        s.fregs[index - 1 - k_num_arch_regs] = value;
    } else {
        s.csrs[index - 1 - 2 * k_num_arch_regs] = value;
    }
}

}  // namespace meek

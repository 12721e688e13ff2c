// Workload-generator tests: all 20 SPEC/PARSEC profiles produce valid
// programs whose dynamic mix tracks the profile, run deterministically, and
// verify cleanly under MEEK (the core end-to-end property, parameterized
// over every workload).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bigcore/ooo_core.h"
#include "common/bits.h"
#include "meek/soc.h"
#include "workloads/generator.h"

namespace meek {
namespace {

std::vector<workload_profile> all_profiles() {
    std::vector<workload_profile> out;
    for (const auto& p : spec06_profiles()) out.push_back(p);
    for (const auto& p : parsec_profiles()) out.push_back(p);
    return out;
}

TEST(profiles, suites_have_paper_counts) {
    EXPECT_EQ(spec06_profiles().size(), 12u);   // full SPECint2006
    EXPECT_EQ(parsec_profiles().size(), 8u);    // PARSEC subset of Fig. 6
}

TEST(profiles, nzdc_build_failures_match_paper) {
    // Sec. V-A: compilation fails for gcc, omnetpp, xalancbmk, freqmine.
    for (const char* name : {"gcc", "omnetpp", "xalancbmk", "freqmine"}) {
        const workload_profile* p = find_profile(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_FALSE(p->nzdc_supported) << name;
    }
    u32 unsupported = 0;
    for (const auto& p : all_profiles()) unsupported += !p.nzdc_supported;
    EXPECT_EQ(unsupported, 4u);
}

TEST(profiles, find_profile_lookup) {
    EXPECT_NE(find_profile("mcf"), nullptr);
    EXPECT_NE(find_profile("swaptions"), nullptr);
    EXPECT_EQ(find_profile("doom"), nullptr);
}

TEST(generator, deterministic_for_fixed_seed) {
    const workload_profile& p = *find_profile("hmmer");
    const generated_workload a = generate_workload(p, 50'000, 7);
    const generated_workload b = generate_workload(p, 50'000, 7);
    ASSERT_EQ(a.prog.size(), b.prog.size());
    for (std::size_t i = 0; i < a.prog.text.size(); ++i) {
        EXPECT_EQ(a.prog.text[i], b.prog.text[i]);
    }
    const generated_workload c = generate_workload(p, 50'000, 8);
    EXPECT_NE(encode(a.prog.text.back()), 0u);
    EXPECT_FALSE(a.prog.text == c.prog.text);
}

TEST(generator, registers_stay_below_shadow_set) {
    // nZDC needs x16..x31 / f16..f31 free.
    for (const auto& p : all_profiles()) {
        const generated_workload wl = generate_workload(p, 10'000, 1);
        for (const instr& ins : wl.prog.text) {
            if (ins.writes_rd()) EXPECT_LT(ins.rd, 16) << p.name;
            if (ins.reads_rs1()) EXPECT_LT(ins.rs1, 16) << p.name;
            if (ins.reads_rs2()) EXPECT_LT(ins.rs2, 16) << p.name;
            if (ins.reads_rs3()) EXPECT_LT(ins.rs3, 16) << p.name;
        }
    }
}

// End-to-end: every workload halts on the big core and the dynamic mix
// tracks its profile within tolerance.
class workload_mix : public ::testing::TestWithParam<workload_profile> {};

TEST_P(workload_mix, dynamic_mix_tracks_profile) {
    const workload_profile& p = GetParam();
    const generated_workload wl = generate_workload(p, 60'000, 3);

    functional_memory memory;
    ooo_core core(big_core_config{}, memory);
    core.load_program(wl.prog);
    const run_result r = core.run({.max_cycles = 30'000'000});
    ASSERT_TRUE(r.halted) << p.name;
    EXPECT_GT(r.instructions, 30'000u) << p.name;
    EXPECT_LT(r.instructions, 200'000u) << p.name;

    const core_stats& s = core.stats();
    const double n = static_cast<double>(s.instructions);
    // Loads/stores within 40% relative: the generator's addressing/fold
    // overhead counts toward the integer fraction, diluting the others a
    // little, exactly as real address arithmetic does.
    EXPECT_NEAR(static_cast<double>(s.loads) / n, p.load_frac,
                p.load_frac * 0.40 + 0.01)
        << p.name;
    EXPECT_NEAR(static_cast<double>(s.stores) / n, p.store_frac,
                p.store_frac * 0.40 + 0.01)
        << p.name;
    if (p.fp_frac > 0.05) {
        EXPECT_NEAR(static_cast<double>(s.fp_ops) / n, p.fp_frac + p.fp_div_frac,
                    (p.fp_frac + p.fp_div_frac) * 0.4)
            << p.name;
    }
    if (p.div_frac + p.fp_div_frac > 0.01) {
        EXPECT_GT(s.div_ops + s.fp_div_ops, 0u) << p.name;
    }
    EXPECT_GT(s.csr_ops, 0u) << p.name;  // non-repeatable path exercised
}

INSTANTIATE_TEST_SUITE_P(all, workload_mix, ::testing::ValuesIn(all_profiles()),
                         [](const auto& info) { return info.param.name; });

// The fundamental MEEK property: with no faults, every workload verifies
// cleanly and the checkers replay exactly the committed stream.
class workload_verification : public ::testing::TestWithParam<workload_profile> {};

TEST_P(workload_verification, verifies_under_meek) {
    const workload_profile& p = GetParam();
    const generated_workload wl = generate_workload(p, 30'000, 5);

    soc_config cfg;
    meek_soc soc(cfg);
    soc.load_program(wl.prog);
    const meek_run_result r = soc.run();
    ASSERT_TRUE(r.big.halted) << p.name;
    EXPECT_TRUE(r.verified_ok) << p.name;
    EXPECT_EQ(r.soc.segments_failed, 0u) << p.name;
    EXPECT_EQ(r.soc.segments_started, r.soc.segments_verified) << p.name;

    u64 replayed = 0;
    for (u32 i = 0; i < cfg.num_little_cores; ++i) {
        replayed += soc.little(i).stats().replayed_instructions;
    }
    EXPECT_EQ(replayed, soc.big_core().stats().instructions) << p.name;
}

INSTANTIATE_TEST_SUITE_P(all, workload_verification,
                         ::testing::ValuesIn(all_profiles()),
                         [](const auto& info) { return info.param.name; });

TEST(generator, swaptions_is_division_heavy) {
    // The paper's little-core bottleneck depends on this property.
    const generated_workload wl = generate_workload(*find_profile("swaptions"),
                                                    40'000, 2);
    functional_memory memory;
    ooo_core core(big_core_config{}, memory);
    core.load_program(wl.prog);
    core.run({});
    const core_stats& s = core.stats();
    const double div_share = static_cast<double>(s.fp_div_ops + s.div_ops) /
                             static_cast<double>(s.instructions);
    EXPECT_GT(div_share, 0.02);
    // And it must be the most division-heavy PARSEC workload.
    for (const auto& other : parsec_profiles()) {
        EXPECT_LE(other.fp_div_frac + other.div_frac,
                  find_profile("swaptions")->fp_div_frac +
                      find_profile("swaptions")->div_frac)
            << other.name;
    }
}

TEST(generator, instruction_budget_is_respected) {
    const workload_profile& p = *find_profile("bzip2");
    for (const u64 target : {20'000ull, 100'000ull, 400'000ull}) {
        const generated_workload wl = generate_workload(p, target, 1);
        functional_memory memory;
        ooo_core core(big_core_config{}, memory);
        core.load_program(wl.prog);
        const run_result r = core.run({});
        ASSERT_TRUE(r.halted);
        EXPECT_GT(r.instructions, target / 2);
        EXPECT_LT(r.instructions, target * 2);
    }
}

// The chase table is a pointer ring holding the Sattolo permutation; its
// materialized bytes are the 16-byte node image the generator used to build
// (pointer at +0, little-endian, zero payload at +8), and a loaded core reads
// exactly those bytes.
TEST(generator, chase_ring_materializes_the_node_image) {
    const generated_workload wl = generate_workload(*find_profile("mcf"), 12'000, 1);
    ASSERT_EQ(wl.prog.rings.size(), 1u);
    const pointer_ring& ring = wl.prog.rings[0];
    EXPECT_EQ(ring.base, k_default_data_base + 0x10000000);
    ASSERT_EQ(ring.next.size(), (4u << 20) / 16);
    const std::vector<u8> image = ring.materialize();
    ASSERT_EQ(image.size(), 16 * ring.next.size());
    for (std::size_t i = 0; i < ring.next.size(); ++i) {
        u64 pointer = 0;
        for (u32 b = 0; b < 8; ++b) pointer |= u64{image[16 * i + b]} << (8 * b);
        ASSERT_EQ(pointer, ring.base + 16 * u64{ring.next[i]}) << i;
        for (u32 b = 8; b < 16; ++b) ASSERT_EQ(image[16 * i + b], 0) << i;
    }
    // One cycle through every node.
    std::vector<bool> seen(ring.next.size());
    u32 node = 0;
    for (std::size_t step = 0; step < ring.next.size(); ++step) {
        ASSERT_FALSE(seen[node]) << step;
        seen[node] = true;
        node = ring.next[node];
    }
    EXPECT_EQ(node, 0u);

    functional_memory memory;
    ooo_core core(big_core_config{}, memory);
    core.load_program(wl.prog);
    for (std::size_t i = 0; i < image.size(); i += 8) {
        u64 word = 0;
        for (u32 b = 0; b < 8; ++b) word |= u64{image[i + b]} << (8 * b);
        ASSERT_EQ(memory.read(ring.base + i, 8), word) << i;
    }
}

// One row of tests/data/workload_images_expected.csv: the generated
// program's shape plus an FNV-1a digest over encode() of every instruction
// and every blob's base and bytes. Pointer rings count as blobs of their
// materialized bytes, ahead of the data blobs: the chase table was the first
// data blob before it was kept as a ring, so the pinned rows still hold.
std::string image_row(const workload_profile& p, u64 instructions, u64 seed) {
    const generated_workload wl = generate_workload(p, instructions, seed);
    fnv1a h;
    for (const instr& ins : wl.prog.text) h.u(encode(ins));
    std::string blob_bytes;
    const auto add_blob = [&](addr_t base, const std::vector<u8>& bytes) {
        h.u(base);
        h.bytes(bytes.data(), bytes.size());
        if (!blob_bytes.empty()) blob_bytes += ';';
        blob_bytes += std::to_string(bytes.size());
    };
    for (const pointer_ring& ring : wl.prog.rings) add_blob(ring.base, ring.materialize());
    for (const data_blob& blob : wl.prog.data) add_blob(blob.base, blob.bytes);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(h.h));
    return p.name + ',' + std::to_string(instructions) + ',' + std::to_string(seed) + ',' +
           std::to_string(wl.prog.text.size()) + ',' + blob_bytes + ',' +
           std::to_string(wl.expected_dynamic_instructions) + ',' +
           std::to_string(wl.static_block_size) + ',' + digest;
}

// Every profile x length {1k, 12k, 100k} x seed {1, 5, 0xC0FFEE} regenerates
// exactly the pinned program image: a rewrite of the generator or the
// program builder may change how bytes are produced, never which.
TEST(generator, images_match_the_pinned_golden) {
    std::ifstream in(std::filesystem::path(MEEK_DATA_DIR) / "workload_images_expected.csv");
    ASSERT_TRUE(in) << "missing workload_images_expected.csv";
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line,
              "profile,instructions,seed,text_size,blob_bytes,"
              "expected_dynamic_instructions,static_block_size,digest");
    std::size_t rows = 0;
    for (const workload_profile& p : all_profiles()) {
        for (const u64 instructions : {1'000ull, 12'000ull, 100'000ull}) {
            for (const u64 seed : {1ull, 5ull, 0xC0FFEEull}) {
                ASSERT_TRUE(std::getline(in, line)) << "golden ends early";
                EXPECT_EQ(image_row(p, instructions, seed), line);
                ++rows;
            }
        }
    }
    EXPECT_FALSE(std::getline(in, line)) << "golden has extra rows";
    EXPECT_EQ(rows, 180u);
}

}  // namespace
}  // namespace meek

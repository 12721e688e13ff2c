// Report-layer tests: table rendering, CSV emission, ascii bars, and the
// figure runner's refusal to reduce an aborted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "report/runner.h"
#include "report/table.h"

namespace meek {
namespace {

TEST(text_table_render, aligns_columns) {
    text_table t({"name", "value"});
    t.add_row({"a", "1"});
    t.add_row({"longer-name", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| name        | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
}

TEST(text_table_render, separator_and_short_rows) {
    text_table t({"a", "b", "c"});
    t.add_row({"1"});  // padded to 3 columns
    t.add_separator();
    t.add_row({"2", "3", "4"});
    const std::string out = t.render();
    // 5 rules: top, under header, separator, bottom + the header row itself.
    std::size_t rules = 0;
    std::istringstream ss(out);
    std::string line;
    while (std::getline(ss, line)) {
        if (!line.empty() && line[0] == '+') ++rules;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(csv, writes_header_and_rows) {
    const std::string path = "test_report_out.csv";
    write_csv(path, {"x", "y"}, {{"1", "2"}, {"3", "4"}});
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "x,y");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "3,4");
    in.close();
    std::remove(path.c_str());
}

TEST(bars, ascii_bar_scales) {
    EXPECT_EQ(ascii_bar(0.0, 1.0, 10), "");
    EXPECT_EQ(ascii_bar(0.5, 1.0, 10), "#####");
    EXPECT_EQ(ascii_bar(1.0, 1.0, 10), "##########");
    EXPECT_EQ(ascii_bar(2.0, 1.0, 10), "##########");  // clamped
    EXPECT_EQ(ascii_bar(1.0, 0.0, 10), "");             // degenerate max
}

TEST(runner, an_aborted_run_is_an_error_not_a_slowdown) {
    // One checker cannot take the next segment while it still verifies the
    // current one, so the SoC stops with an explicit error; its partial
    // counters must never become a figure row.
    soc_config cfg;
    cfg.num_little_cores = 1;
    try {
        measure_meek(cfg, *find_profile("hmmer"), 20'000);
        FAIL() << "measure_meek reduced an aborted run";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("meek/f2/opt/1"), std::string::npos) << what;
        EXPECT_NE(what.find("livelock averted"), std::string::npos) << what;
    }
}

}  // namespace
}  // namespace meek

// Transport + gateway conformance suite: the end-to-end contracts of the
// serve scale-out layer.
//
//   * endpoint parsing and the socket/pipe stream primitives;
//   * a meek_serve network daemon (unix + tcp) speaking framed batches;
//   * the sharding gateway merging worker row streams byte-identical to a
//     single-process serve::service run — the golden test uses the same
//     50-request batch CI diffs against tests/data/serve_expected.ndjson;
//   * worker death mid-batch turning into error rows in-slot (not a batch
//     abort), and out-of-order worker completion still merging in global
//     (request, repeat) order;
//   * CRLF clients framing identically to LF clients end to end.
//
// Real worker processes are the installed meek_serve binary (MEEK_SERVE_BIN,
// injected by CMake); misbehaving workers are scripted in-process over unix
// sockets so failure timing is deterministic.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cstring>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "serve/gateway.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/transport.h"

namespace meek {
namespace {

std::string data_path(const std::string& name) {
    return std::string(MEEK_DATA_DIR) + "/" + name;
}

// A per-test unix socket path under the test temp dir, short enough for
// sockaddr_un.
std::string socket_path(const std::string& tag) {
    return ::testing::TempDir() + "meek_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

std::vector<std::string> load_request_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!serve::is_blank_line(line)) lines.emplace_back(serve::strip_cr(line));
    }
    return lines;
}

std::string join_rows(const std::vector<std::string>& rows) {
    std::string out;
    for (const std::string& row : rows) {
        out += row;
        out += '\n';
    }
    return out;
}

// The reference the gateway must reproduce byte for byte.
std::string single_process_rows(const std::vector<std::string>& lines) {
    serve::service svc({.threads = 2});
    std::string out;
    for (const serve::response_row& row : svc.evaluate(lines)) {
        out += serve::to_json(row);
        out += '\n';
    }
    return out;
}

std::vector<std::string> small_mixed_batch() {
    return {
        R"({"id":"a","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3,"repeats":3})",
        R"(}{ not json)",
        R"({"id":"b","scenario":"meek/f2/opt/2","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"id":"c","scenario":"vanilla","workload":"doom"})",
        R"({"id":"d","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":4})",
    };
}

// ------------------------------------------------------ endpoint parsing ---

TEST(transport_endpoint, parses_tcp_and_unix_forms) {
    auto a = serve::parse_endpoint("tcp:10.0.0.1:8500");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, serve::endpoint_kind::tcp);
    EXPECT_EQ(a->host, "10.0.0.1");
    EXPECT_EQ(a->port, 8500);
    EXPECT_EQ(a->describe(), "tcp:10.0.0.1:8500");

    a = serve::parse_endpoint("localhost:7");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->host, "localhost");
    EXPECT_EQ(a->port, 7);

    a = serve::parse_endpoint(":0");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->host, "127.0.0.1") << "empty host defaults to loopback";
    EXPECT_EQ(a->port, 0);

    a = serve::parse_endpoint("unix:/tmp/w.sock");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, serve::endpoint_kind::unix_socket);
    EXPECT_EQ(a->path, "/tmp/w.sock");
    EXPECT_EQ(a->describe(), "unix:/tmp/w.sock");

    std::string error;
    for (const char* bad : {"", "tcp:hostonly", "unix:", "host:notaport", "host:99999"}) {
        EXPECT_FALSE(serve::parse_endpoint(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ------------------------------------------------------- socket transport ---

// One in-process daemon connection: service behind a listener, a client
// sending one framed batch, rows byte-identical to a direct evaluation.
void expect_daemon_round_trip(const serve::endpoint_address& addr) {
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    serve::service svc({.threads = 2});
    std::thread server([&] {
        serve::serve_connections(svc, *lis, {.max_connections = 1});
    });

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"scenario":"meek/f2/opt/2","workload":"hmmer","instructions":6000,"seed":3})",
    };
    const std::string expected = single_process_rows(lines);

    auto client = serve::connect_endpoint(lis->address());
    ASSERT_NE(client, nullptr);
    // CRLF on purpose: a socket client on any platform must frame
    // identically to an LF one.
    for (const std::string& line : lines) *client << line << "\r\n";
    *client << "\r\n";
    client->flush();

    std::string got;
    std::string row;
    while (std::getline(*client, row)) {
        if (serve::is_blank_line(row)) break;  // framed end-of-batch
        got += std::string(serve::strip_cr(row));
        got += '\n';
    }
    EXPECT_EQ(got, expected);

    client->close_write();
    client.reset();
    server.join();
}

TEST(transport_socket, unix_daemon_round_trips_a_framed_crlf_batch) {
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("unix_rt");
    expect_daemon_round_trip(addr);
}

TEST(transport_socket, tcp_daemon_binds_ephemeral_port_and_round_trips) {
    const auto addr = serve::parse_endpoint("tcp:127.0.0.1:0");
    ASSERT_TRUE(addr.has_value());
    auto lis = serve::listener::open(*addr);
    ASSERT_NE(lis, nullptr);
    EXPECT_NE(lis->address().port, 0) << "port 0 must resolve to the bound port";
    lis->close();
    expect_daemon_round_trip(serve::parse_endpoint("tcp:127.0.0.1:0").value());
}

TEST(transport_socket, close_from_another_thread_unblocks_accept) {
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("close_wakes");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    std::thread acceptor([&] { EXPECT_EQ(lis->accept(), nullptr); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    lis->close();
    acceptor.join();  // a hang here is the regression
}

TEST(transport_socket, live_unix_path_is_not_stolen_but_stale_one_is_reclaimed) {
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("steal");

    {
        auto first = serve::listener::open(addr);
        ASSERT_NE(first, nullptr);
        // A second daemon on the same path must fail, not silently unlink
        // the live listener's socket out from under it.
        std::string error;
        EXPECT_EQ(serve::listener::open(addr, &error), nullptr);
        EXPECT_NE(error.find("in use"), std::string::npos) << error;
    }

    // Simulate a daemon that died without cleanup: a socket file bound by a
    // process that is gone, so nobody answers a probe connect.
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(stale, 0);
    ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&sun), sizeof sun), 0);
    ::close(stale);
    auto reclaimed = serve::listener::open(addr);
    EXPECT_NE(reclaimed, nullptr) << "stale path must be reclaimed";

    // And a plain file on the path must be refused, never deleted.
    reclaimed.reset();
    std::ofstream(addr.path) << "precious";
    std::string error;
    EXPECT_EQ(serve::listener::open(addr, &error), nullptr);
    EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
    EXPECT_TRUE(std::ifstream(addr.path).good()) << "file must survive";
    ::unlink(addr.path.c_str());
}

TEST(transport_process, meek_serve_child_speaks_framed_batches) {
    std::string error;
    auto child = serve::child_process::spawn({MEEK_SERVE_BIN, "--framed", "--quiet"},
                                             {}, &error);
    ASSERT_NE(child, nullptr) << error;

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
    };
    for (const std::string& line : lines) child->io() << line << '\n';
    child->io() << '\n';
    child->io().flush();

    std::string got;
    std::string row;
    while (std::getline(child->io(), row)) {
        if (serve::is_blank_line(row)) break;
        got += row;
        got += '\n';
    }
    EXPECT_EQ(got, single_process_rows(lines));
    child->close_stdin();
    EXPECT_EQ(child->wait(), 0);
}

// ---------------------------------------------------------------- gateway ---

TEST(gateway, golden_batch_over_two_workers_is_byte_identical) {
    const std::vector<std::string> lines =
        load_request_lines(data_path("serve_requests.ndjson"));
    ASSERT_EQ(lines.size(), 50u);
    const std::string expected = single_process_rows(lines);

    serve::gateway_options opts;
    opts.workers = 2;
    opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    serve::gateway_stats stats;
    const std::vector<std::string> rows = gw.evaluate(lines, &stats);
    EXPECT_EQ(join_rows(rows), expected);
    EXPECT_EQ(stats.requests, 50u);
    EXPECT_EQ(stats.worker_failures, 0u);
}

TEST(gateway, blank_lines_in_an_evaluate_batch_cannot_desync_a_worker) {
    // A blank line handed to evaluate() directly must be settled locally —
    // forwarded, it would read as the worker's end-of-batch marker. The
    // merged output must still match single-process evaluation, and the
    // worker must stay usable for the rest of the batch and the next one.
    serve::gateway_options opts;
    opts.workers = 1;
    opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        "",
        "   ",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
    };
    EXPECT_EQ(join_rows(gw.evaluate(lines)), single_process_rows(lines));
    EXPECT_EQ(gw.alive_workers(), 1u) << "worker must not be marked failed";

    const std::vector<std::string> next = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":5})",
    };
    EXPECT_EQ(join_rows(gw.evaluate(next)), single_process_rows(next))
        << "stream must still be in sync for the following batch";
}

TEST(gateway, repeats_and_error_rows_shard_and_merge_byte_identical) {
    const std::vector<std::string> lines = small_mixed_batch();
    const std::string expected = single_process_rows(lines);

    serve::gateway_options opts;
    opts.workers = 2;
    opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    serve::gateway_stats stats;
    EXPECT_EQ(join_rows(gw.evaluate(lines, &stats)), expected);
    EXPECT_EQ(stats.requests, lines.size());
    EXPECT_EQ(stats.errors, 2u) << "bad json + unknown workload";
    EXPECT_EQ(stats.worker_failures, 0u);
}

TEST(gateway, serves_a_stream_of_batches_through_process_workers) {
    const std::vector<std::string> batch1 = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
    };
    const std::vector<std::string> batch2 = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
        R"({"scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":4})",
    };
    // CRLF framing into the gateway itself must not change a byte.
    std::string input;
    for (const std::string& line : batch1) input += line + "\r\n";
    input += "\r\n";
    for (const std::string& line : batch2) input += line + "\n";

    serve::gateway_options opts;
    opts.workers = 2;
    opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    std::istringstream in(input);
    std::ostringstream out;
    const serve::gateway_stats stats = gw.serve_stream(in, out);
    EXPECT_EQ(out.str(), single_process_rows(batch1) + single_process_rows(batch2));
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.rows, 3u);
    EXPECT_EQ(stats.errors, 0u);
}

// A scripted worker for failure/timing injection: serves exactly one
// connection, evaluates the batch with a private in-process service, and
// emits `emit_rows` rows (-1: all) — optionally after a delay — then either
// terminates the batch properly or just closes the stream (worker death).
void run_scripted_worker(serve::listener* lis, int emit_rows, int delay_ms,
                         bool send_terminator) {
    std::unique_ptr<serve::fd_stream> conn = lis->accept();
    if (!conn) return;
    serve::batch_reader reader(*conn, {});
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.next(&line) == serve::slot_kind::line) lines.emplace_back(line);
    if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    serve::service svc({.threads = 1});
    const std::vector<serve::response_row> rows = svc.evaluate(lines);
    const std::size_t n = emit_rows < 0
                              ? rows.size()
                              : std::min(rows.size(), static_cast<std::size_t>(emit_rows));
    for (std::size_t i = 0; i < n; ++i) {
        *conn << serve::to_json(rows[i]) << '\n';
    }
    if (send_terminator) *conn << '\n';
    conn->flush();
}

struct scripted_pool {
    std::unique_ptr<serve::listener> lis[2];
    std::thread threads[2];
    serve::gateway_options opts;

    // worker k: (emit_rows, delay_ms, send_terminator)
    scripted_pool(const std::string& tag, int emit0, int delay0, bool term0,
                  int emit1, int delay1, bool term1) {
        for (int k = 0; k < 2; ++k) {
            serve::endpoint_address addr;
            addr.kind = serve::endpoint_kind::unix_socket;
            addr.path = socket_path(tag + std::to_string(k));
            lis[k] = serve::listener::open(addr);
            EXPECT_NE(lis[k], nullptr);
            opts.endpoints.push_back(lis[k]->address());
        }
        threads[0] = std::thread(run_scripted_worker, lis[0].get(), emit0, delay0, term0);
        threads[1] = std::thread(run_scripted_worker, lis[1].get(), emit1, delay1, term1);
    }

    ~scripted_pool() {
        for (auto& t : threads) {
            if (t.joinable()) t.join();
        }
    }
};

TEST(gateway, dead_worker_yields_error_rows_in_slot_not_a_batch_abort) {
    // Worker 1 reads its sub-batch and dies without emitting a row; worker 0
    // is healthy. Requests 1 and 3 (the dead worker's slots) must come back
    // as error rows *in position*, with requests 0 and 2 fully served.
    scripted_pool pool("dead", /*w0*/ -1, 0, true, /*w1*/ 0, 0, false);
    serve::gateway gw(pool.opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> lines = {
        R"({"id":"q0","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"id":"q1","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
        R"({"id":"q2","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":3})",
        R"({"id":"q3","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":4})",
    };
    serve::gateway_stats stats;
    const std::vector<std::string> rows = gw.evaluate(lines, &stats);
    ASSERT_EQ(rows.size(), 4u);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto row = serve::parse_response(rows[i]);
        ASSERT_TRUE(row.has_value()) << rows[i];
        EXPECT_EQ(row->request_index, i) << "rows must stay in request order";
        if (i % 2 == 0) {
            EXPECT_TRUE(row->error.empty()) << rows[i];
            EXPECT_GT(row->outcome.cycles, 0u);
        } else {
            EXPECT_NE(row->error.find("worker 1 failed mid-batch"), std::string::npos)
                << rows[i];
            EXPECT_EQ(row->id, "q" + std::to_string(i)) << "id echoed into error row";
        }
    }
    EXPECT_EQ(stats.errors, 2u);
    EXPECT_EQ(stats.worker_failures, 1u);
    EXPECT_EQ(gw.alive_workers(), 1u);
}

TEST(gateway, worker_dying_mid_request_fills_only_the_missing_repeats) {
    // One request with 3 repeats, owned by worker 0, which emits only the
    // first row before dying. Repeats 1 and 2 become error rows; repeat 0
    // keeps its real result.
    scripted_pool pool("partial", /*w0*/ 1, 0, false, /*w1*/ -1, 0, true);
    serve::gateway gw(pool.opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> lines = {
        R"({"id":"r","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3,"repeats":3})",
        R"({"id":"s","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":9})",
    };
    serve::gateway_stats stats;
    const std::vector<std::string> rows = gw.evaluate(lines, &stats);
    ASSERT_EQ(rows.size(), 4u);

    const auto r0 = serve::parse_response(rows[0]);
    ASSERT_TRUE(r0.has_value());
    EXPECT_EQ(r0->request_index, 0u);
    EXPECT_EQ(r0->repeat, 0u);
    EXPECT_TRUE(r0->error.empty());
    for (u64 repeat = 1; repeat <= 2; ++repeat) {
        const auto row = serve::parse_response(rows[repeat]);
        ASSERT_TRUE(row.has_value());
        EXPECT_EQ(row->request_index, 0u);
        EXPECT_EQ(row->repeat, repeat);
        EXPECT_NE(row->error.find("failed mid-batch"), std::string::npos);
    }
    const auto r3 = serve::parse_response(rows[3]);
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->request_index, 1u);
    EXPECT_TRUE(r3->error.empty()) << "healthy worker's request must be served";
    EXPECT_EQ(stats.errors, 2u);
}

TEST(gateway, out_of_order_worker_completion_merges_in_request_order) {
    // Worker 0 sleeps long enough that worker 1's rows arrive first; the
    // merged stream must still be byte-identical to a single-process run.
    scripted_pool pool("ooo", /*w0*/ -1, 300, true, /*w1*/ -1, 0, true);
    serve::gateway gw(pool.opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
        R"({"scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":3})",
        R"({"scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":4})",
    };
    EXPECT_EQ(join_rows(gw.evaluate(lines)), single_process_rows(lines));
}

TEST(gateway, unreachable_endpoint_is_evicted_and_its_load_redistributed) {
    // Endpoint 1 refuses connections (nothing listening); endpoint 0 is a
    // healthy scripted worker. The gateway must come up degraded, and the
    // dead endpoint's share must be rerouted to the live worker — no error
    // rows for requests a healthy pool member could serve.
    serve::endpoint_address dead;
    dead.kind = serve::endpoint_kind::unix_socket;
    dead.path = socket_path("refused_nobody");

    serve::endpoint_address live_addr;
    live_addr.kind = serve::endpoint_kind::unix_socket;
    live_addr.path = socket_path("refused_live");
    auto lis = serve::listener::open(live_addr);
    ASSERT_NE(lis, nullptr);
    std::thread worker(run_scripted_worker, lis.get(), -1, 0, true);

    serve::gateway_options opts;
    opts.endpoints = {lis->address(), dead};
    serve::gateway gw(opts);
    EXPECT_TRUE(gw.ok()) << "one live worker keeps the gateway up";
    EXPECT_EQ(gw.alive_workers(), 1u);

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
    };
    serve::gateway_stats stats;
    const std::vector<std::string> rows = gw.evaluate(lines, &stats);
    worker.join();
    EXPECT_EQ(join_rows(rows), single_process_rows(lines))
        << "the live worker must absorb the evicted endpoint's share";
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(stats.worker_failures, 0u);
}

TEST(gateway, skewed_batch_routes_the_expensive_request_away_from_the_rest) {
    // Cost-aware sharding: one request dominates the batch's estimated cost
    // (MEEK, 4 checkers, 3 repeats), the other three are cheap vanilla runs.
    // Balanced assignment must give worker 0 only the expensive line and
    // worker 1 everything else — observable because worker 0 is scripted to
    // die without a row: exactly the expensive request's repeats come back as
    // error rows. (Round-robin would also have killed request 2.)
    scripted_pool pool("skew", /*w0*/ 0, 0, false, /*w1*/ -1, 0, true);
    serve::gateway gw(pool.opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> lines = {
        R"({"id":"big","scenario":"meek/f2/opt/4","workload":"hmmer","instructions":30000,"seed":3,"repeats":3})",
        R"({"id":"s1","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"id":"s2","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
        R"({"id":"s3","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":3})",
    };
    serve::gateway_stats stats;
    const std::vector<std::string> rows = gw.evaluate(lines, &stats);
    ASSERT_EQ(rows.size(), 6u) << "3 repeats of request 0 + one row each for 1..3";

    for (u64 repeat = 0; repeat < 3; ++repeat) {
        const auto row = serve::parse_response(rows[repeat]);
        ASSERT_TRUE(row.has_value()) << rows[repeat];
        EXPECT_EQ(row->request_index, 0u);
        EXPECT_EQ(row->repeat, repeat);
        EXPECT_NE(row->error.find("worker 0 failed mid-batch"), std::string::npos)
            << rows[repeat];
        EXPECT_EQ(row->id, "big");
    }
    for (std::size_t i = 3; i < rows.size(); ++i) {
        const auto row = serve::parse_response(rows[i]);
        ASSERT_TRUE(row.has_value()) << rows[i];
        EXPECT_EQ(row->request_index, i - 2);
        EXPECT_TRUE(row->error.empty())
            << "cheap requests belong to the healthy worker: " << rows[i];
    }
    EXPECT_EQ(stats.errors, 3u);
    EXPECT_EQ(stats.worker_failures, 1u);
}

TEST(gateway, process_worker_death_is_respawned_for_the_next_batch) {
    // A one-worker pool whose worker dies mid-batch on its first life (the
    // script reads one line, then exits) and execs a real meek_serve on its
    // second (the flag file exists by then). Batch 1 must come back as error
    // rows; batch 2 must be served for real by the respawned worker.
    const std::string flag = ::testing::TempDir() + "meek_respawn_flag_" +
                             std::to_string(::getpid());
    ::unlink(flag.c_str());
    const std::string script = "if [ -e '" + flag + "' ]; then exec '" +
                               MEEK_SERVE_BIN +
                               "' --framed --quiet; else : > '" + flag +
                               "'; read ignored; exit 7; fi";
    serve::gateway_options opts;
    opts.workers = 1;
    opts.worker_argv = {"/bin/sh", "-c", script};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> batch1 = {
        R"({"id":"x","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"id":"y","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
    };
    serve::gateway_stats stats;
    const std::vector<std::string> rows1 = gw.evaluate(batch1, &stats);
    ASSERT_EQ(rows1.size(), 2u);
    for (const std::string& row : rows1) {
        const auto parsed = serve::parse_response(row);
        ASSERT_TRUE(parsed.has_value()) << row;
        EXPECT_NE(parsed->error.find("worker 0 failed mid-batch"), std::string::npos)
            << row;
    }
    EXPECT_EQ(stats.worker_failures, 1u);
    EXPECT_EQ(gw.alive_workers(), 0u) << "death must be visible after the batch";

    const std::vector<std::string> batch2 = {
        R"({"id":"z","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":5})",
    };
    const std::vector<std::string> rows2 = gw.evaluate(batch2, &stats);
    EXPECT_EQ(join_rows(rows2), single_process_rows(batch2))
        << "respawned worker must serve batch 2 for real";
    EXPECT_EQ(gw.alive_workers(), 1u);
    EXPECT_EQ(stats.workers_respawned, 1u);
    ::unlink(flag.c_str());
}

TEST(gateway, dead_endpoint_worker_reconnects_once_a_daemon_is_back) {
    // Socket workers cannot be respawned, only re-connected. Life cycle:
    // batch 1 served by scripted daemon A, which then closes the connection;
    // batch 2 hits the closed socket and fails into error rows; daemon B
    // starts; batch 3 reconnects and is served for real.
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("reconnect");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);
    std::thread daemon_a(run_scripted_worker, lis.get(), -1, 0, true);

    serve::gateway_options opts;
    opts.endpoints = {lis->address()};
    serve::gateway gw(opts);
    ASSERT_TRUE(gw.ok());

    const std::vector<std::string> batch = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
    };
    serve::gateway_stats stats;
    EXPECT_EQ(join_rows(gw.evaluate(batch, &stats)), single_process_rows(batch));
    daemon_a.join();  // daemon A is gone; the gateway's socket is now dead

    const std::vector<std::string> rows2 = gw.evaluate(batch, &stats);
    ASSERT_EQ(rows2.size(), 1u);
    EXPECT_NE(serve::parse_response(rows2[0])->error.find("failed mid-batch"),
              std::string::npos)
        << rows2[0];
    EXPECT_EQ(gw.alive_workers(), 0u);

    std::thread daemon_b(run_scripted_worker, lis.get(), -1, 0, true);
    const std::vector<std::string> rows3 = gw.evaluate(batch, &stats);
    daemon_b.join();
    EXPECT_EQ(join_rows(rows3), single_process_rows(batch))
        << "reconnected endpoint must serve batch 3 for real";
    EXPECT_EQ(gw.alive_workers(), 1u);
    EXPECT_EQ(stats.workers_respawned, 1u);
}

// ------------------------------------------------------ concurrent accepts ---

// Two clients at once: the first connects and holds its batch open while the
// second connects, is served, and completes. A serial accept loop deadlocks
// here (the second client is never accepted until the first hangs up); the
// accept pool must interleave them.
void expect_two_concurrent_clients(const serve::endpoint_address& addr) {
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);
    serve::service svc({.threads = 2});
    serve::serve_connections_stats stats;
    std::thread server([&] {
        stats = serve::serve_connections(
            svc, *lis,
            {.max_connections = 2, .framed = true, .accept_threads = 2});
    });

    const std::vector<std::string> lines_a = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
    };
    const std::vector<std::string> lines_b = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})",
    };

    auto slow = serve::connect_endpoint(lis->address());
    ASSERT_NE(slow, nullptr);
    auto fast = serve::connect_endpoint(lis->address());
    ASSERT_NE(fast, nullptr);

    const auto read_framed_batch = [](serve::fd_stream& io) {
        std::string got;
        std::string row;
        while (std::getline(io, row)) {
            if (serve::is_blank_line(row)) break;
            got += std::string(serve::strip_cr(row));
            got += '\n';
        }
        return got;
    };

    // The late connection completes while the early one is still idle.
    for (const std::string& line : lines_b) *fast << line << '\n';
    *fast << '\n';
    fast->flush();
    EXPECT_EQ(read_framed_batch(*fast), single_process_rows(lines_b));
    fast->close_write();
    fast.reset();

    for (const std::string& line : lines_a) *slow << line << '\n';
    *slow << '\n';
    slow->flush();
    EXPECT_EQ(read_framed_batch(*slow), single_process_rows(lines_a));
    slow->close_write();
    slow.reset();

    server.join();
    EXPECT_EQ(stats.connections, 2u);
    EXPECT_EQ(stats.requests, 2u);
}

TEST(transport_accept_pool, unix_daemon_serves_two_clients_concurrently) {
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("pool_unix");
    expect_two_concurrent_clients(addr);
}

TEST(transport_accept_pool, tcp_daemon_serves_two_clients_concurrently) {
    const auto addr = serve::parse_endpoint("tcp:127.0.0.1:0");
    ASSERT_TRUE(addr.has_value());
    expect_two_concurrent_clients(*addr);
}

// ------------------------------------------- streaming + overload, on-wire ---

TEST(transport_streaming, rows_stream_back_before_the_batch_terminator) {
    // The pipelining proof: the client sends ONE request line and no
    // end-of-batch marker, then blocks reading. A buffered service would
    // still be waiting for the terminator; a streaming one answers the line
    // the moment its jobs finish. (A regression here hangs, which ctest's
    // timeout turns into a failure.)
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("stream_early");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    serve::service_options sopts;
    sopts.threads = 2;
    sopts.streaming = true;
    serve::service svc(sopts);
    std::thread server([&] {
        serve::serve_connections(svc, *lis, {.max_connections = 1, .framed = true});
    });

    const std::string l0 =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})";
    const std::string l1 =
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})";
    const std::string expected = single_process_rows({l0, l1});

    auto client = serve::connect_endpoint(lis->address());
    ASSERT_NE(client, nullptr);
    *client << l0 << '\n';
    client->flush();  // no terminator: the batch is still open

    std::string row0;
    ASSERT_TRUE(std::getline(*client, row0)) << "row 0 must stream mid-batch";

    *client << l1 << '\n' << '\n';  // second line, then end-of-batch
    client->flush();
    std::string row1, marker;
    ASSERT_TRUE(std::getline(*client, row1));
    ASSERT_TRUE(std::getline(*client, marker));
    EXPECT_TRUE(serve::is_blank_line(marker)) << "framed batches keep the marker";
    EXPECT_EQ(row0 + "\n" + row1 + "\n", expected)
        << "streamed bytes must equal the buffered golden";

    client->close_write();
    client.reset();
    server.join();
}

TEST(transport_streaming, admitted_lines_retire_at_end_of_batch_not_at_emission) {
    // With a one-line queue, line 0's row streams back mid-batch, but line 0
    // still holds its queue slot until the batch ends — so line 1 sheds
    // whatever the arrival timing, exactly as in a buffered batch.
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("stream_admission");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    serve::service_options sopts;
    sopts.threads = 2;
    sopts.streaming = true;
    sopts.admission.enabled = true;
    sopts.admission.max_queue_lines = 1;
    serve::service svc(sopts);
    std::thread server([&] {
        serve::serve_connections(svc, *lis, {.max_connections = 1, .framed = true});
    });

    auto client = serve::connect_endpoint(lis->address());
    ASSERT_NE(client, nullptr);
    *client << R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})"
            << '\n';
    client->flush();
    std::string row0;
    ASSERT_TRUE(std::getline(*client, row0)) << "row 0 must stream mid-batch";

    *client << R"({"id":"late","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})"
            << '\n' << '\n';
    client->flush();
    std::string row1, marker;
    ASSERT_TRUE(std::getline(*client, row1));
    ASSERT_TRUE(std::getline(*client, marker));
    EXPECT_TRUE(serve::is_blank_line(marker));

    const auto first = serve::parse_response(row0);
    ASSERT_TRUE(first.has_value()) << row0;
    EXPECT_TRUE(first->error.empty()) << row0;
    const auto second = serve::parse_response(row1);
    ASSERT_TRUE(second.has_value()) << row1;
    EXPECT_EQ(second->request_index, 1u);
    EXPECT_EQ(second->error, "overloaded") << row1;
    EXPECT_EQ(second->id, "late");

    client->close_write();
    client.reset();
    server.join();
    EXPECT_EQ(svc.admission().queued_lines(), 0u);
}

TEST(transport_streaming, concurrent_batches_mint_disjoint_trace_ids) {
    // Accept threads run batches on one service concurrently; each batch must
    // claim its own trace-minting sequence number.
    obs::tracer& tracer = obs::tracer::instance();
    tracer.disable();
    tracer.reset();
    tracer.enable(obs::trace_clock_mode::wall);

    serve::service svc({.threads = 2});
    const std::vector<std::string> lines = small_mixed_batch();
    std::set<u64> ids[2];
    auto run = [&](int k) {
        for (const serve::response_row& row : svc.evaluate(lines)) {
            ids[k].insert(row.trace.trace_id);
        }
    };
    std::thread a(run, 0);
    std::thread b(run, 1);
    a.join();
    b.join();
    tracer.disable();
    tracer.reset();

    ASSERT_EQ(ids[0].size(), lines.size());
    ASSERT_EQ(ids[1].size(), lines.size());
    for (const u64 id : ids[0]) {
        EXPECT_NE(id, 0u);
        EXPECT_EQ(ids[1].count(id), 0u) << "trace id " << id << " minted twice";
    }
}

TEST(transport_streaming, client_hangup_mid_batch_counts_an_abort) {
    // The client fires a batch whose response cannot fit the socket buffer
    // and hangs up without reading a byte. The service must notice the dead
    // connection (EPIPE => badbit), stop serving it, and count the abort —
    // not spin, not crash, not block forever.
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("hangup");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    serve::service svc({.threads = 2});
    std::thread server([&] {
        serve::serve_connections(svc, *lis, {.max_connections = 1, .framed = true});
    });

    auto client = serve::connect_endpoint(lis->address());
    ASSERT_NE(client, nullptr);
    // 500 repeats => ~200 KiB of response rows, past a default unix socket
    // buffer, so the server's writes cannot all land in the kernel.
    *client << R"({"scenario":"vanilla","workload":"hmmer","instructions":3000,)"
            << R"("seed":3,"repeats":500})" << '\n'
            << '\n';
    client->flush();
    client.reset();  // full close, nothing read
    server.join();   // a hang here is the regression

    const obs::metrics_snapshot snap = svc.stats_snapshot();
    ASSERT_NE(snap.counter_value("service.client_aborts"), nullptr);
    EXPECT_EQ(*snap.counter_value("service.client_aborts"), 1u);
}

TEST(gateway, streaming_merge_with_shed_rows_matches_buffered) {
    // Admission at the gateway: 2 of 4 parseable lines shed (queue cap),
    // settling locally as overloaded rows among real worker rows, and the
    // streamed concatenation must equal the buffered merge byte for byte.
    serve::gateway_options opts;
    opts.workers = 2;
    opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
    opts.admission.enabled = true;
    opts.admission.max_queue_lines = 2;
    opts.admission.retry_after_ms = 50;

    const std::vector<std::string> lines = {
        R"({"id":"a","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"id":"b","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4,"repeats":2})",
        R"(}{ not json)",
        R"({"id":"c","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":3})",
        R"({"id":"d","scenario":"vanilla","workload":"blackscholes","instructions":6000,"seed":4})",
    };

    serve::gateway buffered(opts);
    ASSERT_TRUE(buffered.ok());
    serve::gateway_stats bstats;
    const std::vector<std::string> brows = buffered.evaluate(lines, &bstats);
    ASSERT_EQ(brows.size(), 6u) << "2 admitted (3 rows) + 1 parse error + 2 shed";
    EXPECT_EQ(bstats.shed, 2u);

    // Lines 0 and 1 admitted; the parse error bypasses admission; 3 and 4
    // find the queue full (admitted lines retire at end of batch).
    for (const std::size_t k : {0u, 1u, 2u}) {
        const auto row = serve::parse_response(brows[k]);
        ASSERT_TRUE(row.has_value()) << brows[k];
        EXPECT_TRUE(row->error.empty()) << brows[k];
    }
    const auto parse_err = serve::parse_response(brows[3]);
    ASSERT_TRUE(parse_err.has_value());
    EXPECT_NE(parse_err->error.find("bad json"), std::string::npos);
    for (const std::size_t k : {4u, 5u}) {
        const auto row = serve::parse_response(brows[k]);
        ASSERT_TRUE(row.has_value()) << brows[k];
        EXPECT_EQ(row->error, "overloaded") << brows[k];
        EXPECT_EQ(row->retry_after_ms, 50u);
        EXPECT_EQ(row->request_index, k - 1);
    }

    opts.streaming = true;
    serve::gateway streaming(opts);
    ASSERT_TRUE(streaming.ok());
    std::istringstream in(join_rows(lines));
    std::ostringstream out;
    const serve::gateway_stats sstats = streaming.serve_stream(in, out);
    EXPECT_EQ(out.str(), join_rows(brows))
        << "streamed merge must reproduce the buffered bytes";
    EXPECT_EQ(sstats.shed, 2u);
    EXPECT_EQ(streaming.admission().queued_lines(), 0u)
        << "admitted lines must retire at end of batch";
}

TEST(gateway, streaming_serve_batch_is_byte_identical_to_buffered) {
    const std::vector<std::string> lines = small_mixed_batch();
    std::string input;
    for (const std::string& l : lines) input += l + '\n';

    auto run = [&](bool streaming) {
        serve::gateway_options opts;
        opts.workers = 2;
        opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
        opts.streaming = streaming;
        serve::gateway gw(opts);
        EXPECT_TRUE(gw.ok());
        std::istringstream in(input);
        std::ostringstream out;
        const serve::gateway_stats stats = gw.serve_stream(in, out, /*framed=*/true);
        EXPECT_EQ(stats.requests, lines.size());
        EXPECT_EQ(stats.client_aborts, 0u);
        return out.str();
    };
    const std::string buffered = run(false);
    ASSERT_FALSE(buffered.empty());
    EXPECT_EQ(run(true), buffered);
}

TEST(gateway, batch_caps_match_the_single_process_service) {
    // A short line after an over-cap line: both front ends read batches
    // through the one serve::batch_reader, whose caps are sticky, so the
    // short third line overflows as well and the gateway's bytes and counters
    // equal the service's. The second batch starts with a fresh budget.
    const std::string a =
        R"({"id":"a","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})";
    const std::string big =
        R"({"id":"big-request-with-a-long-client-tag-that-crosses-the-byte-cap",)"
        R"("scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":4})";
    const std::string c =
        R"({"id":"c","scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":5})";
    const std::string input = a + "\n" + big + "\n" + c + "\n\n" + c + "\n";
    const serve::batch_limits caps{.max_lines = 0, .max_bytes = a.size() + c.size()};

    for (const bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streaming" : "buffered");
        serve::service_options sopts;
        sopts.threads = 2;
        sopts.limits = caps;
        sopts.streaming = streaming;
        serve::service svc(sopts);
        std::istringstream svc_in(input);
        std::ostringstream svc_out;
        const serve::batch_stats sstats = svc.serve_stream(svc_in, svc_out);

        serve::gateway_options opts;
        opts.workers = 2;
        opts.worker_argv = {MEEK_SERVE_BIN, "--framed", "--quiet"};
        opts.limits = caps;
        opts.streaming = streaming;
        serve::gateway gw(opts);
        ASSERT_TRUE(gw.ok());
        std::istringstream gw_in(input);
        std::ostringstream gw_out;
        const serve::gateway_stats gstats = gw.serve_stream(gw_in, gw_out);

        EXPECT_EQ(gw_out.str(), svc_out.str());
        EXPECT_EQ(gstats.requests, sstats.requests);
        EXPECT_EQ(gstats.rows, sstats.rows);
        EXPECT_EQ(gstats.errors, sstats.errors);
        EXPECT_EQ(gstats.shed, sstats.shed);

        // Rows: a, overloaded, overloaded (sticky), then c as batch 2's row 0.
        std::vector<serve::response_row> rows;
        std::istringstream rows_in(svc_out.str());
        for (std::string line; std::getline(rows_in, line);) {
            const auto row = serve::parse_response(line);
            ASSERT_TRUE(row.has_value()) << line;
            rows.push_back(*row);
        }
        ASSERT_EQ(rows.size(), 4u);
        EXPECT_TRUE(rows[0].error.empty());
        EXPECT_EQ(rows[1].error, "overloaded");
        EXPECT_EQ(rows[2].error, "overloaded");
        EXPECT_EQ(rows[2].request_index, 2u);
        EXPECT_TRUE(rows[3].error.empty());
        EXPECT_EQ(rows[3].id, "c");
        EXPECT_EQ(sstats.requests, 4u);
        EXPECT_EQ(sstats.shed, 2u);
    }
}

}  // namespace
}  // namespace meek

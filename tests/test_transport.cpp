// Transport conformance suite: the end-to-end contracts of the serve byte-
// stream layer.
//
//   * endpoint parsing and the socket/pipe stream primitives;
//   * a meek_serve network daemon (unix + tcp) speaking framed batches, CRLF
//     clients framing identically to LF clients, and a fixed accept pool
//     serving concurrent clients;
//   * a meek_serve child process (MEEK_SERVE_BIN, injected by CMake) driven
//     over plain stdio pipes, the process transport of sharded search;
//   * streaming and overload behaviour observed on the wire.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cstring>

#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/transport.h"

namespace meek {
namespace {

// A per-test unix socket path under the test temp dir, short enough for
// sockaddr_un.
std::string socket_path(const std::string& tag) {
    return ::testing::TempDir() + "meek_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

// The reference rows every transport must reproduce byte for byte.
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

TEST(transport_socket, half_closed_batch_without_terminator_is_still_answered) {
    // EOF ends a batch as well as a blank line does: a client that sends its
    // lines, half-closes and reads to EOF gets every row plus the framed
    // batch's terminator. The EOF on the read side must not fail the writes.
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("half_close");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);
    serve::service svc({.threads = 2});
    std::thread server([&] { serve::serve_connections(svc, *lis, {.max_connections = 1}); });

    const std::vector<std::string> lines = small_mixed_batch();
    auto client = serve::connect_endpoint(lis->address());
    ASSERT_NE(client, nullptr);
    for (const std::string& line : lines) *client << line << '\n';
    client->close_write();

    std::string got;
    for (std::string row; std::getline(*client, row);) {
        got += row;
        got += '\n';
    }
    EXPECT_EQ(got, single_process_rows(lines) + "\n");
    client.reset();
    server.join();
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

TEST(transport_process, meek_serve_child_round_trips_a_batch_over_stdio) {
    std::string error;
    auto child = serve::child_process::spawn({MEEK_SERVE_BIN, "--quiet"}, &error);
    ASSERT_NE(child, nullptr) << error;

    const std::vector<std::string> lines = {
        R"({"scenario":"vanilla","workload":"hmmer","instructions":6000,"seed":3})",
        R"({"scenario":"meek/f2/opt/2","workload":"hmmer","instructions":6000,"seed":3})",
    };
    for (const std::string& line : lines) child->io() << line << '\n';
    child->close_stdin();  // EOF ends the batch and the session

    std::string got;
    std::string row;
    while (std::getline(child->io(), row)) {
        got += row;
        got += '\n';
    }
    EXPECT_EQ(got, single_process_rows(lines));
    EXPECT_EQ(child->wait(), 0);
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
            {.max_connections = 2, .accept_threads = 2});
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
        serve::serve_connections(svc, *lis, {.max_connections = 1});
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

TEST(transport_streaming, batch_cap_sheds_in_slot_after_a_streamed_row) {
    // With a one-line batch cap, line 0's row streams back mid-batch, and
    // line 1 — sent only after that row arrived — still sheds as an in-slot
    // overloaded row, exactly as in a buffered batch.
    serve::endpoint_address addr;
    addr.kind = serve::endpoint_kind::unix_socket;
    addr.path = socket_path("stream_batch_cap");
    auto lis = serve::listener::open(addr);
    ASSERT_NE(lis, nullptr);

    serve::service_options sopts;
    sopts.threads = 2;
    sopts.streaming = true;
    sopts.limits.max_lines = 1;
    serve::service svc(sopts);
    serve::serve_connections_stats served;
    std::thread server([&] {
        served = serve::serve_connections(svc, *lis, {.max_connections = 1});
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
    EXPECT_EQ(second->retry_after_ms, 100u) << row1;

    client->close_write();
    client.reset();
    server.join();
    EXPECT_EQ(served.shed, 1u);
    const obs::metrics_snapshot snap = svc.stats_snapshot();
    ASSERT_NE(snap.counter_value("service.shed"), nullptr);
    EXPECT_EQ(*snap.counter_value("service.shed"), 1u);
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
        serve::serve_connections(svc, *lis, {.max_connections = 1});
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

}  // namespace
}  // namespace meek

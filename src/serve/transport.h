// Serve transports: the byte-stream layer under the NDJSON wire protocol.
//
// The protocol itself (serve/protocol.h) is transport-agnostic — batches of
// request lines in, response rows out. This header provides the streams those
// batches travel over:
//
//   * `fd_stream`    — a std::iostream over POSIX file descriptors (a socket,
//                      or a pipe pair to a child process), with a half-close
//                      (`close_write`) so a client can signal end-of-input
//                      while still draining responses;
//   * `listener`     — a bound TCP or Unix-domain socket accepting one
//                      `fd_stream` per client connection;
//   * `connect_endpoint` — the client side of the same two address families;
//   * `child_process`    — a worker subprocess with its stdin/stdout wired to
//                      an `fd_stream` (a `meek_serve` child over stdio);
//   * `serve_connections` — the accept loop that turns a serve::service into
//                      a network daemon (`meek_serve --listen`).
//
// Endpoint addresses are spelled
//   "tcp:HOST:PORT"  (or plain "HOST:PORT"; port 0 binds an ephemeral port)
//   "unix:PATH"      (Unix-domain stream socket)
//
// Over sockets response batches are always *framed*: the rows of one batch
// are followed by a single blank line, mirroring the request framing, so a
// client can detect end-of-batch without counting rows and a truncated
// stream (a dead daemon) is distinguishable from a complete one. Stdio stays
// unframed for diffable golden output.
//
// POSIX-only by design; the first stream construction ignores SIGPIPE
// process-wide so a dead peer surfaces as a stream error, not a signal.
#pragma once

#include <atomic>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace meek::serve {

class service;

// ------------------------------------------------------------- addresses ---

enum class endpoint_kind : u8 { tcp, unix_socket };

struct endpoint_address {
    endpoint_kind kind = endpoint_kind::tcp;
    std::string host;  // tcp only
    u16 port = 0;      // tcp only; 0 => ephemeral (listeners)
    std::string path;  // unix only

    std::string describe() const;
};

// Parse "tcp:HOST:PORT", "HOST:PORT", ":PORT" (host => 127.0.0.1) or
// "unix:PATH". Returns nullopt and sets `error` on a malformed spec.
std::optional<endpoint_address> parse_endpoint(std::string_view spec,
                                               std::string* error = nullptr);

// -------------------------------------------------------------- fd stream ---

// Buffered std::iostream over a (read fd, write fd) pair — the same fd twice
// for a socket, two pipe ends for a child process. Owns and closes the fds.
class fd_stream : public std::iostream {
public:
    // `write_is_socket` selects shutdown(SHUT_WR) vs close() in close_write().
    fd_stream(int read_fd, int write_fd, bool write_is_socket);
    ~fd_stream() override;

    fd_stream(const fd_stream&) = delete;
    fd_stream& operator=(const fd_stream&) = delete;

    // Half-close: flush and signal EOF to the peer while keeping the read
    // side open. The blank-line batch protocol needs this to say "no more
    // batches" and still drain the last rows.
    void close_write();

private:
    class buf;
    std::unique_ptr<buf> buf_;
};

// --------------------------------------------------------------- sockets ---

// A bound, listening server socket. `open` returns nullptr and sets `error`
// when binding fails (address in use, bad path, a unix path held by a live
// daemon or occupied by a non-socket file, ...). A unix path left behind by
// a dead daemon is detected by a probe connect and reclaimed.
class listener {
public:
    ~listener();
    listener(const listener&) = delete;
    listener& operator=(const listener&) = delete;

    static std::unique_ptr<listener> open(const endpoint_address& addr,
                                          std::string* error = nullptr);

    // Block for the next client; nullptr once close() was called or on a
    // fatal accept error.
    std::unique_ptr<fd_stream> accept();

    // The address actually bound — for tcp port 0 this carries the kernel-
    // assigned port, which is what a test or a log line needs to publish.
    const endpoint_address& address() const { return addr_; }

    // Stop accepting: wakes a blocked accept(), which then returns nullptr.
    // Safe to call from another thread (the shutdown path of a daemon); the
    // fd is only closed — and a unix socket path only unlinked — by the
    // destructor, so no accept() can race a recycled descriptor.
    void close();

private:
    listener(int fd, endpoint_address addr) : fd_(fd), addr_(std::move(addr)) {}
    const int fd_;
    std::atomic<bool> closing_{false};
    endpoint_address addr_;
};

// Client side: connect to a listening endpoint. nullptr + `error` on failure.
std::unique_ptr<fd_stream> connect_endpoint(const endpoint_address& addr,
                                            std::string* error = nullptr);

// --------------------------------------------------------- child process ---

// A worker subprocess: argv[0] is resolved via PATH, the child's stdin is the
// stream's write side and its stdout the read side; stderr passes through.
class child_process {
public:
    ~child_process();  // closes the stream and reaps the child (best effort)
    child_process(const child_process&) = delete;
    child_process& operator=(const child_process&) = delete;

    static std::unique_ptr<child_process> spawn(const std::vector<std::string>& argv,
                                                std::string* error = nullptr);

    fd_stream& io() { return *io_; }
    void close_stdin() { io_->close_write(); }

    // Wait for exit; returns the exit status (or -signal when killed). Safe
    // to call once; subsequent calls return the cached status.
    int wait();

private:
    child_process(int pid, std::unique_ptr<fd_stream> io)
        : pid_(pid), io_(std::move(io)) {}
    int pid_ = -1;
    std::unique_ptr<fd_stream> io_;
    bool reaped_ = false;
    int status_ = -1;
};

// ------------------------------------------------------------ accept loop ---

struct serve_connections_options {
    u64 max_connections = 0;  // 0 => until close()/accept failure
    // Connections served simultaneously (floored at 1): a small fixed accept
    // pool. The listener stops accepting while `accept_threads` connections
    // are open, so the pool size is also the concurrent-client cap.
    u32 accept_threads = 4;
};

struct serve_connections_stats {
    u64 connections = 0;
    u64 requests = 0;
    u64 rows = 0;
    u64 errors = 0;
    u64 jobs = 0;
};

// The network daemon loop: accept clients onto a fixed pool of handler
// threads, each running svc.serve_stream until its client's EOF (the service
// is shared — its executor, caches and stats are all thread-safe). Returns
// once `max_connections` clients were served or the listener was closed
// (from another thread, for shutdown).
//
// The `max_connections` budget is enforced per connection, not per process:
// a budget slot is reserved when a connection is accepted and refunded if the
// connection turns out to be a probe (zero requests — a health check, or
// another listener::open deciding whether this path is live), so probes can
// never shut a live daemon down. Once the budget is reserved the loop stops
// accepting, waits for the in-flight connections to drain, and returns.
serve_connections_stats serve_connections(service& svc, listener& lis,
                                          const serve_connections_options& opts = {});

}  // namespace meek::serve

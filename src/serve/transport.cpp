#include "serve/transport.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <condition_variable>
#include <deque>
#include <ios>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/service.h"

namespace meek::serve {
namespace {

// A dead peer must surface as a failed write (EPIPE -> stream error state),
// not a process-killing SIGPIPE. Installed once, before the first fd is
// wrapped in a stream.
void ignore_sigpipe() {
    static std::once_flag once;
    std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

void set_error(std::string* error, const std::string& what) {
    if (error) *error = what + ": " + std::strerror(errno);
}

bool parse_port(std::string_view text, u16* port) {
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() || value > 65535) {
        return false;
    }
    *port = static_cast<u16>(value);
    return true;
}

}  // namespace

// ------------------------------------------------------------- addresses ---

std::string endpoint_address::describe() const {
    if (kind == endpoint_kind::unix_socket) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

std::optional<endpoint_address> parse_endpoint(std::string_view spec,
                                               std::string* error) {
    endpoint_address addr;
    if (spec.rfind("unix:", 0) == 0) {
        addr.kind = endpoint_kind::unix_socket;
        addr.path = std::string(spec.substr(5));
        if (addr.path.empty()) {
            if (error) *error = "unix endpoint wants unix:PATH";
            return std::nullopt;
        }
        return addr;
    }
    if (spec.rfind("tcp:", 0) == 0) spec.remove_prefix(4);
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos || !parse_port(spec.substr(colon + 1), &addr.port)) {
        if (error) *error = "endpoint wants tcp:HOST:PORT, HOST:PORT or unix:PATH";
        return std::nullopt;
    }
    addr.kind = endpoint_kind::tcp;
    addr.host = std::string(spec.substr(0, colon));
    if (addr.host.empty()) addr.host = "127.0.0.1";
    return addr;
}

// -------------------------------------------------------------- fd stream ---

// Fixed-size buffered streambuf over the fd pair. Reads and writes retry on
// EINTR; any other failure puts the stream in an error/EOF state.
class fd_stream::buf : public std::streambuf {
public:
    buf(int read_fd, int write_fd, bool write_is_socket)
        : read_fd_(read_fd), write_fd_(write_fd), write_is_socket_(write_is_socket) {
        setg(rbuf_, rbuf_, rbuf_);
        setp(wbuf_, wbuf_ + sizeof wbuf_);
    }

    ~buf() override {
        sync();
        close_write();
        if (read_fd_ >= 0) ::close(read_fd_);
        read_fd_ = -1;
    }

    void close_write() {
        sync();
        if (write_fd_ < 0) return;
        if (write_is_socket_) {
            // The socket fd doubles as the read side; only shut the write
            // half down so responses can still be drained.
            ::shutdown(write_fd_, SHUT_WR);
            if (write_fd_ != read_fd_) ::close(write_fd_);
        } else {
            ::close(write_fd_);
        }
        write_fd_ = -1;
    }

protected:
    int underflow() override {
        if (read_fd_ < 0) return traits_type::eof();
        ssize_t n;
        do {
            n = ::read(read_fd_, rbuf_, sizeof rbuf_);
        } while (n < 0 && errno == EINTR);
        if (n == 0) return traits_type::eof();  // clean end-of-stream
        if (n < 0) {
            // A real I/O error (reset connection, bad fd) must not read as a
            // polite hang-up: throwing here makes istream extraction set
            // badbit (the default exception mask swallows the throw), so
            // batch_reader::stream_error can tell the two apart.
            throw std::ios_base::failure("fd_stream read error");
        }
        setg(rbuf_, rbuf_, rbuf_ + n);
        return traits_type::to_int_type(rbuf_[0]);
    }

    int overflow(int ch) override {
        if (!flush_pending()) return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return 0;
    }

    int sync() override { return flush_pending() ? 0 : -1; }

private:
    bool flush_pending() {
        const char* data = pbase();
        std::size_t left = static_cast<std::size_t>(pptr() - pbase());
        while (left > 0) {
            if (write_fd_ < 0) return false;
            ssize_t n;
            do {
                n = ::write(write_fd_, data, left);
            } while (n < 0 && errno == EINTR);
            if (n <= 0) return false;
            data += n;
            left -= static_cast<std::size_t>(n);
        }
        setp(wbuf_, wbuf_ + sizeof wbuf_);
        return true;
    }

    int read_fd_;
    int write_fd_;
    bool write_is_socket_;
    char rbuf_[16384];
    char wbuf_[16384];
};

fd_stream::fd_stream(int read_fd, int write_fd, bool write_is_socket)
    : std::iostream(nullptr),
      buf_(std::make_unique<buf>(read_fd, write_fd, write_is_socket)) {
    ignore_sigpipe();
    rdbuf(buf_.get());
}

fd_stream::~fd_stream() = default;

void fd_stream::close_write() {
    flush();
    buf_->close_write();
}

// --------------------------------------------------------------- sockets ---

namespace {

// Build the sockaddr for `addr`; returns the socket family or -1.
int fill_sockaddr(const endpoint_address& addr, sockaddr_storage* storage,
                  socklen_t* len, std::string* error) {
    std::memset(storage, 0, sizeof *storage);
    if (addr.kind == endpoint_kind::unix_socket) {
        auto* sun = reinterpret_cast<sockaddr_un*>(storage);
        if (addr.path.size() >= sizeof sun->sun_path) {
            if (error) *error = "unix socket path too long: " + addr.path;
            return -1;
        }
        sun->sun_family = AF_UNIX;
        std::memcpy(sun->sun_path, addr.path.c_str(), addr.path.size() + 1);
        *len = sizeof(sockaddr_un);
        return AF_UNIX;
    }
    auto* sin = reinterpret_cast<sockaddr_in*>(storage);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sin->sin_addr) != 1) {
        // Not a numeric IPv4 literal: resolve the hostname ("tcp:HOST:PORT"
        // is documented to take names, not just addresses).
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* results = nullptr;
        const int rc = ::getaddrinfo(addr.host.c_str(), nullptr, &hints, &results);
        if (rc != 0 || results == nullptr) {
            if (error) {
                *error = "cannot resolve host '" + addr.host +
                         "': " + ::gai_strerror(rc);
            }
            if (results) ::freeaddrinfo(results);
            return -1;
        }
        sin->sin_addr = reinterpret_cast<sockaddr_in*>(results->ai_addr)->sin_addr;
        ::freeaddrinfo(results);
    }
    *len = sizeof(sockaddr_in);
    return AF_INET;
}

}  // namespace

listener::~listener() {
    close();
    ::close(fd_);
    if (addr_.kind == endpoint_kind::unix_socket) ::unlink(addr_.path.c_str());
}

namespace {

// Reclaiming a unix socket path must not steal a live daemon's endpoint or
// delete an unrelated file: only a path that is a socket nobody answers on
// (a dead daemon's leftover) may be unlinked.
bool reclaim_stale_unix_path(const endpoint_address& addr, std::string* error) {
    struct stat st;
    if (::lstat(addr.path.c_str(), &st) != 0) return true;  // nothing there
    if (!S_ISSOCK(st.st_mode)) {
        if (error) {
            *error = "path '" + addr.path + "' exists and is not a socket";
        }
        return false;
    }
    if (std::unique_ptr<fd_stream> live = connect_endpoint(addr)) {
        if (error) {
            *error = "address in use: a daemon is live on " + addr.describe();
        }
        return false;
    }
    ::unlink(addr.path.c_str());
    return true;
}

}  // namespace

std::unique_ptr<listener> listener::open(const endpoint_address& addr,
                                         std::string* error) {
    ignore_sigpipe();
    sockaddr_storage storage;
    socklen_t len = 0;
    const int family = fill_sockaddr(addr, &storage, &len, error);
    if (family < 0) return nullptr;

    if (family == AF_UNIX && !reclaim_stale_unix_path(addr, error)) return nullptr;

    const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        set_error(error, "socket");
        return nullptr;
    }
    if (family == AF_INET) {
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len) != 0 ||
        ::listen(fd, 16) != 0) {
        set_error(error, "bind/listen on " + addr.describe());
        ::close(fd);
        return nullptr;
    }

    endpoint_address bound = addr;
    if (family == AF_INET && addr.port == 0) {
        sockaddr_in sin;
        socklen_t sin_len = sizeof sin;
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &sin_len) == 0) {
            bound.port = ntohs(sin.sin_port);
        }
    }
    return std::unique_ptr<listener>(new listener(fd, std::move(bound)));
}

std::unique_ptr<fd_stream> listener::accept() {
    for (;;) {
        if (closing_.load()) return nullptr;
        const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (client >= 0) {
            if (closing_.load()) {  // close() raced the handshake
                ::close(client);
                return nullptr;
            }
            return std::make_unique<fd_stream>(client, client, /*write_is_socket=*/true);
        }
        if (errno == EINTR) continue;
        // Transient failures must not kill a long-running daemon: a client
        // aborting mid-handshake or a momentary fd-limit spike leaves the
        // listening socket perfectly healthy.
        if (errno == ECONNABORTED || errno == EPROTO) continue;
        if (errno == EMFILE || errno == ENFILE) {
            ::usleep(10'000);  // let some fds drain before retrying
            continue;
        }
        return nullptr;  // shut down under us, or a fatal accept error
    }
}

void listener::close() {
    if (closing_.exchange(true)) return;
    // shutdown() wakes a blocked accept(); the fd stays open until the
    // destructor so a concurrent accept() can never touch a recycled
    // descriptor.
    ::shutdown(fd_, SHUT_RDWR);
}

std::unique_ptr<fd_stream> connect_endpoint(const endpoint_address& addr,
                                            std::string* error) {
    ignore_sigpipe();
    sockaddr_storage storage;
    socklen_t len = 0;
    const int family = fill_sockaddr(addr, &storage, &len, error);
    if (family < 0) return nullptr;
    const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        set_error(error, "socket");
        return nullptr;
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&storage), len);
    if (rc != 0 && errno == EINTR) {
        // POSIX: an interrupted connect proceeds asynchronously; retrying it
        // would fail with EALREADY. Wait for writability, then read the
        // handshake's outcome from SO_ERROR.
        pollfd pfd{fd, POLLOUT, 0};
        while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
        }
        int so_error = 0;
        socklen_t so_len = sizeof so_error;
        rc = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
        if (rc == 0 && so_error != 0) {
            errno = so_error;
            rc = -1;
        }
    }
    if (rc != 0) {
        set_error(error, "connect to " + addr.describe());
        ::close(fd);
        return nullptr;
    }
    return std::make_unique<fd_stream>(fd, fd, /*write_is_socket=*/true);
}

// --------------------------------------------------------- child process ---

child_process::~child_process() {
    if (pid_ < 0 || reaped_) return;
    // Closing the pipes is the polite shutdown signal (EOF on the child's
    // stdin); reap without blocking forever only if the child already exited,
    // else force it down — a destructor must not hang the parent.
    io_.reset();
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    reaped_ = true;
}

std::unique_ptr<child_process> child_process::spawn(
    const std::vector<std::string>& argv, std::string* error) {
    ignore_sigpipe();
    if (argv.empty()) {
        if (error) *error = "spawn wants a non-empty argv";
        return nullptr;
    }
    // O_CLOEXEC: a worker spawned later must not inherit earlier workers'
    // pipe ends, or closing one child's stdin would no longer deliver EOF
    // while its siblings live. dup2 clears the flag on the child's own stdio.
    int to_child[2] = {-1, -1};    // parent writes -> child stdin
    int from_child[2] = {-1, -1};  // child stdout -> parent reads
    if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0) {
        set_error(error, "pipe");
        if (to_child[0] >= 0) ::close(to_child[0]);
        if (to_child[1] >= 0) ::close(to_child[1]);
        return nullptr;
    }

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);

    const int pid = ::fork();
    if (pid < 0) {
        set_error(error, "fork");
        for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
            ::close(fd);
        }
        return nullptr;
    }
    if (pid == 0) {
        // Child: wire the pipes, drop the parent ends, exec. Only
        // async-signal-safe calls between fork and exec. A pipe fd can land
        // on 0/1 when the parent runs with stdio closed (a daemonized
        // front-end); dup2 on equal fds would keep O_CLOEXEC set, so clear
        // it in place instead.
        const auto wire = [](int fd, int target) {
            if (fd == target) {
                ::fcntl(fd, F_SETFD, 0);
            } else {
                ::dup2(fd, target);
            }
        };
        wire(to_child[0], STDIN_FILENO);
        wire(from_child[1], STDOUT_FILENO);
        for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
            if (fd != STDIN_FILENO && fd != STDOUT_FILENO) ::close(fd);
        }
        ::execvp(cargv[0], cargv.data());
        // exec failed: report on the inherited stderr and die without running
        // any parent-owned atexit handlers.
        const char* msg = "meek transport: exec failed: ";
        ssize_t rc = ::write(STDERR_FILENO, msg, std::strlen(msg));
        rc = ::write(STDERR_FILENO, cargv[0], std::strlen(cargv[0]));
        rc = ::write(STDERR_FILENO, "\n", 1);
        (void)rc;
        ::_exit(127);
    }

    ::close(to_child[0]);
    ::close(from_child[1]);
    auto io = std::make_unique<fd_stream>(from_child[0], to_child[1],
                                          /*write_is_socket=*/false);
    return std::unique_ptr<child_process>(new child_process(pid, std::move(io)));
}

int child_process::wait() {
    if (reaped_) return status_;
    int status = 0;
    int rc;
    do {
        rc = ::waitpid(pid_, &status, 0);
    } while (rc < 0 && errno == EINTR);
    reaped_ = true;
    if (rc < 0) {
        status_ = -1;
    } else if (WIFEXITED(status)) {
        status_ = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        status_ = -WTERMSIG(status);
    } else {
        status_ = -1;
    }
    return status_;
}

// ------------------------------------------------------------ accept loop ---

serve_connections_stats serve_connections(service& svc, listener& lis,
                                          const serve_connections_options& opts) {
    // Shared accept-pool state. `reserved` is the number of --max-connections
    // budget slots handed out (refunded for probes); `counted` the
    // connections that actually carried requests.
    struct accept_state {
        std::mutex mutex;
        std::condition_variable work;  // handlers: a connection is queued / shutdown
        std::condition_variable slot;  // acceptor: a handler freed a slot
        std::deque<std::unique_ptr<fd_stream>> queue;
        bool done = false;
        u64 reserved = 0;
        u64 counted = 0;
        std::size_t active = 0;  // connections a handler is currently serving
        serve_connections_stats total;
    } st;
    const std::size_t pool = std::max<u32>(1, opts.accept_threads);
    const u64 max = opts.max_connections;

    std::vector<std::thread> handlers;
    handlers.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) {
        handlers.emplace_back([&svc, &st, max] {
            for (;;) {
                std::unique_ptr<fd_stream> client;
                {
                    std::unique_lock<std::mutex> lock(st.mutex);
                    st.work.wait(lock, [&st] { return st.done || !st.queue.empty(); });
                    if (st.queue.empty()) return;  // done and drained
                    client = std::move(st.queue.front());
                    st.queue.pop_front();
                    ++st.active;
                }
                // Separate stream states over the one socket buffer: a client
                // that half-closes without a blank terminator leaves the read
                // side at EOF, which must not also fail the last batch's rows.
                std::istream in(client->rdbuf());
                std::ostream out(client->rdbuf());
                const batch_stats s = svc.serve_stream(in, out, /*framed=*/true);
                client.reset();  // flush + close before releasing the slot
                {
                    std::lock_guard<std::mutex> lock(st.mutex);
                    --st.active;
                    if (s.requests == 0) {
                        // A probe: refund its budget slot so a health check
                        // can never shut a live daemon down.
                        if (max != 0) --st.reserved;
                    } else {
                        ++st.counted;
                        st.total.connections = st.counted;
                        st.total.requests += s.requests;
                        st.total.rows += s.rows;
                        st.total.errors += s.errors;
                        st.total.jobs += s.jobs;
                        st.total.shed += s.shed;
                    }
                }
                st.slot.notify_all();
            }
        });
    }

    for (;;) {
        {
            std::unique_lock<std::mutex> lock(st.mutex);
            st.slot.wait(lock, [&st, pool, max] {
                const bool slot_free = st.queue.size() + st.active < pool;
                const bool budget_open = max == 0 || st.reserved < max;
                const bool drained =
                    max != 0 && st.reserved >= max && st.active == 0 && st.queue.empty();
                return (slot_free && budget_open) || drained;
            });
            if (max != 0 && st.reserved >= max && st.active == 0 && st.queue.empty()) {
                break;  // budget spent and every connection settled
            }
        }
        std::unique_ptr<fd_stream> client = lis.accept();
        if (!client) break;  // closed from another thread, or fatal accept error
        {
            std::lock_guard<std::mutex> lock(st.mutex);
            if (max != 0) ++st.reserved;
            st.queue.push_back(std::move(client));
        }
        st.work.notify_one();
    }

    {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.done = true;
    }
    st.work.notify_all();
    for (std::thread& t : handlers) t.join();
    return st.total;
}

}  // namespace meek::serve

#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "serve/json.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/// Writes all of `data` (MSG_NOSIGNAL so a vanished client cannot kill the
/// daemon even before the SIGPIPE ignore is installed).
bool send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

JsonValue status_to_json(const JobStatus& s) {
    JsonObject o;
    o["ok"] = JsonValue(true);
    o["id"] = JsonValue(std::uint64_t{s.id});
    o["state"] = JsonValue(std::string(job_state_name(s.state)));
    o["key"] = JsonValue(s.key);
    o["progress"] = JsonValue(s.progress);
    o["cached"] = JsonValue(s.cache_hit);
    o["queue_seconds"] = JsonValue(s.queue_seconds);
    o["run_seconds"] = JsonValue(s.run_seconds);
    if (!s.artifact.empty()) o["artifact"] = JsonValue(s.artifact);
    if (!s.error.empty()) o["error"] = JsonValue(s.error);
    return JsonValue(std::move(o));
}

std::string error_line(const std::string& message) {
    JsonObject o;
    o["ok"] = JsonValue(false);
    o["error"] = JsonValue(message);
    return JsonValue(std::move(o)).dump() + "\n";
}

std::uint64_t require_id(const JsonValue& req) {
    const JsonValue* id = req.find("id");
    if (!id) throw std::runtime_error("missing \"id\"");
    return id->as_uint();
}

/// Wire form of a telemetry histogram (counts exact, quantiles within the
/// bucketing's 12.5% bound). All zeros when telemetry is compiled out.
JsonValue histogram_json(const telemetry::Histogram& h) {
    JsonObject o;
    o["count"] = JsonValue(h.count());
    o["sum_ns"] = JsonValue(h.sum());
    o["min_ns"] = JsonValue(h.min());
    o["max_ns"] = JsonValue(h.max());
    o["p50_ns"] = JsonValue(h.quantile(0.50));
    o["p95_ns"] = JsonValue(h.quantile(0.95));
    o["p99_ns"] = JsonValue(h.quantile(0.99));
    return JsonValue(std::move(o));
}

}  // namespace

struct Daemon::Impl {
    /// One client connection. Its thread never closes the fd: the fd stays
    /// reserved until the thread is joined, so a shutdown() at stop can
    /// never hit a number the process has since reused.
    struct Connection {
        int fd = -1;
        std::thread thread;
        bool done = false;  ///< the thread has finished (guarded by mutex)
    };

    int listen_fd = -1;
    std::mutex mutex;  ///< guards `connections` and every `done`
    std::list<Connection> connections;  ///< stable addresses for the threads

    /// Joins the finished connection threads and closes their fds, so a
    /// long-lived daemon holds threads and fds only for open connections.
    /// Called with `mutex` held; a finished thread no longer needs it.
    void reap_finished() {
        for (auto it = connections.begin(); it != connections.end();) {
            if (!it->done) {
                ++it;
                continue;
            }
            it->thread.join();
            ::close(it->fd);
            it = connections.erase(it);
        }
    }
};

Daemon::Daemon(DaemonOptions opt)
    : opt_(std::move(opt)), server_(opt_.server) {}

Daemon::~Daemon() = default;

void Daemon::stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

void Daemon::run() {
    ::signal(SIGPIPE, SIG_IGN);

    const sockaddr_un addr = make_addr(opt_.socket_path);

    // A socket file may be left behind by a crashed daemon. Probe it: if
    // nobody answers, it is stale and safe to reclaim; if a peer accepts,
    // a live daemon owns the path and we must not steal it.
    {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe < 0) throw_errno("socket");
        const int rc = ::connect(
            probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
        ::close(probe);
        if (rc == 0) {
            throw std::runtime_error("daemon already running on " +
                                     opt_.socket_path);
        }
        ::unlink(opt_.socket_path.c_str());
    }

    Impl impl;
    impl_ = &impl;
    stop_.store(false, std::memory_order_relaxed);
    impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (impl.listen_fd < 0) {
        impl_ = nullptr;
        throw_errno("socket");
    }
    if (::bind(impl.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(impl.listen_fd, 64) != 0) {
        const int saved = errno;
        ::close(impl.listen_fd);
        impl_ = nullptr;
        errno = saved;
        throw_errno("bind " + opt_.socket_path);
    }

    server_.start();

    // Accept loop: poll with a short timeout so a stop() from a signal
    // handler or a shutdown command is observed promptly.
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{impl.listen_fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR) continue;
            break;
        }
        std::lock_guard<std::mutex> lock(impl.mutex);
        impl.reap_finished();
        if (rc == 0 || !(pfd.revents & POLLIN)) continue;
        const int fd = ::accept(impl.listen_fd, nullptr, nullptr);
        if (fd < 0) continue;
        Impl::Connection& conn = impl.connections.emplace_back();
        conn.fd = fd;
        conn.thread = std::thread([this, &conn] {
            handle_connection(conn.fd);
            std::lock_guard<std::mutex> done_lock(impl_->mutex);
            conn.done = true;
        });
    }

    ::close(impl.listen_fd);
    // Cancels queued and running jobs; wakes any connection thread blocked
    // in a "result wait" (the jobs it waits on become terminal).
    server_.shutdown();
    {
        std::lock_guard<std::mutex> lock(impl.mutex);
        for (const auto& conn : impl.connections) ::shutdown(conn.fd, SHUT_RDWR);
    }
    // The accept loop is over, so the list no longer changes; the threads
    // only take the mutex to mark themselves done.
    for (auto& conn : impl.connections) {
        conn.thread.join();
        ::close(conn.fd);
    }
    ::unlink(opt_.socket_path.c_str());
    impl_ = nullptr;
}

void Daemon::handle_connection(int fd) {
    // A request line longer than this is answered with an error and the
    // connection is closed, so one client cannot grow the buffer unbounded.
    constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
    std::string buf;
    std::size_t scanned = 0;  // prefix of buf known to hold no newline
    char chunk[4096];
    bool open = true;
    while (open) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = std::string::npos;
        while (open && (pos = buf.find('\n', scanned)) != std::string::npos &&
               pos <= kMaxLineBytes) {
            const std::string line = buf.substr(0, pos);
            buf.erase(0, pos + 1);
            scanned = 0;
            if (line.empty()) continue;
            bool want_shutdown = false;
            const std::string response = handle_line(line, want_shutdown);
            if (!send_all(fd, response)) open = false;
            if (want_shutdown) {
                stop_.store(true, std::memory_order_relaxed);
                open = false;  // response is out; let the accept loop wind down
            }
        }
        if (!open) break;
        // No complete line is left; the pending one may not outgrow the cap.
        if ((pos == std::string::npos ? buf.size() : pos) > kMaxLineBytes) {
            send_all(fd, error_line("request line longer than " +
                                    std::to_string(kMaxLineBytes) + " bytes"));
            break;
        }
        scanned = buf.size();
    }
}

std::string Daemon::handle_line(const std::string& line, bool& want_shutdown) {
    try {
        const JsonValue req = json_parse(line);
        const JsonValue* cmd_v = req.find("cmd");
        if (!cmd_v) throw std::runtime_error("missing \"cmd\"");
        const std::string& cmd = cmd_v->as_string();

        if (cmd == "ping") {
            JsonObject o;
            o["ok"] = JsonValue(true);
            o["pong"] = JsonValue(true);
            return JsonValue(std::move(o)).dump() + "\n";
        }
        if (cmd == "submit") {
            const JobRequest r = parse_request(req);
            const std::uint64_t id = server_.submit(r);
            return status_to_json(server_.status(id)).dump() + "\n";
        }
        if (cmd == "status") {
            return status_to_json(server_.status(require_id(req))).dump() +
                   "\n";
        }
        if (cmd == "result") {
            const std::uint64_t id = require_id(req);
            const JsonValue* wait_v = req.find("wait");
            const bool do_wait = wait_v && wait_v->as_bool();
            const JobStatus s =
                do_wait ? server_.wait(id) : server_.status(id);
            return status_to_json(s).dump() + "\n";
        }
        if (cmd == "cancel") {
            const bool delivered = server_.cancel(require_id(req));
            JsonObject o;
            o["ok"] = JsonValue(true);
            o["cancelled"] = JsonValue(delivered);
            return JsonValue(std::move(o)).dump() + "\n";
        }
        if (cmd == "stats") {
            const ServerStats s = server_.stats();
            JsonObject o;
            o["ok"] = JsonValue(true);
            o["submitted"] = JsonValue(std::uint64_t{s.submitted});
            o["completed"] = JsonValue(std::uint64_t{s.completed});
            o["failed"] = JsonValue(std::uint64_t{s.failed});
            o["cancelled"] = JsonValue(std::uint64_t{s.cancelled});
            o["cache_hits"] = JsonValue(std::uint64_t{s.cache_hits});
            o["dedup_joins"] = JsonValue(std::uint64_t{s.dedup_joins});
            o["queued"] = JsonValue(std::uint64_t{s.queued});
            o["running"] = JsonValue(std::uint64_t{s.running});
            o["cache_evictions"] = JsonValue(server_.cache().evictions());
            // Richer nested views; every flat key above is kept verbatim so
            // existing stats consumers are untouched.
            JsonObject cache;
            cache["hits"] = JsonValue(server_.cache().hits());
            cache["misses"] = JsonValue(server_.cache().misses());
            cache["evictions"] = JsonValue(server_.cache().evictions());
            o["cache"] = JsonValue(std::move(cache));
            auto& reg = telemetry::Registry::instance();
            o["queue_wait"] =
                histogram_json(reg.histogram("serve.queue_wait_ns"));
            o["run"] = histogram_json(reg.histogram("serve.run_ns"));
            return JsonValue(std::move(o)).dump() + "\n";
        }
        if (cmd == "metrics") {
            // The full process-wide registry snapshot (counters + histogram
            // quantiles from every subsystem, not just serve).
            JsonObject o;
            o["ok"] = JsonValue(true);
            o["telemetry"] = json_parse(telemetry::snapshot_json());
            return JsonValue(std::move(o)).dump() + "\n";
        }
        if (cmd == "shutdown") {
            want_shutdown = true;
            JsonObject o;
            o["ok"] = JsonValue(true);
            o["stopping"] = JsonValue(true);
            return JsonValue(std::move(o)).dump() + "\n";
        }
        throw std::runtime_error("unknown cmd: " + cmd);
    } catch (const std::exception& e) {
        return error_line(e.what());
    }
}

std::string send_request(const std::string& socket_path,
                         const std::string& line) {
    ::signal(SIGPIPE, SIG_IGN);
    const sockaddr_un addr = make_addr(socket_path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("connect " + socket_path);
    }
    std::string out = line;
    if (out.empty() || out.back() != '\n') out += '\n';
    if (!send_all(fd, out)) {
        ::close(fd);
        throw std::runtime_error("send failed on " + socket_path);
    }
    std::string buf;
    char chunk[4096];
    while (buf.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t pos = buf.find('\n');
    if (pos == std::string::npos) {
        throw std::runtime_error("no response from daemon (connection closed)");
    }
    return buf.substr(0, pos);
}

}  // namespace pgl::serve

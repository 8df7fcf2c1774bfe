#pragma once
// AF_UNIX socket front end for the layout job server. The wire protocol is
// line-delimited JSON: one request object per line, one response object per
// line, always answered in order on the same connection. Every response
// carries "ok": true on success or "ok": false plus "error" on failure, so
// shell clients can gate on a single grep.
//
// Commands ("cmd" field):
//   ping      -> liveness probe
//   submit    -> {"cmd":"submit","graph":PATH,"config":{...}}; answers with
//                the job id, cache key and state ("cached": true when served
//                straight from the artifact cache)
//   status    -> {"cmd":"status","id":N}
//   result    -> {"cmd":"result","id":N[,"wait":true]}; with wait, blocks
//                this connection until the job is terminal
//   cancel    -> {"cmd":"cancel","id":N}
//   stats     -> server + cache counters
//   shutdown  -> stop accepting, cancel in-flight work, exit the run loop
//
// Connections are handled one thread each (a blocking "result wait" must
// not stall other clients); the accept loop polls so shutdown is prompt,
// and on every wakeup it joins the threads of closed connections and
// closes their fds, so threads and fds stay bounded by open connections.
#include <atomic>
#include <cstdint>
#include <string>

#include "serve/server.hpp"

namespace pgl::serve {

struct DaemonOptions {
    std::string socket_path = "pgl-serve.sock";
    ServerOptions server;
};

class Daemon {
public:
    explicit Daemon(DaemonOptions opt);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Binds the socket, starts the server, and serves until a shutdown
    /// command (or stop()) arrives. Throws std::runtime_error when the
    /// socket cannot be bound (e.g. another live daemon owns it). The
    /// socket file is removed on return.
    void run();

    /// Asks a running run() loop to exit (signal-handler / test hook).
    void stop() noexcept;

private:
    struct Impl;
    /// Serves one connection until the peer closes it; the fd is closed
    /// by the accept loop once this thread is joined.
    void handle_connection(int fd);
    std::string handle_line(const std::string& line, bool& want_shutdown);

    DaemonOptions opt_;
    Server server_;
    Impl* impl_ = nullptr;  ///< live only inside run()
    /// Set by stop() and the shutdown command; a member rather than part
    /// of Impl, so stop() never reads impl_ while run() clears it.
    std::atomic<bool> stop_{false};
};

/// One-shot client: connects to `socket_path`, sends `line` (newline
/// appended if missing), and returns the single response line. Throws
/// std::runtime_error on connect/IO failure.
std::string send_request(const std::string& socket_path,
                         const std::string& line);

}  // namespace pgl::serve

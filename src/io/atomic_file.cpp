#include "io/atomic_file.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace pgl::io {

namespace {

/// Distinct temporary names per (process, call): two writers publishing the
/// same destination concurrently must not scribble into one temporary. The
/// loser of the final rename race simply publishes second — both files were
/// complete, so the destination is always a whole artifact.
std::string temp_name_for(const std::string& path) {
    static std::atomic<std::uint64_t> counter{0};
    const auto pid = static_cast<std::uint64_t>(::getpid());
    return path + ".tmp." + std::to_string(pid) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Streams the payload straight into an existing FIFO or character device:
/// there is nothing to rename over, and the reader sees the bytes as they
/// come.
void write_through(const std::string& path,
                   const std::function<void(std::ostream&)>& writer) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open for write: " + path);
    writer(out);
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + path);
}

/// Replaced files whose last descriptor a reclaim thread still holds.
/// Past kMaxReclaims the publisher closes inline, so a loop of overwrites
/// never piles up threads or descriptors.
std::atomic<int> reclaims_in_flight{0};
constexpr int kMaxReclaims = 4;
/// Whether this process has started a reclaim thread, and whether it must
/// close every replaced file inline instead.
std::atomic<bool> reclaim_threads_started{false};
std::atomic<bool> reclaim_inline{false};

/// A child inherits the parent's held descriptors but not the threads
/// closing them: they stay open until it exits, and it counts none. If the
/// parent had started reclaim threads, one may have been running at the
/// fork, and POSIX then allows the child only async-signal-safe calls,
/// which starting a thread is not: such a child closes inline.
void on_fork_child() {
    reclaims_in_flight.store(0, std::memory_order_relaxed);
    if (reclaim_threads_started.load(std::memory_order_relaxed)) {
        reclaim_inline.store(true, std::memory_order_relaxed);
    }
}

/// Opens the file `path` names now, so the rename over it drops a
/// reference instead of the last one. -1 when there is nothing to hold
/// (no file, or one this process cannot read): the rename then frees the
/// old blocks itself, as without the hold. O_NONBLOCK keeps a FIFO swapped
/// in since the path was classified from blocking the open.
int hold_replaced(const std::string& path) {
    return ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NOFOLLOW | O_NONBLOCK);
}

/// Closes the last descriptor of a replaced file — where the kernel frees
/// (and on a `discard` mount, discards) its blocks — and records how long
/// that took in `io.reclaim_ns`.
void close_replaced(int fd, const telemetry::Histogram& reclaim_ns) {
    const std::uint64_t t0 = telemetry::now_ns();
    ::close(fd);
    reclaim_ns.record(telemetry::now_ns() - t0);
}

/// Hands the held descriptor of a file the rename just replaced to a
/// detached thread that only closes it, so the publisher returns without
/// waiting for the blocks to be freed. The two share no lock (the
/// histogram handle is resolved here, and record() is lock-free), so a
/// fork while a reclaim is in flight cannot inherit a held mutex. Past the
/// cap, or if no thread can be started, the publisher closes inline.
void reclaim_replaced(int fd) {
    if (fd < 0) return;
    static const telemetry::Histogram reclaim_ns =
        telemetry::Registry::instance().histogram("io.reclaim_ns");
    static const bool fork_handled =
        ::pthread_atfork(nullptr, nullptr, on_fork_child) == 0;
    if (fork_handled && !reclaim_inline.load(std::memory_order_relaxed)) {
        if (reclaims_in_flight.fetch_add(1, std::memory_order_relaxed) < kMaxReclaims) {
            try {
                reclaim_threads_started.store(true, std::memory_order_relaxed);
                std::thread([fd] {
                    close_replaced(fd, reclaim_ns);
                    reclaims_in_flight.fetch_sub(1, std::memory_order_release);
                }).detach();
                return;
            } catch (const std::system_error&) {
            }
        }
        reclaims_in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    close_replaced(fd, reclaim_ns);
}

void publish(const std::string& path,
             const std::function<void(std::ostream&)>& writer) {
    const std::string tmp = temp_name_for(path);
    const auto fail = [&](const std::string& what) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        throw std::runtime_error(what + ": " + path);
    };
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) fail("cannot open temporary for write");
        try {
            writer(out);
        } catch (...) {
            std::error_code ignore;
            std::filesystem::remove(tmp, ignore);
            throw;
        }
        // flush() surfaces buffered write errors (ENOSPC, a revoked
        // permission) that operator<< accumulated silently.
        out.flush();
        if (!out) fail("write failed");
    }
    // Holding the old file open keeps the freeing of its blocks out of
    // rename(2): they are freed at the last close, which reclaim_replaced
    // moves off this thread.
    const int replaced = hold_replaced(path);
    std::error_code ec;
    {
        telemetry::StageSpan span("publish", "io");
        std::filesystem::rename(tmp, path, ec);
    }
    if (ec) {
        if (replaced >= 0) ::close(replaced);
        fail("cannot publish (rename failed: " + ec.message() + ")");
    }
    reclaim_replaced(replaced);
}

}  // namespace

PublishTarget publish_target(const std::string& path) {
    namespace fs = std::filesystem;
    std::error_code ec;
    // status() follows symlinks: what the path finally names decides.
    switch (fs::status(path, ec).type()) {
        case fs::file_type::not_found:
        case fs::file_type::regular:
        case fs::file_type::none:  // unreadable: the publish reports why
            return PublishTarget::kReplace;
        case fs::file_type::fifo:
        case fs::file_type::character:
            return PublishTarget::kStream;
        default:
            throw std::runtime_error(
                "cannot publish: not a regular file, FIFO or character device: " +
                path);
    }
}

void wait_for_reclaims() {
    while (reclaims_in_flight.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
    namespace fs = std::filesystem;
    if (publish_target(path) == PublishTarget::kStream) {
        write_through(path, writer);
        return;
    }
    // A symlink stays a link: the new file replaces its final target,
    // which a dangling link's publish creates.
    std::error_code ec;
    fs::path at = path;
    for (int hops = 0; fs::is_symlink(fs::symlink_status(at, ec)); ++hops) {
        fs::path next = fs::read_symlink(at, ec);
        if (ec || hops == 40) {
            throw std::runtime_error("cannot resolve symlink: " + path);
        }
        at = next.is_absolute() ? next : at.parent_path() / next;
    }
    publish(at.string(), writer);
}

}  // namespace pgl::io

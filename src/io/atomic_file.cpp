#include "io/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <system_error>

#include "telemetry/telemetry.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace pgl::io {

namespace {

/// Distinct temporary names per (process, call): two writers publishing the
/// same destination concurrently must not scribble into one temporary. The
/// loser of the final rename race simply publishes second — both files were
/// complete, so the destination is always a whole artifact.
std::string temp_name_for(const std::string& path) {
    static std::atomic<std::uint64_t> counter{0};
#ifdef __unix__
    const auto pid = static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t pid = 0;
#endif
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
    std::error_code ec;
    {
        telemetry::StageSpan span("publish", "io");
        std::filesystem::rename(tmp, path, ec);
    }
    if (ec) fail("cannot publish (rename failed: " + ec.message() + ")");
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

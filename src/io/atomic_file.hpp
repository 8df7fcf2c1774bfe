#pragma once
// Atomic file publication — the one way any pgl tool or the serve daemon
// writes an output file. The naive ofstream path had two failure modes the
// CLI could not see: a disk-full or permission error mid-write left a
// truncated file behind with exit status 0 (ofstream swallows write errors
// until you ask), and a reader racing the writer (the daemon's artifact
// cache, a concurrent `cmp` in CI) could observe a half-written file.
//
// atomic_write_file fixes both: the writer callback streams into a unique
// temporary in the destination directory, every stream error is checked
// (including the final flush/close), and only a fully-written temporary is
// renamed onto the destination — rename(2) within one directory is atomic,
// so readers see either the old bytes or the complete new bytes, never a
// prefix. On any failure the temporary is removed and std::runtime_error
// is thrown, so callers exit nonzero instead of reporting success over a
// partial file.
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace pgl::io {

/// How atomic_write_file writes a path, decided by what the path names.
enum class PublishTarget : std::uint8_t {
    kReplace,  ///< nothing, a regular file, or a symlink to either
    kStream,   ///< a FIFO or character device (such as /dev/stdout)
};

/// Classifies `path` as atomic_write_file will write it, without opening
/// it. Throws std::runtime_error for anything else (a directory, socket,
/// block device), so a caller can reject an output before doing the work
/// that produces it.
PublishTarget publish_target(const std::string& path);

/// Writes `path` atomically: `writer` streams the payload into a unique
/// sibling temporary which is then renamed onto `path`. Throws
/// std::runtime_error (removing the temporary) if the temporary cannot be
/// opened, the writer throws, any stream operation fails, or the rename
/// fails. The rename runs under a telemetry `publish` stage span, which
/// times only the rename.
///
/// Replacing an existing file frees its blocks, which on a filesystem that
/// discards freed blocks can cost more than the write. The old file is held
/// open across the rename, so the rename drops a reference instead of the
/// last one, and a detached thread closes it afterwards: the blocks are
/// freed there, and the close time goes to the `io.reclaim_ns` histogram.
/// At most 4 such closes are in flight; past that, when the old file
/// cannot be opened, or in a child forked from a process that started such
/// a thread, the caller pays for the freeing itself, as before.
/// Readers see the same bytes either way. A process that exits right after
/// a publish still waits at exit for the kernel to free the blocks; the
/// gain is for callers that go on working in the same process.
///
/// What `path` names (publish_target) decides how it is written:
///   * nothing, or a regular file: the atomic publish above;
///   * a symlink to either: the publish happens beside the link's final
///     target, so the link stays a link;
///   * a FIFO or character device: the payload is written straight
///     through, with the same error checks;
///   * anything else: std::runtime_error, and nothing is written.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Blocks until every replaced file handed to a reclaim thread is closed,
/// so `io.reclaim_ns` holds all their close times. A process about to
/// exit loses no wall time by it: its exit waits for the same freeing.
void wait_for_reclaims();

}  // namespace pgl::io

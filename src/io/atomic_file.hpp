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
/// fails. The rename runs under a telemetry `publish` stage span: replacing
/// an existing file frees its blocks there, a cost no other stage shows.
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

}  // namespace pgl::io

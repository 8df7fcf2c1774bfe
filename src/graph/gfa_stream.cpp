#include "graph/gfa_stream.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "core/union_find.hpp"
#include "graph/gfa_util.hpp"

namespace pgl::graph {

namespace gfa_detail {

namespace {

[[noreturn]] void fail(std::uint64_t line_no, const std::string& what) {
    throw std::runtime_error("GFA parse error at line " + std::to_string(line_no) +
                             ": " + what);
}

/// Where the reader's bytes come from: a file or text in memory, read by
/// offset from every window's thread.
class ByteSource {
public:
    virtual ~ByteSource() = default;
    /// Reads up to `n` bytes at `offset` into `buf`; returns fewer only at
    /// the end of the input.
    virtual std::size_t read_at(std::uint64_t offset, char* buf, std::size_t n) = 0;
};

/// A regular file read with pread, which any number of threads may call
/// at once.
class FileSource final : public ByteSource {
public:
    explicit FileSource(const std::string& path) : path_(path) {
        fd_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd_.fd < 0) throw std::runtime_error("cannot open GFA file: " + path);
        struct stat st {};
        if (::fstat(fd_.fd, &st) != 0) fail_io(errno);
        if (S_ISDIR(st.st_mode)) fail_io(EISDIR);
        if (!S_ISREG(st.st_mode)) {
            throw std::runtime_error("cannot read GFA file: " + path +
                                     ": not a regular file");
        }
        size_ = static_cast<std::uint64_t>(st.st_size);
    }

    std::uint64_t size() const noexcept { return size_; }

    std::size_t read_at(std::uint64_t offset, char* buf, std::size_t n) override {
        std::size_t got = 0;
        while (got < n) {
            const ssize_t r = ::pread(fd_.fd, buf + got, n - got,
                                      static_cast<off_t>(offset + got));
            if (r == 0) break;
            if (r < 0) {
                if (errno == EINTR) continue;
                fail_io(errno);
            }
            got += static_cast<std::size_t>(r);
        }
        return got;
    }

private:
    struct Fd {
        int fd = -1;
        ~Fd() {
            if (fd >= 0) ::close(fd);
        }
    };

    [[noreturn]] void fail_io(int err) const {
        throw std::runtime_error("cannot read GFA file: " + path_ + ": " +
                                 std::strerror(err));
    }

    std::string path_;
    Fd fd_;
    std::uint64_t size_ = 0;
};

/// GFA text held in memory, read by offset from every window's thread.
class MemorySource final : public ByteSource {
public:
    explicit MemorySource(std::string_view text) : text_(text) {}

    std::uint64_t size() const noexcept { return text_.size(); }

    std::size_t read_at(std::uint64_t offset, char* buf, std::size_t n) override {
        if (offset >= text_.size()) return 0;
        const std::size_t got = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, text_.size() - offset));
        std::memcpy(buf, text_.data() + offset, got);
        return got;
    }

private:
    std::string_view text_;
};

/// Calls `fn(line, n)` for every line of the window [begin, end), which
/// starts at a line start and ends at one or at the end of the input. `n`
/// counts the window's lines from 1; lines are chomped and framed as by
/// std::getline (a final newline ends the last line, and a last line
/// without one still counts). Reads blocks of at most kLineBlockBytes; a
/// line that crosses a block boundary is assembled in a carry buffer that
/// grows to the longest such line. The view passed to `fn` is valid only
/// during the call. Returns the window's line count.
template <typename Fn>
std::uint64_t for_each_line(ByteSource& src, std::uint64_t begin, std::uint64_t end,
                            Fn&& fn) {
    // Uninitialized: only the pages a short window actually fills are touched.
    const std::unique_ptr<char[]> block(new char[kLineBlockBytes]);
    std::string carry;
    std::uint64_t line_no = 0;
    for (std::uint64_t off = begin; off < end;) {
        const std::size_t got = src.read_at(
            off, block.get(), static_cast<std::size_t>(std::min<std::uint64_t>(
                                  kLineBlockBytes, end - off)));
        if (got == 0) break;
        off += got;
        const char* p = block.get();
        const char* const stop = p + got;
        while (p < stop) {
            const auto* nl = static_cast<const char*>(
                std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
            if (nl == nullptr) {
                carry.append(p, stop);
                break;
            }
            std::string_view line(p, static_cast<std::size_t>(nl - p));
            if (!carry.empty()) {
                carry.append(line);
                line = carry;
            }
            fn(chomp(line), ++line_no);
            carry.clear();
            p = nl + 1;
        }
    }
    if (!carry.empty()) fn(chomp(carry), ++line_no);
    return line_no;
}

/// Window starts for `windows` windows over a `size`-byte source: window k
/// starts at the first line start at or after byte floor(k * size /
/// windows), so a line, and so a CRLF pair, is never split. Entry
/// `windows` is `size`. More windows than lines leaves some empty.
std::vector<std::uint64_t> cut_windows(ByteSource& src, std::uint64_t size,
                                       std::uint32_t windows) {
    std::vector<std::uint64_t> starts(windows + 1, size);
    starts[0] = 0;
    const std::unique_ptr<char[]> block(new char[kLineBlockBytes]);
    for (std::uint32_t k = 1; k < windows; ++k) {
        const std::uint64_t nominal =
            size / windows * k + size % windows * k / windows;
        // No line starts between nominal and a previous start past it.
        if (starts[k - 1] >= nominal) {
            starts[k] = starts[k - 1];
            continue;
        }
        // The first '\n' at or after nominal - 1 ends the line holding the cut.
        for (std::uint64_t off = nominal - 1; off < size;) {
            const std::size_t got = src.read_at(off, block.get(), kLineBlockBytes);
            if (got == 0) break;
            if (const void* nl = std::memchr(block.get(), '\n', got)) {
                starts[k] = off + static_cast<std::uint64_t>(
                                      static_cast<const char*>(nl) - block.get()) + 1;
                break;
            }
            off += got;
        }
    }
    return starts;
}

/// Counts the steps of a P segment list as for_each_p_step adds them, so a
/// well-formed list fills its pre-sized range exactly. A trailing comma
/// ends the list without a step.
std::uint64_t count_p_steps(std::string_view steps) {
    if (steps.empty()) return 0;
    std::uint64_t n = 1;
    for (const char c : steps) n += (c == ',');
    return n - (steps.back() == ',');
}

/// Counts the steps of a W walk as for_each_walk_step adds them.
std::uint64_t count_walk_steps(std::string_view walk) {
    if (walk == "*") return 0;
    std::uint64_t n = 0;
    for (const char c : walk) n += (c == '>' || c == '<');
    return n;
}

/// A parse error at a line of its window, before the window's first line
/// number is known.
struct LineError {
    std::uint64_t line;
    std::string what;
};

/// One byte window and what its two passes found in it.
struct Window {
    std::uint64_t begin = 0, end = 0;

    // Pass 1: segments, path sizes, line count.
    struct Segment {
        std::uint64_t name_end;  ///< end of the name in `names`
        std::uint64_t line;      ///< window-local line number
        std::uint32_t length;
    };
    std::string names;  ///< the window's segment names, back to back
    std::vector<Segment> segments;
    std::vector<std::uint64_t> path_steps;  ///< step count per P/W record
    std::uint64_t lines = 0;

    // Set between the passes.
    std::uint64_t first_line = 0;  ///< lines before the window
    std::uint32_t first_path = 0;  ///< paths before the window

    // Pass 2: links and path names.
    std::uint64_t edges = 0;
    std::vector<std::string> path_names;

    /// The first error of the current pass: a parse error or an exception.
    std::optional<LineError> error;
    std::exception_ptr exception;
};

/// Throws the first error of `w`'s last pass, if it had one.
void rethrow(const Window& w) {
    if (w.exception) std::rethrow_exception(w.exception);
    if (w.error) fail(w.first_line + w.error->line, w.error->what);
}

/// Pass 1 over one window: S records (name, length, line), the step count
/// of each P/W record, and the line count.
void scan_segments(ByteSource& src, Window& w) {
    std::vector<std::string_view> fields;
    w.lines = for_each_line(src, w.begin, w.end, [&](std::string_view line,
                                                     std::uint64_t line_no) {
        if (line.empty()) return;
        switch (line[0]) {
            case 'S': {
                split_tabs(line, fields);
                if (fields.size() < 3) {
                    throw LineError{line_no, "S record needs 3 fields"};
                }
                std::uint32_t len = static_cast<std::uint32_t>(fields[2].size());
                if (fields[2] == "*") {
                    len = 0;
                    for (std::size_t f = 3; f < fields.size(); ++f) {
                        if (parse_ln_tag(fields[f], len)) break;
                    }
                }
                w.names.append(fields[1]);
                w.segments.push_back(Window::Segment{w.names.size(), line_no, len});
                break;
            }
            case 'P':
                split_tabs(line, fields);
                if (fields.size() < 3) {
                    throw LineError{line_no, "P record needs 3 fields"};
                }
                w.path_steps.push_back(count_p_steps(fields[2]));
                break;
            case 'W':
                split_tabs(line, fields);
                if (fields.size() < 7) {
                    throw LineError{line_no, "W record needs 7 fields"};
                }
                w.path_steps.push_back(count_walk_steps(fields[6]));
                break;
            default:
                break;  // L handled in pass 2; H, C, comments and friends skipped
        }
    });
}

/// Pass 2 over one window: L records into the union-find, P/W records into
/// their pre-sized paths, each step united with its path's set.
void scan_topology(ByteSource& src, Window& w, const NameTable& names,
                   LeanGraphBuilder& builder, core::UnionFind& uf) {
    std::vector<std::string_view> fields;
    std::uint32_t path = w.first_path;

    const auto lookup = [&](std::string_view name, std::uint32_t tag,
                            std::uint64_t at) -> NodeId {
        const NodeId id = names.find(name, tag);
        if (id == NameTable::kNone) {
            throw LineError{at, "unknown segment " + std::string(name)};
        }
        return id;
    };

    // Path steps are resolved in batches: each name's slot is prefetched
    // as the name is tokenized and probed once the batch is full.
    struct PendingStep {
        std::string_view name;
        std::uint32_t tag;
        bool rev;
    };
    std::array<PendingStep, 32> batch{};

    for_each_line(src, w.begin, w.end, [&](std::string_view line, std::uint64_t line_no) {
        if (line.empty()) return;
        switch (line[0]) {
            case 'L': {
                split_tabs(line, fields);
                if (fields.size() < 5) {
                    throw LineError{line_no, "L record needs 5 fields"};
                }
                if ((fields[2] != "+" && fields[2] != "-") ||
                    (fields[4] != "+" && fields[4] != "-")) {
                    throw LineError{line_no, "bad orientation"};
                }
                const NodeId from =
                    lookup(fields[1], NameTable::hash(fields[1]), line_no);
                const NodeId to = lookup(fields[3], NameTable::hash(fields[3]), line_no);
                uf.unite(from, to);
                ++w.edges;
                break;
            }
            case 'P':
            case 'W': {
                split_tabs(line, fields);
                const bool is_walk = line[0] == 'W';
                const std::string_view steps = is_walk ? fields[6] : fields[2];
                PathWriter writer = builder.path_writer(path++);
                // Every step joins the path's set. Uniting with the set's
                // current root (not the previous step) saves a find per
                // step and yields the same sets, hence the same labels.
                std::uint32_t root = 0;
                std::size_t pending = 0;
                const auto resolve = [&] {
                    for (std::size_t k = 0; k < pending; ++k) {
                        const NodeId v = lookup(batch[k].name, batch[k].tag, line_no);
                        writer.add(Handle::make(v, batch[k].rev));
                        root = writer.steps() > 1 ? uf.unite(root, v) : uf.find(v);
                    }
                    pending = 0;
                };
                const auto feed = [&](std::string_view name, bool rev) -> std::string {
                    const std::uint32_t tag = NameTable::hash(name);
                    names.prefetch(tag);
                    batch[pending++] = PendingStep{name, tag, rev};
                    if (pending == batch.size()) resolve();
                    return {};
                };
                const std::string err = is_walk ? for_each_walk_step(steps, feed)
                                                : for_each_p_step(steps, feed);
                // Steps before a malformed token resolve first, so an
                // unknown segment among them is the error reported, as in
                // a step-by-step scan.
                resolve();
                if (!err.empty()) throw LineError{line_no, err};
                if (writer.steps() == 0) {
                    throw LineError{line_no, is_walk ? std::string("empty walk")
                                                     : "empty path " +
                                                           std::string(fields[1])};
                }
                writer.finish();
                w.path_names.push_back(is_walk ? walk_path_name(fields[1], fields[2],
                                                                fields[3], fields[4],
                                                                fields[5])
                                               : std::string(fields[1]));
                break;
            }
            default:
                break;
        }
    });
}

/// The reader: pass 1 on every window, a serial merge in window order
/// (node ids, the name table, line and path offsets), pass 2 on every
/// window, then labels. Each pass runs window 0 on the calling thread and
/// the others on a one-shot pool, one worker each; every thread that
/// allocates keeps a malloc arena, so one window never starts a thread.
/// The first error in file order wins within a pass, and any pass-1 error
/// beats every pass-2 one: the serial reader's order.
LeanIngest ingest(ByteSource& src, std::vector<Window> windows) {
    core::ThreadPool pool(static_cast<std::uint32_t>(windows.size() - 1));
    const auto each_window = [&](auto&& pass) {
        // A window keeps its first error for the caller to order.
        const auto run = [&](Window& w) {
            try {
                pass(w);
            } catch (LineError& e) {
                w.error = std::move(e);
            } catch (...) {
                w.exception = std::current_exception();
            }
        };
        if (pool.size() > 0) {
            pool.launch([&](std::uint32_t tid) { run(windows[tid + 1]); });
        }
        run(windows[0]);
        pool.wait();
    };

    // --- pass 1: segments and path sizes ---
    each_window([&](Window& w) { scan_segments(src, w); });

    std::uint64_t n_segments = 0, name_bytes = 0;
    for (const Window& w : windows) {
        n_segments += w.segments.size();
        name_bytes += w.names.size();
    }
    LeanGraphBuilder builder;
    builder.reserve_nodes(n_segments);
    NameTable names;
    names.reserve(static_cast<std::uint32_t>(n_segments), name_bytes);
    std::vector<std::uint64_t> path_steps;
    std::uint64_t line_base = 0;
    for (Window& w : windows) {
        w.first_line = line_base;
        std::uint64_t name_begin = 0;
        for (const Window::Segment& s : w.segments) {
            const std::string_view name =
                std::string_view(w.names).substr(name_begin, s.name_end - name_begin);
            if (!names.insert(name)) {
                fail(line_base + s.line, "duplicate segment " + std::string(name));
            }
            builder.add_node(s.length);
            name_begin = s.name_end;
        }
        rethrow(w);
        line_base += w.lines;
        w.first_path = static_cast<std::uint32_t>(path_steps.size());
        path_steps.insert(path_steps.end(), w.path_steps.begin(), w.path_steps.end());
        w.names = std::string();
        w.segments = {};
    }
    builder.presize_paths(path_steps);

    // --- pass 2: links and paths ---
    core::UnionFind uf(builder.node_count());
    each_window([&](Window& w) { scan_topology(src, w, names, builder, uf); });

    LeanIngest out;
    out.path_names.reserve(path_steps.size());
    for (Window& w : windows) {
        rethrow(w);
        out.edge_count += w.edges;
        std::move(w.path_names.begin(), w.path_names.end(),
                  std::back_inserter(out.path_names));
    }

    // --- finalize: graph, segment names, dense component labels ---
    out.graph = builder.finish();
    out.segment_names = names.names();
    auto dense = core::dense_labels(uf);
    out.component_count = dense.count;
    out.node_component = std::move(dense.label);
    out.path_component.reserve(out.graph.path_count());
    for (std::uint32_t p = 0; p < out.graph.path_count(); ++p) {
        out.path_component.push_back(out.node_component[out.graph.step_node(p, 0)]);
    }
    return out;
}

/// Cuts a `size`-byte source into `windows` windows and ingests them.
LeanIngest ingest_windows(ByteSource& src, std::uint64_t size, std::uint32_t windows) {
    windows = std::max<std::uint32_t>(windows, 1);
    const std::vector<std::uint64_t> starts = cut_windows(src, size, windows);
    std::vector<Window> cut(windows);
    for (std::uint32_t k = 0; k < windows; ++k) {
        cut[k].begin = starts[k];
        cut[k].end = starts[k + 1];
    }
    return ingest(src, std::move(cut));
}

}  // namespace

std::uint32_t window_count(std::uint64_t bytes) {
    const std::uint64_t cpus = core::allowed_cpus_self().size();
    const std::uint64_t by_size = (bytes + kMinWindowBytes - 1) / kMinWindowBytes;
    return static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, std::min(cpus, by_size)));
}

LeanIngest ingest_gfa_file(const std::string& path, std::uint32_t windows) {
    FileSource src(path);
    return ingest_windows(src, src.size(), windows);
}

LeanIngest ingest_gfa_text(std::string_view text, std::uint32_t windows) {
    MemorySource src(text);
    return ingest_windows(src, src.size(), windows);
}

}  // namespace gfa_detail

LeanIngest ingest_gfa_file(const std::string& path) {
    gfa_detail::FileSource src(path);
    return gfa_detail::ingest_windows(src, src.size(),
                                      gfa_detail::window_count(src.size()));
}

LeanIngest ingest_gfa_text(std::string_view text) {
    return gfa_detail::ingest_gfa_text(text, gfa_detail::window_count(text.size()));
}

}  // namespace pgl::graph

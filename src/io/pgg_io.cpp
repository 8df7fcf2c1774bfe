#include "io/pgg_io.hpp"

#include <bit>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "io/atomic_file.hpp"

namespace pgl::io {

namespace {

// Integers are written as raw host bytes; the format pins them to
// little-endian (like lay_io's float arrays), so refuse to build a writer
// that would silently emit byte-swapped caches on a big-endian host.
static_assert(std::endian::native == std::endian::little,
              ".pgg serialization assumes a little-endian host");

constexpr std::uint32_t kFlagSegmentNames = 1u;

// Guard rails for corrupt headers: fail fast with a clear message instead
// of attempting a multi-gigabyte allocation from garbage counts.
constexpr std::uint64_t kMaxNodes = (1ull << 31) - 1;  // Handle packs id in 31 bits
constexpr std::uint64_t kMaxSteps = 0xFFFFFFFFull;     // LeanGraph offsets are u32
constexpr std::uint32_t kMaxNameLen = 1u << 20;

/// Incremental FNV-1a 64 over everything between magic and checksum.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void mix(const void* data, std::size_t n) noexcept {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
};

struct HashingWriter {
    std::ostream& out;
    Fnv1a fnv;

    void put(const void* data, std::size_t n) {
        out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
        fnv.mix(data, n);
    }
    template <typename T>
    void put_int(T v) {
        put(&v, sizeof v);
    }
    void put_string(const std::string& s) {
        put_int(static_cast<std::uint32_t>(s.size()));
        put(s.data(), s.size());
    }
};

struct HashingReader {
    std::istream& in;
    Fnv1a fnv;

    void get(void* data, std::size_t n) {
        in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
        if (!in) throw std::runtime_error("graph cache truncated");
        fnv.mix(data, n);
    }
    template <typename T>
    T get_int() {
        T v{};
        get(&v, sizeof v);
        return v;
    }
    std::string get_string() {
        const auto len = get_int<std::uint32_t>();
        if (len > kMaxNameLen) {
            throw std::runtime_error("graph cache corrupt: implausible name length");
        }
        std::string s(len, '\0');
        get(s.data(), len);
        return s;
    }
};

}  // namespace

void write_pgg(const graph::LeanIngest& g, std::ostream& out) {
    out.write(kPggMagic.data(), kPggMagic.size());
    HashingWriter w{out, {}};

    const graph::LeanGraph& lg = g.graph;
    const std::uint32_t flags =
        g.segment_names.empty() ? 0u : kFlagSegmentNames;
    w.put_int(flags);
    w.put_int(static_cast<std::uint64_t>(lg.node_count()));
    w.put_int(static_cast<std::uint64_t>(lg.path_count()));
    w.put_int(lg.total_path_steps());
    w.put_int(g.component_count);

    const auto lengths = lg.node_lengths();
    w.put(lengths.data(), lengths.size_bytes());
    w.put(g.node_component.data(),
          g.node_component.size() * sizeof(std::uint32_t));

    if (flags & kFlagSegmentNames) {
        for (const std::string& name : g.segment_names) w.put_string(name);
    }

    for (std::uint32_t p = 0; p < lg.path_count(); ++p) {
        w.put_string(g.path_names[p]);
        w.put_int(lg.path_step_count(p));
        w.put_int(g.path_component[p]);
    }

    for (std::uint32_t p = 0; p < lg.path_count(); ++p) {
        for (std::uint32_t i = 0; i < lg.path_step_count(p); ++i) {
            const auto& rec = lg.step_record(p, i);
            const std::uint32_t packed =
                graph::Handle::make(rec.node, rec.orient != 0).packed();
            w.put_int(packed);
        }
    }

    const std::uint64_t checksum = w.fnv.h;
    out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
}

void write_pgg_file(const graph::LeanIngest& g, const std::string& path) {
    atomic_write_file(path, [&](std::ostream& out) { write_pgg(g, out); });
}

void write_pgg_graph(const graph::LeanGraph& lg, std::ostream& out) {
    out.write(kPggMagic.data(), kPggMagic.size());
    HashingWriter w{out, {}};

    w.put_int(std::uint32_t{0});  // flags: no segment names
    w.put_int(static_cast<std::uint64_t>(lg.node_count()));
    w.put_int(static_cast<std::uint64_t>(lg.path_count()));
    w.put_int(lg.total_path_steps());
    w.put_int(std::uint32_t{1});  // component_count

    const auto lengths = lg.node_lengths();
    w.put(lengths.data(), lengths.size_bytes());
    const std::vector<std::uint32_t> zero_labels(lg.node_count(), 0u);
    w.put(zero_labels.data(), zero_labels.size() * sizeof(std::uint32_t));

    for (std::uint32_t p = 0; p < lg.path_count(); ++p) {
        w.put_string("p" + std::to_string(p));
        w.put_int(lg.path_step_count(p));
        w.put_int(std::uint32_t{0});  // path component
    }

    for (std::uint32_t p = 0; p < lg.path_count(); ++p) {
        for (std::uint32_t i = 0; i < lg.path_step_count(p); ++i) {
            const auto& rec = lg.step_record(p, i);
            const std::uint32_t packed =
                graph::Handle::make(rec.node, rec.orient != 0).packed();
            w.put_int(packed);
        }
    }

    const std::uint64_t checksum = w.fnv.h;
    out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
}

void write_pgg_graph_file(const graph::LeanGraph& g, const std::string& path) {
    atomic_write_file(path, [&](std::ostream& out) { write_pgg_graph(g, out); });
}

graph::LeanIngest read_pgg(std::istream& in) {
    char magic[kPggMagic.size()];
    in.read(magic, sizeof magic);
    if (!in || std::string_view(magic, sizeof magic) != kPggMagic) {
        throw std::runtime_error("not a PGLPGG01 graph cache");
    }
    HashingReader r{in, {}};

    const auto flags = r.get_int<std::uint32_t>();
    const auto node_count = r.get_int<std::uint64_t>();
    const auto path_count = r.get_int<std::uint64_t>();
    const auto total_steps = r.get_int<std::uint64_t>();
    const auto component_count = r.get_int<std::uint32_t>();
    if (node_count > kMaxNodes || total_steps > kMaxSteps ||
        path_count > total_steps + 1) {
        throw std::runtime_error("graph cache corrupt: implausible header counts");
    }
    // Cross-check the declared payload against the bytes actually present
    // (seekable streams only) so a bit-flipped header cannot demand
    // multi-gigabyte allocations from a kilobyte file: every table below
    // is sized straight from these counts.
    if (const auto pos = in.tellg(); pos != std::istream::pos_type(-1)) {
        in.seekg(0, std::ios::end);
        const auto end = in.tellg();
        in.seekg(pos);
        if (end != std::istream::pos_type(-1) && in) {
            const auto remaining = static_cast<std::uint64_t>(end - pos);
            // Fixed-width payload floor: lengths + labels (+ name-length
            // words), per-path name-length/step-count/component words,
            // packed steps, trailing checksum. Names only add bytes.
            const std::uint64_t min_need =
                node_count * (8 + ((flags & kFlagSegmentNames) ? 4 : 0)) +
                path_count * 12 + total_steps * 4 + 8;
            if (remaining < min_need) {
                throw std::runtime_error("graph cache truncated");
            }
        }
    }

    graph::LeanIngest out;
    out.component_count = component_count;

    std::vector<std::uint32_t> lengths(node_count);
    r.get(lengths.data(), lengths.size() * sizeof(std::uint32_t));
    out.node_component.resize(node_count);
    r.get(out.node_component.data(), node_count * sizeof(std::uint32_t));
    // The labels must be the ingest labeller's: numbered by first
    // appearance in node-id order, every id below component_count used.
    // Together with the per-step check below this makes a decomposition of
    // the cache equal to one of the GFA it came from.
    std::uint32_t next_label = 0;
    for (const std::uint32_t c : out.node_component) {
        if (c > next_label) {
            throw std::runtime_error(
                "graph cache corrupt: node components not numbered by first appearance");
        }
        if (c == next_label) ++next_label;
    }
    if (next_label != component_count) {
        throw std::runtime_error(
            "graph cache corrupt: component count disagrees with node labels");
    }

    if (flags & kFlagSegmentNames) {
        out.segment_names.reserve(node_count);
        for (std::uint64_t v = 0; v < node_count; ++v) {
            out.segment_names.push_back(r.get_string());
        }
    }

    graph::LeanGraphBuilder builder;
    builder.reserve_nodes(node_count);
    for (const std::uint32_t len : lengths) builder.add_node(len);
    builder.reserve_paths(path_count);
    builder.reserve_steps(total_steps);

    std::vector<std::uint32_t> step_counts(path_count);
    out.path_names.reserve(path_count);
    out.path_component.reserve(path_count);
    std::uint64_t declared_steps = 0;
    for (std::uint64_t p = 0; p < path_count; ++p) {
        out.path_names.push_back(r.get_string());
        step_counts[p] = r.get_int<std::uint32_t>();
        declared_steps += step_counts[p];
        const auto c = r.get_int<std::uint32_t>();
        if (c >= component_count) {
            throw std::runtime_error("graph cache corrupt: path component out of range");
        }
        out.path_component.push_back(c);
    }
    if (declared_steps != total_steps) {
        throw std::runtime_error(
            "graph cache corrupt: path table disagrees with step count");
    }

    // Replay the packed steps through the builder in bounded chunks so peak
    // memory stays flat regardless of path length.
    std::vector<std::uint32_t> chunk;
    for (std::uint64_t p = 0; p < path_count; ++p) {
        builder.begin_path();
        std::uint64_t remaining = step_counts[p];
        while (remaining > 0) {
            const std::size_t n =
                static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 1 << 16));
            chunk.resize(n);
            r.get(chunk.data(), n * sizeof(std::uint32_t));
            for (const std::uint32_t packed : chunk) {
                const auto h = graph::Handle::from_packed(packed);
                if (h.id() >= node_count) {
                    throw std::runtime_error(
                        "graph cache corrupt: step references unknown node");
                }
                if (out.node_component[h.id()] != out.path_component[p]) {
                    throw std::runtime_error(
                        "graph cache corrupt: step node outside its path's component");
                }
                builder.add_step(h);
            }
            remaining -= n;
        }
        builder.end_path();
    }

    const std::uint64_t computed = r.fnv.h;
    std::uint64_t stored = 0;
    in.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (!in) throw std::runtime_error("graph cache truncated");
    if (stored != computed) {
        throw std::runtime_error("graph cache corrupt: checksum mismatch");
    }

    out.graph = builder.finish();
    return out;
}

graph::LeanIngest read_pgg_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open graph cache: " + path);
    auto out = read_pgg(in);
    // A cache *file* must end at the checksum; trailing bytes mean a
    // corrupted or concatenated write. (The stream overload stays lenient
    // so a cache can be embedded in a larger stream.)
    if (in.peek() != std::istream::traits_type::eof()) {
        throw std::runtime_error("graph cache corrupt: trailing bytes after checksum");
    }
    return out;
}

graph::LeanIngest load_graph_file(const std::string& path) {
    // Only a regular file is sniffed: opening a FIFO here would block, and
    // ingest_gfa_file says why anything else cannot be read.
    std::error_code ec;
    if (std::filesystem::is_regular_file(path, ec)) {
        std::ifstream in(path, std::ios::binary);
        char magic[kPggMagic.size()];
        if (in.read(magic, sizeof magic) &&
            std::string_view(magic, sizeof magic) == kPggMagic) {
            return read_pgg_file(path);
        }
    }
    return graph::ingest_gfa_file(path);
}

}  // namespace pgl::io

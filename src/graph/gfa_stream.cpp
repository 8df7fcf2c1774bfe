#include "graph/gfa_stream.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/union_find.hpp"
#include "graph/gfa_util.hpp"

namespace pgl::graph {

namespace {

using gfa_detail::for_each_line;
using gfa_detail::NameTable;
using gfa_detail::split_tabs;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
    std::ostringstream os;
    os << "GFA parse error at line " << line_no << ": " << what;
    throw std::runtime_error(os.str());
}

/// Counts the steps of a P segment list without tokenizing it.
std::uint64_t count_p_steps(std::string_view steps) {
    if (steps.empty()) return 0;
    std::uint64_t n = 1;
    for (const char c : steps) n += (c == ',');
    return n;
}

/// Counts the steps of a W walk without tokenizing it.
std::uint64_t count_walk_steps(std::string_view walk) {
    if (walk == "*") return 0;
    std::uint64_t n = 0;
    for (const char c : walk) n += (c == '>' || c == '<');
    return n;
}

}  // namespace

LeanIngest ingest_gfa(std::istream& in) {
    LeanIngest out;
    LeanGraphBuilder builder;
    NameTable names;
    std::vector<std::string_view> fields;

    // --- pass 1: segments (and exact path/step counts for reservation) ---
    std::uint64_t n_paths = 0, n_steps = 0;
    for_each_line(in, [&](std::string_view line, std::size_t line_no) {
        if (line.empty()) return;
        switch (line[0]) {
            case 'S': {
                split_tabs(line, fields);
                if (fields.size() < 3) fail(line_no, "S record needs 3 fields");
                std::uint32_t len = static_cast<std::uint32_t>(fields[2].size());
                if (fields[2] == "*") {
                    len = 0;
                    for (std::size_t f = 3; f < fields.size(); ++f) {
                        if (gfa_detail::parse_ln_tag(fields[f], len)) break;
                    }
                }
                if (!names.insert(fields[1])) {
                    fail(line_no, "duplicate segment " + std::string(fields[1]));
                }
                builder.add_node(len);
                break;
            }
            case 'P': {
                split_tabs(line, fields);
                if (fields.size() < 3) fail(line_no, "P record needs 3 fields");
                ++n_paths;
                n_steps += count_p_steps(fields[2]);
                break;
            }
            case 'W': {
                split_tabs(line, fields);
                if (fields.size() < 7) fail(line_no, "W record needs 7 fields");
                ++n_paths;
                n_steps += count_walk_steps(fields[6]);
                break;
            }
            default:
                break;  // L handled in pass 2; H, C, comments and friends skipped
        }
    });

    builder.reserve_paths(n_paths);
    builder.reserve_steps(n_steps);
    out.path_names.reserve(n_paths);

    // --- pass 2: links and walks, streamed into the builder + union-find ---
    in.clear();
    in.seekg(0);
    if (!in) {
        throw std::runtime_error(
            "streaming GFA ingestion needs a seekable stream (two passes)");
    }

    core::UnionFind uf(builder.node_count());
    std::vector<NodeId> path_first_node;
    path_first_node.reserve(n_paths);

    const auto lookup = [&](std::string_view name, std::uint32_t tag,
                            std::size_t at) -> NodeId {
        const NodeId id = names.find(name, tag);
        if (id == NameTable::kNone) fail(at, "unknown segment " + std::string(name));
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

    for_each_line(in, [&](std::string_view line, std::size_t line_no) {
        if (line.empty()) return;
        switch (line[0]) {
            case 'L': {
                split_tabs(line, fields);
                if (fields.size() < 5) fail(line_no, "L record needs 5 fields");
                if (fields[2] != "+" && fields[2] != "-") fail(line_no, "bad orientation");
                if (fields[4] != "+" && fields[4] != "-") fail(line_no, "bad orientation");
                const NodeId from = lookup(fields[1], NameTable::hash(fields[1]), line_no);
                const NodeId to = lookup(fields[3], NameTable::hash(fields[3]), line_no);
                uf.unite(from, to);
                ++out.edge_count;
                break;
            }
            case 'P':
            case 'W': {
                split_tabs(line, fields);
                const bool is_walk = line[0] == 'W';
                const std::string_view steps = is_walk ? fields[6] : fields[2];
                // Every step joins the path's set. Uniting with the set's
                // current root (not the previous step) saves a find per
                // step and yields the same sets, hence the same labels.
                std::uint32_t root = 0;
                std::size_t pending = 0;
                builder.begin_path();
                const auto resolve = [&] {
                    for (std::size_t k = 0; k < pending; ++k) {
                        const NodeId v = lookup(batch[k].name, batch[k].tag, line_no);
                        builder.add_step(Handle::make(v, batch[k].rev));
                        if (builder.current_path_steps() > 1) {
                            root = uf.unite(root, v);
                        } else {
                            path_first_node.push_back(v);
                            root = uf.find(v);
                        }
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
                const std::string err =
                    is_walk ? gfa_detail::for_each_walk_step(steps, feed)
                            : gfa_detail::for_each_p_step(steps, feed);
                // Steps before a malformed token resolve first, so an
                // unknown segment among them is the error reported, as in
                // a step-by-step scan.
                resolve();
                if (!err.empty()) fail(line_no, err);
                if (builder.end_path() == 0) {
                    fail(line_no, is_walk ? "empty walk" : "empty path " +
                                                               std::string(fields[1]));
                }
                out.path_names.push_back(
                    is_walk ? gfa_detail::walk_path_name(fields[1], fields[2],
                                                         fields[3], fields[4],
                                                         fields[5])
                            : std::string(fields[1]));
                break;
            }
            default:
                break;
        }
    });

    // --- finalize: graph, segment names, dense component labels ---
    out.segment_names = names.names();

    auto dense = core::dense_labels(uf);
    out.component_count = dense.count;
    out.node_component = std::move(dense.label);
    out.path_component.reserve(path_first_node.size());
    for (const NodeId v : path_first_node) {
        out.path_component.push_back(out.node_component[v]);
    }
    out.graph = builder.finish();
    return out;
}

LeanIngest ingest_gfa_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open GFA file: " + path);
    return ingest_gfa(in);
}

}  // namespace pgl::graph

#include "graph/gfa.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "graph/gfa_util.hpp"

namespace pgl::graph {

namespace {

using gfa_detail::split_tabs;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
    std::ostringstream os;
    os << "GFA parse error at line " << line_no << ": " << what;
    throw std::runtime_error(os.str());
}

struct PendingLink {
    std::string from, to;
    bool from_rev, to_rev;
    std::size_t line_no;
};

struct PendingPath {
    std::string name;
    std::string steps;  // raw comma-separated P field or ></-delimited W walk
    bool is_walk;       // true for W records
    std::size_t line_no;
};

}  // namespace

VariationGraph read_gfa(std::istream& in) {
    VariationGraph g;
    gfa_detail::NameTable names;
    std::vector<PendingLink> links;
    std::vector<PendingPath> paths;
    std::vector<std::string_view> fields;

    gfa_detail::for_each_line(in, [&](std::string_view line, std::size_t line_no) {
        if (line.empty() || line[0] == '#') return;
        split_tabs(line, fields);
        switch (line[0]) {
            case 'S': {
                if (fields.size() < 3) fail(line_no, "S record needs 3 fields");
                const std::string name(fields[1]);
                if (!names.insert(name)) fail(line_no, "duplicate segment " + name);
                if (fields[2] == "*") {
                    // Sequence-free GFAs carry the length as an LN:i: tag;
                    // record the length, never synthesize sequence bytes.
                    std::uint32_t len = 0;
                    for (std::size_t f = 3; f < fields.size(); ++f) {
                        if (gfa_detail::parse_ln_tag(fields[f], len)) break;
                    }
                    g.add_node_sequence_free(len, name);
                } else {
                    g.add_node(std::string(fields[2]), name);
                }
                break;
            }
            case 'L': {
                if (fields.size() < 5) fail(line_no, "L record needs 5 fields");
                if (fields[2] != "+" && fields[2] != "-") fail(line_no, "bad orientation");
                if (fields[4] != "+" && fields[4] != "-") fail(line_no, "bad orientation");
                links.push_back(PendingLink{std::string(fields[1]), std::string(fields[3]),
                                            fields[2] == "-", fields[4] == "-", line_no});
                break;
            }
            case 'P': {
                if (fields.size() < 3) fail(line_no, "P record needs 3 fields");
                paths.push_back(PendingPath{std::string(fields[1]),
                                            std::string(fields[2]), false, line_no});
                break;
            }
            case 'W': {
                // GFA 1.1 walk: W sample hapIndex seqId seqStart seqEnd walk.
                if (fields.size() < 7) fail(line_no, "W record needs 7 fields");
                paths.push_back(PendingPath{
                    gfa_detail::walk_path_name(fields[1], fields[2], fields[3],
                                               fields[4], fields[5]),
                    std::string(fields[6]), true, line_no});
                break;
            }
            default:
                break;  // H, C and friends are not needed for layout
        }
    });

    // Segment ids are dense in S-record order in both the table and g.
    const auto lookup = [&](std::string_view name, std::size_t at) -> NodeId {
        const NodeId id = names.find(name);
        if (id == gfa_detail::NameTable::kNone) {
            fail(at, "unknown segment " + std::string(name));
        }
        return id;
    };

    for (const PendingLink& l : links) {
        g.add_edge(Handle::make(lookup(l.from, l.line_no), l.from_rev),
                   Handle::make(lookup(l.to, l.line_no), l.to_rev));
    }

    for (PendingPath& p : paths) {
        std::vector<Handle> steps;
        const auto collect = [&](std::string_view name, bool rev) -> std::string {
            steps.push_back(Handle::make(lookup(name, p.line_no), rev));
            return {};
        };
        const std::string err =
            p.is_walk ? gfa_detail::for_each_walk_step(p.steps, collect)
                      : gfa_detail::for_each_p_step(p.steps, collect);
        if (!err.empty()) fail(p.line_no, err);
        if (steps.empty()) {
            fail(p.line_no, (p.is_walk ? "empty walk " : "empty path ") + p.name);
        }
        g.add_path(std::move(p.name), std::move(steps));
    }
    return g;
}

VariationGraph read_gfa_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open GFA file: " + path);
    return read_gfa(in);
}

void write_gfa(const VariationGraph& g, std::ostream& out) {
    out << "H\tVN:Z:1.0\n";
    for (NodeId id = 0; id < g.node_count(); ++id) {
        const auto seq = g.sequence(id);
        out << "S\t" << g.node_name(id) << '\t';
        if (seq.empty()) {
            out << '*';
            if (g.is_sequence_free(id)) out << "\tLN:i:" << g.node_length(id);
        } else {
            out << seq;
        }
        out << '\n';
    }
    for (const Edge& e : g.edges()) {
        out << "L\t" << g.node_name(e.from.id()) << '\t'
            << (e.from.is_reverse() ? '-' : '+') << '\t' << g.node_name(e.to.id())
            << '\t' << (e.to.is_reverse() ? '-' : '+') << "\t0M\n";
    }
    for (const PathRecord& p : g.paths()) {
        out << "P\t" << p.name << '\t';
        for (std::size_t i = 0; i < p.steps.size(); ++i) {
            if (i) out << ',';
            out << g.node_name(p.steps[i].id()) << (p.steps[i].is_reverse() ? '-' : '+');
        }
        out << "\t*\n";
    }
}

void write_gfa_file(const VariationGraph& g, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open GFA file for write: " + path);
    write_gfa(g, out);
}

}  // namespace pgl::graph

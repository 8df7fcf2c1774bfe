#include "graph/gfa.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace pgl::graph {

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

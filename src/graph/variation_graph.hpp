#pragma once
// The "rich" variation graph G = (P, V, E) (paper Sec. II-A): nodes carry
// nucleotide sequences, edges connect oriented node ends, paths are walks
// that embed the original genomes. This mirrors the ODGI data structure the
// CPU baseline operates on. Only the workload generators build one, and
// layout never reads it directly: workloads::to_ingest writes it as GFA and
// reads it back through graph::ingest_gfa_text, the CLI's own reader, which
// distills the lean layout structure (graph/lean_graph.hpp).
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "graph/handle.hpp"

namespace pgl::graph {

struct PathRecord {
    std::string name;
    std::vector<Handle> steps;
};

struct GraphStats {
    std::uint64_t nucleotides = 0;
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    std::uint64_t paths = 0;
    double mean_degree = 0.0;  // mean node degree (2E / V)
    double density = 0.0;      // E / (V * (V - 1)) for a directed graph
    std::uint64_t total_path_steps = 0;
};

class VariationGraph {
public:
    VariationGraph() = default;

    /// Adds a node with the given nucleotide sequence; returns its id.
    /// Ids are dense, starting at 0. An optional `name` preserves the
    /// segment name of the source GFA; unnamed nodes fall back to the
    /// 1-based decimal id GFA writers have always used.
    NodeId add_node(std::string sequence, std::string name = {});

    /// Adds a sequence-free node ("S name * LN:i:length" in real
    /// sequence-free GFAs): the length is recorded without synthesizing
    /// sequence bytes, and write_gfa emits "*" plus an LN tag again.
    NodeId add_node_sequence_free(std::uint32_t length, std::string name = {});

    /// Segment name for GFA round-trips: the stored name, or the decimal
    /// string of id + 1 when the node was created without one.
    std::string node_name(NodeId id) const;

    /// Adds an edge between two oriented handles. Duplicate edges (in either
    /// canonical orientation) are ignored. Returns true if inserted.
    bool add_edge(Handle from, Handle to);

    /// Appends a path; all steps must reference existing nodes. Edges
    /// traversed by the path are added implicitly (as odgi does on import).
    std::size_t add_path(std::string name, std::vector<Handle> steps);

    std::uint64_t node_count() const noexcept { return sequences_.size(); }
    std::uint64_t edge_count() const noexcept { return edges_.size(); }
    std::uint64_t path_count() const noexcept { return paths_.size(); }

    std::string_view sequence(NodeId id) const { return sequences_.at(id); }
    std::uint32_t node_length(NodeId id) const {
        const std::uint32_t seq_len =
            static_cast<std::uint32_t>(sequences_.at(id).size());
        return seq_len != 0 ? seq_len : star_len_[id];
    }

    /// True for nodes added via add_node_sequence_free (length known,
    /// sequence bytes absent).
    bool is_sequence_free(NodeId id) const {
        return sequences_.at(id).empty() && star_len_[id] != 0;
    }

    const std::vector<Edge>& edges() const noexcept { return edges_; }
    bool has_edge(Handle from, Handle to) const;

    const PathRecord& path(std::size_t i) const { return paths_.at(i); }
    const std::vector<PathRecord>& paths() const noexcept { return paths_; }

    /// Total nucleotides over all nodes.
    std::uint64_t total_sequence_length() const noexcept { return total_seq_len_; }

    /// Sum over paths of their step counts (the |p| sum in Alg. 1 line 1).
    std::uint64_t total_path_steps() const noexcept { return total_path_steps_; }

    GraphStats stats() const;

    /// Checks structural invariants: every path step references an existing
    /// node and every consecutive step pair is connected by an edge.
    /// Returns an empty string when valid, else a description of the first
    /// violation.
    std::string validate() const;

private:
    std::vector<std::string> sequences_;
    std::vector<std::string> names_;  ///< per-node; empty = unnamed (id + 1)
    std::vector<std::uint32_t> star_len_;  ///< declared length of '*' nodes
    std::vector<Edge> edges_;
    std::unordered_set<Edge> edge_set_;
    std::vector<PathRecord> paths_;
    std::uint64_t total_seq_len_ = 0;
    std::uint64_t total_path_steps_ = 0;
};

}  // namespace pgl::graph

#pragma once
// Connected-component decomposition — layer 1 of the partition subsystem.
//
// Whole-genome pangenomes are inherently multi-component (one component per
// chromosome plus unplaced contigs), yet PG-SGD lays out one connected
// graph at a time: a stress term never crosses a path, and a path never
// crosses a component, so disconnected components are independent layout
// problems. The labels come from ingestion (graph::LeanIngest: a union-find
// over L links and path steps, built while the GFA streams in, or read back
// from a .pgg cache); this module turns them into stable remap tables
// (remap) and slices any one component out as a standalone LeanGraph
// (component_graph), so every downstream consumer (engines, metrics, IO,
// rendering) sees an ordinary single-component graph.
//
// The two are separate so the graph is held once: the component loop
// (partition/scheduler.hpp) builds each subgraph on the worker that lays
// it out and drops it when that component is done, instead of copying
// every step record up front. decompose() builds them all, for callers
// that want every subgraph at once.
//
// Component numbering is deterministic: components are numbered by their
// smallest global node id, and inside a component local node ids ascend
// with the global ids. Path slicing is exact — a path's steps all live in
// one component, so the sliced walk is the original walk verbatim (same
// orientations, same recomputed cumulative positions).
#include <cstdint>
#include <vector>

#include "graph/lean_graph.hpp"

namespace pgl::graph {
struct LeanIngest;  // graph/gfa_stream.hpp
}

namespace pgl::partition {

/// Node/path -> component labeling.
struct ComponentLabels {
    std::uint32_t count = 0;
    std::vector<std::uint32_t> node_component;  ///< node id -> component id
    std::vector<std::uint32_t> path_component;  ///< path index -> component id
};

/// Adopts the labels an ingest computed (edge + path connectivity,
/// numbered by smallest node id). Moves the label vectors out of `ing`;
/// its graph and name tables are untouched.
ComponentLabels take_labels(graph::LeanIngest& ing);

/// One connected component: its remap tables and, once built, its
/// standalone lean graph.
struct ComponentSubgraph {
    graph::LeanGraph graph;  ///< local node ids are dense; empty after remap()
    std::vector<graph::NodeId> global_node;    ///< local -> global node id, ascending
    std::vector<std::uint32_t> global_path;    ///< local -> global path index, ascending
};

/// The decomposition: labels, per-component remap tables (and subgraphs,
/// when decompose() built them), and the inverse node remap (global id ->
/// local id within its component).
struct Decomposition {
    ComponentLabels labels;
    std::vector<ComponentSubgraph> components;
    std::vector<std::uint32_t> local_node;  ///< global node id -> local node id

    std::uint32_t count() const noexcept {
        return static_cast<std::uint32_t>(components.size());
    }
    std::uint64_t global_node_count() const noexcept { return local_node.size(); }
};

/// The remap tables of a lean graph under the labels its ingest computed
/// (take_labels), with every component's `graph` left empty. `labels` must
/// cover exactly the graph's nodes and paths, and every step's node must
/// carry its path's label.
Decomposition remap(const graph::LeanGraph& g, ComponentLabels labels);

/// Component `c` of `d` (made by remap or decompose over `g`), sliced out
/// of `g` as a standalone lean graph: the same walks in local node ids.
graph::LeanGraph component_graph(const graph::LeanGraph& g,
                                 const Decomposition& d, std::uint32_t c);

/// remap, then every component's graph through component_graph.
Decomposition decompose(const graph::LeanGraph& g, ComponentLabels labels);

}  // namespace pgl::partition

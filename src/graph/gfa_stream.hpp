#pragma once
// Streaming GFA ingestion — the one GFA reader, sized for real-world
// pangenomes (PGGB, minigraph-cactus whole genomes). Instead of
// materializing a rich graph (sequences + edge set + per-path Handle
// vectors) and then distilling a LeanGraph from it, this reader makes two
// single-purpose passes over the input and feeds a LeanGraphBuilder
// directly:
//
//   pass 1 (segments):  S records -> name table + node lengths
//                       (sequence bytes are measured, never stored);
//   pass 2 (topology):  L records -> union-find adjacency only,
//                       P / W records -> streamed step-by-step into the
//                       builder (no per-path step vector is ever built).
//
// Both passes read the stream in fixed 64 KiB blocks
// (gfa_detail::for_each_line), and segment names resolve through an
// open-addressing table whose names live in one byte arena
// (gfa_detail::NameTable), looked up in prefetched batches. Peak ingest memory is therefore the LeanGraph
// (16 bytes per step, 4 per node), plus the name arena and its slots, plus
// one block, plus the longest line that crosses a block boundary, plus two
// u32 words per node for the union-find. The union-find doubles as the
// partition-ready adjacency: LeanIngest carries dense component labels
// over edges + path steps, numbered by smallest node id — the only
// component labeller, shared by the CLI, the daemon, the benches and the
// tests (workloads::to_ingest routes generated graphs through here too).
//
// Dialect: GFA 1.0 (S/L/P) and GFA 1.1 (W walk) records, CRLF and
// trailing-whitespace tolerant, "S name *" with LN:i: length tags.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/lean_graph.hpp"

namespace pgl::graph {

/// Everything the layout + partition pipeline needs from an input graph.
struct LeanIngest {
    LeanGraph graph;

    /// Original segment name per node id (S-record order).
    std::vector<std::string> segment_names;
    /// Path name per path index: the P-record name, or the synthesized
    /// sample#hap#seqid[:start-end] for a W walk.
    std::vector<std::string> path_names;

    /// Partition-ready adjacency: dense connected-component labels over
    /// L-links and path/walk steps, numbered by smallest member node id
    /// (partition::take_labels hands them to partition::decompose).
    std::uint32_t component_count = 0;
    std::vector<std::uint32_t> node_component;  ///< node id -> component
    std::vector<std::uint32_t> path_component;  ///< path index -> component

    std::uint64_t edge_count = 0;  ///< L records parsed (diagnostics only)
};

/// Streams GFA 1.0/1.1 from a seekable stream (two passes; file and string
/// streams both qualify). Throws std::runtime_error with a line number on
/// malformed input: duplicate segments, unknown segment references, bad
/// orientations, empty paths/walks.
LeanIngest ingest_gfa(std::istream& in);

/// Convenience overload reading from a file path.
LeanIngest ingest_gfa_file(const std::string& path);

}  // namespace pgl::graph

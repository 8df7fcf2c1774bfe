#pragma once
// Streaming GFA ingestion — the one GFA reader, sized for real-world
// pangenomes (PGGB, minigraph-cactus whole genomes). Instead of
// materializing a rich graph (sequences + edge set + per-path Handle
// vectors) and then distilling a LeanGraph from it, this reader makes two
// single-purpose passes over the input and fills a LeanGraphBuilder
// directly. A file is cut into byte windows at line starts, one per CPU
// the calling thread may use (none smaller than
// gfa_detail::kMinWindowBytes), and each pass runs its windows on a
// one-shot thread pool:
//
//   pass 1 (segments):  per window, S records (name, length, line), the
//                       step count of every P / W record and the line
//                       count; a serial merge in window order then gives
//                       node ids, the name table and line numbers exactly
//                       as one front-to-back scan would;
//   pass 2 (topology):  per window, L records and path steps into one
//                       lock-free union-find, and P / W steps, resolved
//                       against the now read-only name table, straight
//                       into each path's pre-sized range of the step array.
//
// Text already in memory (ingest_gfa_text) is cut into windows the same
// way. Every window count yields the same graph and, on malformed input,
// the same first error: any pass-1 error beats every pass-2 error, and within a pass the
// lowest line wins.
//
// Each window reads its bytes in 64 KiB pread blocks, never the whole
// file, and segment names resolve through an open-addressing table whose
// names live in one byte arena (gfa_detail::NameTable), looked up in
// prefetched batches. Peak ingest memory is therefore the LeanGraph (16
// bytes per step, 4 per node), plus the name arena and its slots, plus a
// block and the longest line that crosses a block boundary per window,
// plus one u32 word per node for the union-find. The union-find doubles as
// the partition-ready adjacency: LeanIngest carries dense component labels
// over edges + path steps, numbered by smallest node id — the only
// component labeller, shared by the CLI, the daemon, the benches and the
// tests (workloads::to_ingest routes generated graphs through here too).
//
// Dialect: GFA 1.0 (S/L/P) and GFA 1.1 (W walk) records, CRLF and
// trailing-whitespace tolerant, "S name *" with LN:i: length tags.
#include <cstdint>
#include <string>
#include <string_view>
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
    /// (partition::take_labels hands them to partition::remap).
    std::uint32_t component_count = 0;
    std::vector<std::uint32_t> node_component;  ///< node id -> component
    std::vector<std::uint32_t> path_component;  ///< path index -> component

    std::uint64_t edge_count = 0;  ///< L records parsed (diagnostics only)
};

/// Reads the GFA 1.0/1.1 file at `path` in byte windows on several
/// threads (see above). Throws std::runtime_error with a line number on
/// malformed input (duplicate segments, unknown segment references, bad
/// orientations, empty paths/walks), and when the path cannot be opened or
/// is not a regular file.
LeanIngest ingest_gfa_file(const std::string& path);

/// Reads GFA text held in memory exactly as ingest_gfa_file reads a file
/// of the same bytes: cut into window_count(text.size()) byte windows,
/// read on several threads, with the same result and errors.
LeanIngest ingest_gfa_text(std::string_view text);

}  // namespace pgl::graph

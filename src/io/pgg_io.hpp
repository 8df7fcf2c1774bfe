#pragma once
// Versioned binary graph cache (".pgg") — the ingest analogue of the ".lay"
// layout files: parse a whole-genome GFA once, cache the engine-ready
// LeanGraph plus the partition-ready component labels, and every later
// layout run skips GFA parsing entirely.
//
// Format (all integers little-endian):
//   magic   "PGLPGG01"                     (8 bytes; version in the magic)
//   u32     flags                          (bit 0: segment names present)
//   u64     node_count
//   u64     path_count
//   u64     total_steps
//   u32     component_count
//   node_count  x u32   node lengths
//   node_count  x u32   node -> component labels
//   [flags&1]   per node:  u32 name_len, name bytes
//   per path:   u32 name_len, name bytes, u32 step_count, u32 component
//   total_steps x u32   packed step records (Handle::packed, path-major)
//   u64     FNV-1a 64 checksum over every byte after the magic
//
// Step positions are NOT stored: the reader replays the packed steps
// through LeanGraphBuilder, so cumulative positions are recomputed exactly
// as GFA ingestion computes them and a cached graph is bit-identical to a
// fresh parse — the byte-equivalence ctest locks this in.
#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/gfa_stream.hpp"

namespace pgl::io {

/// The first bytes of every graph cache. A cache is recognised by them,
/// never by its file name.
inline constexpr std::string_view kPggMagic = "PGLPGG01";

void write_pgg(const graph::LeanIngest& g, std::ostream& out);
void write_pgg_file(const graph::LeanIngest& g, const std::string& path);

/// Writes a bare LeanGraph as a single-component cache without copying it
/// into a LeanIngest: no segment names, synthesized path names ("p0",
/// "p1", ...), every node and path labeled component 0. This is how the
/// multi-process partition executor ships one ComponentSubgraph to a
/// worker process; the worker's read_pgg_file round-trips it into a
/// bit-identical LeanGraph (positions replayed through LeanGraphBuilder,
/// exactly like the full writer).
void write_pgg_graph(const graph::LeanGraph& g, std::ostream& out);
void write_pgg_graph_file(const graph::LeanGraph& g, const std::string& path);

/// Throws std::runtime_error on bad magic, truncated data, implausible
/// header counts, checksum mismatch, or component labels the GFA ingest
/// could not have written: a step whose node sits outside its path's
/// component, node labels not numbered by first appearance in node-id
/// order, or a component_count other than the highest label + 1.
graph::LeanIngest read_pgg(std::istream& in);
graph::LeanIngest read_pgg_file(const std::string& path);

/// Ingestion front door used by tools: a regular file that starts with
/// kPggMagic loads through read_pgg_file, whatever its name; anything
/// else streams through graph::ingest_gfa_file.
graph::LeanIngest load_graph_file(const std::string& path);

}  // namespace pgl::io

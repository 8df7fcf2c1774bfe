#pragma once
// GFA v1 writer for variation graphs — the interchange format of the
// pangenome toolchain (odgi, vg, pggb). The workload generators build a
// VariationGraph in memory and write it out here; every reader of GFA goes
// through the one streaming reader in graph/gfa_stream.hpp, which builds
// the LeanGraph the layout consumes (workloads::to_ingest chains the two).
#include <iosfwd>
#include <string>

#include "graph/variation_graph.hpp"

namespace pgl::graph {

/// Writes GFA v1 preserving original segment names (nodes created without a
/// name get their 1-based decimal id, the historical behaviour); links use
/// overlap 0M, paths use '*' overlaps. Sequence-free nodes are written as
/// "*" with an LN:i: length tag.
void write_gfa(const VariationGraph& g, std::ostream& out);

void write_gfa_file(const VariationGraph& g, const std::string& path);

}  // namespace pgl::graph

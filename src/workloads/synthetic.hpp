#pragma once
// Synthetic pangenome generator — the stand-in for the HPRC human
// chromosome dataset (see DESIGN.md, substitution table). Emits variation
// graphs with the structural signature of real pangenomes: a long linear
// backbone (sequence homology), SNV bubbles, insertions, deletions, large
// structural variants, inversions and tandem-duplication loops, traversed
// by a configurable number of haplotype paths.
//
// The layout algorithm only ever reads topology, node lengths and path
// walks, so matching those statistics (node count, edge/node ratio ~ 1.36,
// path count, node length distribution) reproduces the paper's workload.
// Layout consumes a generated graph only through to_ingest, which loads it
// with the CLI's own GFA reader and component labeller.
#include <cstdint>
#include <string>
#include <vector>

#include "graph/gfa_stream.hpp"
#include "graph/lean_graph.hpp"
#include "graph/variation_graph.hpp"

namespace pgl::workloads {

struct PangenomeSpec {
    std::string name = "synthetic";
    std::uint64_t backbone_nodes = 1000;  ///< nodes on the linear backbone
    std::uint32_t n_paths = 12;           ///< haplotypes walking the graph

    // Per-backbone-position variant probabilities.
    double snv_rate = 0.18;   ///< biallelic substitution bubble
    double ins_rate = 0.02;   ///< insertion present in a subset of paths
    double del_rate = 0.02;   ///< deletion (skip edge) in a subset of paths
    double sv_rate = 0.002;   ///< large structural variant (alt segment)
    double inv_rate = 0.001;  ///< inversion (reverse traversal of a segment)
    double loop_rate = 0.001; ///< tandem duplication (path revisits a segment)

    std::uint32_t node_len_min = 1;   ///< nucleotides per node, uniform
    std::uint32_t node_len_max = 8;
    std::uint32_t sv_segment_nodes = 12;  ///< nodes per SV alternative
    std::uint32_t dup_segment_nodes = 6;  ///< nodes revisited by a loop

    double allele_frequency = 0.3;  ///< P(a path takes the alternative allele)

    std::uint64_t seed = 1234;
};

/// Generates a variation graph from the spec. Every emitted path is a valid
/// walk (consecutive steps connected by edges) and the graph passes
/// VariationGraph::validate().
graph::VariationGraph generate_pangenome(const PangenomeSpec& spec);

/// Loads a generated graph exactly as the CLI loads a GFA file: writes it
/// with graph::write_gfa into a string and returns graph::ingest_gfa_text
/// of it — the file reader's byte windows and threads — so the lean graph,
/// the names and the component labels are the CLI's own. Throws
/// std::runtime_error on an empty path, as the reader does.
graph::LeanIngest to_ingest(const graph::VariationGraph& g);

// --- Presets mirroring the paper's representative graphs (Table I) ---

/// HLA-DRB1-like gene graph: ~5e3 nodes, 12 paths, ~4.4 bp/node.
PangenomeSpec hla_drb1_spec();

/// MHC-like region: targets ~2.3e5 * scale nodes, 99 paths, ~26 bp/node.
PangenomeSpec mhc_spec(double scale = 1.0);

/// Human chromosome k (1..22, 23 = X, 24 = Y), scaled. At scale = 1 the
/// node counts follow Table VI/VII proportions (Chr1 ~ 1.1e7 nodes); the
/// default experiments run at scale ~ 0.01 to fit this container.
PangenomeSpec chromosome_spec(int chromosome, double scale);

/// Display name ("Chr.1" ... "Chr.22", "Chr.X", "Chr.Y").
std::string chromosome_name(int chromosome);

// --- Multi-component whole-genome workload (partition subsystem) ---

/// Deterministic per-component specs of a synthetic whole genome: component
/// k is chromosome_spec(1 + k % 24, scale) with a seed mixed from `seed`
/// (SplitMix64 stream) and a component-unique name, so the composed graph
/// is reproducible for a fixed (n_components, scale, seed).
std::vector<PangenomeSpec> whole_genome_spec(std::uint32_t n_components,
                                             double scale,
                                             std::uint64_t seed = 0xC0DE);

/// Generates every spec and merges the results into one VariationGraph with
/// disjoint node-id ranges (spec order = ascending id ranges), one
/// connected component per spec. The inverse of partition::decompose: on
/// to_ingest of the result, that call recovers exactly these components,
/// in this order.
graph::VariationGraph generate_whole_genome(
    const std::vector<PangenomeSpec>& specs);

/// The same genome at a finer node segmentation: `sub` times as many
/// backbone nodes, each `sub` times shorter, with per-node variant rates
/// divided by `sub` so variant density *per nucleotide* is unchanged.
/// Models bp-resolution graph builds (pggb/minigraph-cactus emit many short
/// nodes where odgi-style builds merge them); the multilevel bench runs on
/// this form because segmentation redundancy is exactly the dimension run
/// coarsening removes.
PangenomeSpec with_finer_segmentation(PangenomeSpec spec, std::uint32_t sub);

// --- Exact-structure workload for the multilevel coarsener ---

/// A backbone of `runs` maximal linear runs, each `run_length` nodes of
/// `node_len` nucleotides, separated by biallelic single-node bubbles that
/// force run boundaries (both alleles are always taken by at least one path
/// when n_paths >= 2). The coarsener's output on this graph is known in
/// closed form: exactly `runs` run-nodes of `run_length` fine nodes each,
/// plus 2*(runs-1) singleton separator nodes — see generate_linear_runs.
struct LinearRunSpec {
    std::uint32_t runs = 4;          ///< maximal linear runs on the backbone
    std::uint32_t run_length = 8;    ///< fine nodes per run
    std::uint32_t n_paths = 3;       ///< haplotypes walking the backbone
    std::uint32_t node_len = 5;      ///< nucleotides per backbone node
    bool separators = true;          ///< bubble between consecutive runs;
                                     ///< false collapses the whole backbone
                                     ///< into one run
    bool invert_alternate = false;   ///< odd runs are traversed in reverse
                                     ///< (id-descending, flipped handles) by
                                     ///< every path
    std::uint64_t seed = 99;         ///< allele choice of paths >= 2
};

/// Appends the spec's nodes (ids starting at node_lengths.size()) and paths
/// to the given from_parts inputs. Composing several calls builds a
/// multi-component graph with disjoint id ranges — the seam the
/// runs-never-span-components tests drive.
void append_linear_runs(const LinearRunSpec& spec,
                        std::vector<std::uint32_t>& node_lengths,
                        std::vector<std::vector<graph::Handle>>& paths);

/// LeanGraph::from_parts over a single spec.
graph::LeanGraph generate_linear_runs(const LinearRunSpec& spec);

}  // namespace pgl::workloads

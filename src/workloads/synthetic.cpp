#include "workloads/synthetic.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::workloads {

namespace {

using graph::Handle;
using graph::NodeId;
using graph::VariationGraph;

enum class VariantKind : std::uint8_t {
    kNone,
    kSnv,       // alternative node parallel to the backbone node
    kInsertion, // extra node between this backbone node and the next
    kDeletion,  // some paths skip the next backbone node
    kSv,        // alternative multi-node segment replacing the next K nodes
    kInversion, // some paths traverse the next K nodes reverse-complemented
    kLoop,      // some paths revisit the previous K nodes (tandem dup)
};

struct VariantSite {
    VariantKind kind = VariantKind::kNone;
    std::vector<NodeId> alt_nodes;  // SNV alt, insertion node, or SV segment
    std::uint32_t span = 0;         // backbone nodes affected (del/sv/inv/loop)
};

std::string random_sequence(rng::Xoshiro256Plus& rng, std::uint32_t len) {
    static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
    std::string s(len, 'A');
    for (auto& c : s) c = kBases[rng.next_bounded(4)];
    return s;
}

std::uint32_t draw_len(rng::Xoshiro256Plus& rng, const PangenomeSpec& spec) {
    const std::uint32_t lo = std::max<std::uint32_t>(1, spec.node_len_min);
    const std::uint32_t hi = std::max(lo, spec.node_len_max);
    return lo + static_cast<std::uint32_t>(rng.next_bounded(hi - lo + 1));
}

}  // namespace

VariationGraph generate_pangenome(const PangenomeSpec& spec) {
    assert(spec.backbone_nodes >= 2);
    assert(spec.n_paths >= 1);
    rng::Xoshiro256Plus rng(spec.seed);
    VariationGraph g;

    const std::uint64_t nb = spec.backbone_nodes;

    // 1. Backbone nodes.
    std::vector<NodeId> backbone(nb);
    for (std::uint64_t b = 0; b < nb; ++b) {
        backbone[b] = g.add_node(random_sequence(rng, draw_len(rng, spec)));
    }

    // 2. Variant plan. Multi-node variants claim a span of backbone
    //    positions; spans never overlap (the cursor skips claimed nodes).
    std::vector<VariantSite> sites(nb);
    std::uint64_t b = 1;  // keep position 0 invariant so all paths share a source
    while (b + 1 < nb) {
        VariantSite& site = sites[b];
        const double u = rng.next_double();
        double acc = spec.snv_rate;
        if (u < acc) {
            site.kind = VariantKind::kSnv;
            site.alt_nodes.push_back(g.add_node(random_sequence(rng, 1)));
            b += 1;
            continue;
        }
        acc += spec.ins_rate;
        if (u < acc) {
            site.kind = VariantKind::kInsertion;
            site.alt_nodes.push_back(
                g.add_node(random_sequence(rng, draw_len(rng, spec))));
            b += 1;
            continue;
        }
        acc += spec.del_rate;
        if (u < acc && b + 2 < nb) {
            site.kind = VariantKind::kDeletion;
            site.span = 1;
            b += 2;
            continue;
        }
        acc += spec.sv_rate;
        if (u < acc && b + spec.sv_segment_nodes + 1 < nb) {
            site.kind = VariantKind::kSv;
            site.span = spec.sv_segment_nodes;
            for (std::uint32_t k = 0; k < spec.sv_segment_nodes; ++k) {
                site.alt_nodes.push_back(
                    g.add_node(random_sequence(rng, draw_len(rng, spec))));
            }
            b += site.span + 1;
            continue;
        }
        acc += spec.inv_rate;
        if (u < acc && b + 3 < nb) {
            site.kind = VariantKind::kInversion;
            site.span = 3;
            b += site.span + 1;
            continue;
        }
        acc += spec.loop_rate;
        if (u < acc && b > spec.dup_segment_nodes + 1) {
            site.kind = VariantKind::kLoop;
            site.span = spec.dup_segment_nodes;
            b += 1;
            continue;
        }
        b += 1;
    }

    // 3. Haplotype paths. Each path walks the backbone, drawing an allele at
    //    every variant site. add_path() materializes the implied edges.
    for (std::uint32_t h = 0; h < spec.n_paths; ++h) {
        std::vector<Handle> steps;
        steps.reserve(nb + nb / 8);
        std::uint64_t i = 0;
        while (i < nb) {
            const VariantSite& site = sites[i];
            const bool alt = rng.next_double() < spec.allele_frequency;
            switch (site.kind) {
                case VariantKind::kSnv:
                    steps.push_back(Handle::forward(alt ? site.alt_nodes[0]
                                                        : backbone[i]));
                    ++i;
                    break;
                case VariantKind::kInsertion:
                    steps.push_back(Handle::forward(backbone[i]));
                    if (alt) steps.push_back(Handle::forward(site.alt_nodes[0]));
                    ++i;
                    break;
                case VariantKind::kDeletion:
                    steps.push_back(Handle::forward(backbone[i]));
                    i += alt ? 2 : 1;  // alt allele skips the next node
                    break;
                case VariantKind::kSv:
                    steps.push_back(Handle::forward(backbone[i]));
                    if (alt) {
                        for (NodeId n : site.alt_nodes) {
                            steps.push_back(Handle::forward(n));
                        }
                        i += site.span + 1;
                    } else {
                        ++i;
                    }
                    break;
                case VariantKind::kInversion:
                    steps.push_back(Handle::forward(backbone[i]));
                    if (alt) {
                        // Traverse the next `span` nodes reversed, in
                        // reverse order — a genuine inversion walk.
                        for (std::uint32_t k = site.span; k >= 1; --k) {
                            steps.push_back(Handle::reverse(backbone[i + k]));
                        }
                        i += site.span + 1;
                    } else {
                        ++i;
                    }
                    break;
                case VariantKind::kLoop:
                    steps.push_back(Handle::forward(backbone[i]));
                    if (alt) {
                        // Tandem duplication: re-walk the previous `span`
                        // backbone nodes (creating the back edge that forms
                        // the visual loop), then return to node i and
                        // continue; the i-1 -> i edge already exists.
                        for (std::uint32_t k = site.span; k >= 1; --k) {
                            steps.push_back(Handle::forward(backbone[i - k]));
                        }
                        steps.push_back(Handle::forward(backbone[i]));
                    }
                    ++i;
                    break;
                case VariantKind::kNone:
                default:
                    steps.push_back(Handle::forward(backbone[i]));
                    ++i;
                    break;
            }
        }
        g.add_path(spec.name + "#" + std::to_string(h), std::move(steps));
    }
    return g;
}

graph::LeanIngest to_ingest(const graph::VariationGraph& g) {
    std::ostringstream gfa;
    graph::write_gfa(g, gfa);
    return graph::ingest_gfa_text(std::move(gfa).str());
}

PangenomeSpec hla_drb1_spec() {
    PangenomeSpec s;
    s.name = "HLA-DRB1";
    // Targets Table I: ~5.0e3 nodes, ~6.8e3 edges, 12 paths, ~2.2e4 nuc.
    s.backbone_nodes = 3800;
    s.n_paths = 12;
    s.snv_rate = 0.30;
    s.ins_rate = 0.03;
    s.del_rate = 0.14;
    s.sv_rate = 0.004;
    s.inv_rate = 0.002;
    s.loop_rate = 0.002;
    s.node_len_min = 1;
    s.node_len_max = 8;
    s.seed = 0xD0B1;
    return s;
}

PangenomeSpec mhc_spec(double scale) {
    PangenomeSpec s;
    s.name = "MHC";
    // Targets Table I: ~2.3e5 nodes, ~3.2e5 edges, 99 paths, ~5.9e6 nuc.
    s.backbone_nodes =
        std::max<std::uint64_t>(64, static_cast<std::uint64_t>(175000 * scale));
    s.n_paths = 99;
    s.snv_rate = 0.30;
    s.ins_rate = 0.03;
    s.del_rate = 0.14;
    s.sv_rate = 0.003;
    s.inv_rate = 0.002;
    s.loop_rate = 0.002;
    s.node_len_min = 8;
    s.node_len_max = 44;  // mean ~26 bp/node
    s.seed = 0x4A4C;
    return s;
}

namespace {
// Relative sizes of the 24 HPRC chromosome graphs, normalized to Chr.1.
// Derived from human chromosome lengths; Chr.Y's pangenome is tiny (mostly
// a single haplotype), matching its 2-minute CPU runtime in Table VII.
constexpr double kChromWeight[24] = {
    1.00, 0.97, 0.80, 0.77, 0.73, 0.69, 0.64, 0.59,  // 1-8
    0.57, 0.54, 0.54, 0.53, 0.46, 0.43, 0.41, 0.36,  // 9-16
    0.33, 0.32, 0.24, 0.26, 0.19, 0.20, 0.62, 0.03,  // 17-22, X, Y
};
}  // namespace

PangenomeSpec chromosome_spec(int chromosome, double scale) {
    assert(chromosome >= 1 && chromosome <= 24);
    PangenomeSpec s;
    s.name = chromosome_name(chromosome);
    const double w = kChromWeight[chromosome - 1];
    // Chr.1 at scale 1 targets ~1.1e7 nodes (Table I) => backbone ~8.3e6.
    s.backbone_nodes = std::max<std::uint64_t>(
        128, static_cast<std::uint64_t>(8.3e6 * w * scale));
    // Paths scale weakly with chromosome size (HPRC: hundreds to thousands).
    s.n_paths = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(44.0 * (0.5 + w)));
    if (chromosome == 24) s.n_paths = 6;  // Chr.Y: few haplotypes
    s.snv_rate = 0.30;
    s.ins_rate = 0.03;
    s.del_rate = 0.14;
    s.sv_rate = 0.002;
    s.inv_rate = 0.001;
    s.loop_rate = 0.001;
    s.node_len_min = 40;
    s.node_len_max = 160;  // mean ~100 bp/node as in Chr-scale graphs
    s.seed = 0xC450 + static_cast<std::uint64_t>(chromosome);
    return s;
}

std::string chromosome_name(int chromosome) {
    if (chromosome == 23) return "Chr.X";
    if (chromosome == 24) return "Chr.Y";
    return "Chr." + std::to_string(chromosome);
}

std::vector<PangenomeSpec> whole_genome_spec(std::uint32_t n_components,
                                             double scale, std::uint64_t seed) {
    rng::SplitMix64 mix(seed);
    std::vector<PangenomeSpec> specs;
    specs.reserve(n_components);
    for (std::uint32_t k = 0; k < n_components; ++k) {
        PangenomeSpec s = chromosome_spec(1 + static_cast<int>(k % 24), scale);
        s.seed = mix.next();
        // Components beyond the 24 chromosomes model unplaced contigs of the
        // same chromosome class; the name stays unique either way.
        s.name = "c" + std::to_string(k) + "." + s.name;
        specs.push_back(std::move(s));
    }
    return specs;
}

graph::VariationGraph generate_whole_genome(
    const std::vector<PangenomeSpec>& specs) {
    VariationGraph whole;
    for (const PangenomeSpec& spec : specs) {
        const VariationGraph part = generate_pangenome(spec);
        const auto offset = static_cast<NodeId>(whole.node_count());
        for (NodeId v = 0; v < part.node_count(); ++v) {
            whole.add_node(std::string(part.sequence(v)));
        }
        const auto shift = [offset](Handle h) {
            return Handle::make(h.id() + offset, h.is_reverse());
        };
        for (const graph::Edge& e : part.edges()) {
            whole.add_edge(shift(e.from), shift(e.to));
        }
        for (const graph::PathRecord& p : part.paths()) {
            std::vector<Handle> steps;
            steps.reserve(p.steps.size());
            for (const Handle& h : p.steps) steps.push_back(shift(h));
            whole.add_path(p.name, std::move(steps));
        }
    }
    return whole;
}

PangenomeSpec with_finer_segmentation(PangenomeSpec spec, std::uint32_t sub) {
    if (sub <= 1) return spec;
    const double s = static_cast<double>(sub);
    spec.backbone_nodes *= sub;
    spec.snv_rate /= s;
    spec.ins_rate /= s;
    spec.del_rate /= s;
    spec.sv_rate /= s;
    spec.inv_rate /= s;
    spec.loop_rate /= s;
    spec.node_len_min = std::max<std::uint32_t>(1, spec.node_len_min / sub);
    spec.node_len_max =
        std::max<std::uint32_t>(spec.node_len_min, spec.node_len_max / sub);
    spec.sv_segment_nodes *= sub;
    spec.dup_segment_nodes *= sub;
    spec.name += "-sub" + std::to_string(sub);
    return spec;
}

void append_linear_runs(const LinearRunSpec& spec,
                        std::vector<std::uint32_t>& node_lengths,
                        std::vector<std::vector<Handle>>& paths) {
    const std::uint32_t base = static_cast<std::uint32_t>(node_lengths.size());
    const std::uint32_t runs = std::max(1u, spec.runs);
    const std::uint32_t rl = std::max(1u, spec.run_length);
    const std::uint32_t bubbles = spec.separators ? runs - 1 : 0;

    // Layout of the id range: runs*rl backbone nodes first, then the two
    // alleles of each bubble (bubble b -> base + runs*rl + 2*b + {0, 1}).
    const std::uint32_t backbone = runs * rl;
    for (std::uint32_t i = 0; i < backbone + 2 * bubbles; ++i) {
        node_lengths.push_back(spec.node_len);
    }

    rng::SplitMix64 mix(spec.seed);
    const std::uint64_t salt = mix.next();
    for (std::uint32_t p = 0; p < std::max(1u, spec.n_paths); ++p) {
        std::vector<Handle> walk;
        walk.reserve(backbone + bubbles);
        for (std::uint32_t r = 0; r < runs; ++r) {
            const std::uint32_t first = base + r * rl;
            const bool rev = spec.invert_alternate && (r % 2 == 1);
            for (std::uint32_t i = 0; i < rl; ++i) {
                const std::uint32_t v = rev ? first + rl - 1 - i : first + i;
                walk.push_back(Handle::make(v, rev));
            }
            if (spec.separators && r + 1 < runs) {
                // Paths 0 and 1 pin the two alleles so every bubble is a
                // real branch point; the rest choose pseudo-randomly.
                std::uint32_t allele;
                if (p < 2) {
                    allele = p;
                } else {
                    rng::SplitMix64 pick(salt ^
                                         (0x9E3779B97F4A7C15ULL * (p + 1)) ^
                                         (0xBF58476D1CE4E5B9ULL * (r + 1)));
                    allele = static_cast<std::uint32_t>(pick.next() & 1u);
                }
                walk.push_back(Handle::make(base + backbone + 2 * r + allele,
                                            false));
            }
        }
        paths.push_back(std::move(walk));
    }
}

graph::LeanGraph generate_linear_runs(const LinearRunSpec& spec) {
    std::vector<std::uint32_t> node_lengths;
    std::vector<std::vector<Handle>> paths;
    append_linear_runs(spec, node_lengths, paths);
    return graph::LeanGraph::from_parts(std::move(node_lengths), paths);
}

}  // namespace pgl::workloads

// Whole-genome partition pipeline demo: generates a multi-component
// synthetic genome (one component per chromosome-like subgraph), writes it
// as GFA, then runs the explode -> layout -> squeeze pipeline — connected-
// component decomposition, one engine per component scheduled largest-first,
// shelf-stitched canvas — and renders the result.
//
//   ./whole_genome_layout [out_dir] [n_components] [scale] [backend] [sub]
//
// `sub` > 1 regenerates the same genome at `sub` times finer node
// segmentation (with_finer_segmentation) — the bp-resolution form whose
// run redundancy the multilevel coarsener collapses.
//
// The written GFA is the input CI feeds to `pgl_layout --partition` and
// the multilevel smoke comparison.
#include <iostream>
#include <string>

#include "draw/svg.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "metrics/path_stress.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    const std::uint32_t n_components =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;
    const double scale = argc > 3 ? std::atof(argv[3]) : 0.0005;
    const std::string backend = argc > 4 ? argv[4] : "cpu-pipelined";
    const std::uint32_t sub =
        argc > 5 ? static_cast<std::uint32_t>(std::atoi(argv[5])) : 1;

    auto specs = workloads::whole_genome_spec(n_components, scale, 0xC0DE);
    if (sub > 1) {
        for (auto& s : specs) s = workloads::with_finer_segmentation(s, sub);
    }
    const auto vg = workloads::generate_whole_genome(specs);
    std::cout << "genome: " << vg.node_count() << " nodes, " << vg.edge_count()
              << " edges, " << vg.path_count() << " paths in " << n_components
              << " components\n";

    const std::string gfa_path = out_dir + "/whole_genome.gfa";
    graph::write_gfa_file(vg, gfa_path);
    std::cout << "wrote " << gfa_path << "\n";
    // Read the file back exactly as `pgl_layout --partition` does.
    auto ing = graph::ingest_gfa_file(gfa_path);
    const graph::LeanGraph& lean = ing.graph;

    core::LayoutRequest req;
    req.backend = backend;
    req.config.iter_max = 10;
    req.config.steps_per_iter_factor = 2.0;
    req.component_workers = 2;
    const auto progress = [](const partition::ComponentProgress& p) {
        std::cout << "  component " << p.completed << "/" << p.total << " (id "
                  << p.component << "): " << p.nodes << " nodes in " << p.seconds
                  << " s\n";
    };
    const auto part = partition::partition_layout(
        lean, partition::take_labels(ing), req, progress);
    std::cout << backend << ": " << part.updates << " updates over "
              << part.decomposition.count() << " components in " << part.seconds
              << " s (engine time " << part.engine_seconds << " s)\n";
    std::cout << "canvas: " << part.stitched.width << " x "
              << part.stitched.height << "\n";

    const auto sps = metrics::sampled_path_stress(lean, part.stitched.layout, 20);
    std::cout << "sampled path stress: " << sps.value << " [" << sps.ci_low
              << ", " << sps.ci_high << "]\n";

    draw::write_svg_file(lean, part.stitched.layout,
                         out_dir + "/whole_genome.svg");
    std::cout << "wrote " << out_dir << "/whole_genome.svg\n";
    return 0;
}

// Quickstart: build the toy variation graph of the paper's Fig. 1, run the
// PG-SGD layout on any registered backend, report stress and write a
// GFA + SVG pair.
//
//   ./quickstart [output_dir] [backend]
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "graph/gfa.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    const std::string backend = argc > 2 ? argv[2] : "cpu-pipelined";

    // Fig. 1a: eight nodes, three genome paths, one SNV / insertion /
    // deletion among them.
    graph::VariationGraph vg;
    const auto v0 = vg.add_node("AA");
    const auto v1 = vg.add_node("T");    // insertion carried by path2
    const auto v2 = vg.add_node("GC");
    const auto v3 = vg.add_node("C");    // SNV alternative to v4
    const auto v4 = vg.add_node("TA");
    const auto v5 = vg.add_node("CA");
    const auto v6 = vg.add_node("AA");   // deleted in path1
    const auto v7 = vg.add_node("C");
    auto f = [](graph::NodeId n) { return graph::Handle::forward(n); };
    vg.add_path("path0", {f(v0), f(v2), f(v4), f(v5), f(v6), f(v7)});
    vg.add_path("path1", {f(v0), f(v2), f(v4), f(v5), f(v7)});
    vg.add_path("path2", {f(v0), f(v1), f(v2), f(v3), f(v5), f(v6), f(v7)});

    std::cout << "graph: " << vg.node_count() << " nodes, " << vg.edge_count()
              << " edges, " << vg.path_count() << " paths\n";

    const auto lean = workloads::to_ingest(vg).graph;

    if (!core::EngineRegistry::instance().contains(backend)) {
        std::cerr << "unknown backend " << backend << "; available:";
        for (const auto& n : core::EngineRegistry::instance().names()) {
            std::cerr << " " << n;
        }
        std::cerr << "\n";
        return 2;
    }

    core::LayoutConfig cfg;
    cfg.iter_max = 30;
    cfg.steps_per_iter_factor = 10.0;
    auto engine = core::make_engine(backend);
    engine->init(lean, cfg);
    const auto result = engine->run();

    const auto stress = metrics::path_stress(lean, result.layout);
    const auto sps = metrics::sampled_path_stress(lean, result.layout);
    std::cout << engine->name() << " layout finished in " << result.seconds
              << " s (" << result.updates << " updates)\n";
    std::cout << "path stress:         " << stress.value << "\n";
    std::cout << "sampled path stress: " << sps.value << "  [" << sps.ci_low
              << ", " << sps.ci_high << "]\n";

    graph::write_gfa_file(vg, out_dir + "/quickstart.gfa");
    std::cout << "wrote " << out_dir << "/quickstart.gfa\n";
    return 0;
}

// End-to-end chromosome pipeline, the analog of the paper's artifact flow:
//   generate a scaled Chr-class pangenome -> write GFA -> stream the GFA
//   back into the lean layout graph -> run the multithreaded CPU layout and
//   the optimized simulated-GPU layout -> compare quality -> persist the
//   layout (.lay) and a rendered SVG -> report the modeled paper-scale
//   speedup.
//
//   ./chromosome_pipeline [output_dir] [scale]
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "draw/svg.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "io/lay_io.hpp"
#include "metrics/path_stress.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.001;

    // 1. Generate and round-trip through GFA (the interchange format).
    const auto spec = workloads::chromosome_spec(20, scale);
    const auto vg = workloads::generate_pangenome(spec);
    const std::string gfa_path = out_dir + "/chr20_scaled.gfa";
    graph::write_gfa_file(vg, gfa_path);
    const auto ing = graph::ingest_gfa_file(gfa_path);
    const auto& g = ing.graph;
    std::cout << "GFA round trip: " << g.node_count() << " nodes, "
              << ing.edge_count << " edges, " << g.path_count() << " paths, "
              << g.total_path_steps() << " steps\n";

    // 2. CPU layout on the pipelined engine (persistent thread pool, 4
    // producer workers sampling ahead of the consumer).
    core::LayoutConfig cfg;
    cfg.iter_max = 10;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 4;
    auto cpu_engine = core::make_engine("cpu-pipelined");
    cpu_engine->init(g, cfg);
    const auto cpu = cpu_engine->run();
    std::cout << "CPU layout (cpu-pipelined, 4 threads): " << cpu.seconds
              << " s measured, " << cpu.updates << " updates\n";

    // 3. Simulated-GPU layout.
    gpusim::SimOptions sopt;
    sopt.counter_sample_period = 32;
    sopt.cache_scale = scale;
    cfg.threads = 1;
    const auto gpu = gpusim::simulate_gpu_layout(
        g, cfg, gpusim::KernelConfig::optimized(), gpusim::rtx_a6000(), sopt);

    // 4. Quality comparison.
    const auto s_cpu = metrics::sampled_path_stress(g, cpu.layout, 50);
    const auto s_gpu = metrics::sampled_path_stress(g, gpu.layout, 50);
    std::cout << "sampled path stress: CPU " << s_cpu.value << "  GPU "
              << s_gpu.value << "  ratio " << s_gpu.value / s_cpu.value << "\n";

    // 5. Persist artifacts.
    io::write_layout_file(gpu.layout, out_dir + "/chr20_scaled.lay");
    const auto reread = io::read_layout_file(out_dir + "/chr20_scaled.lay");
    std::cout << "layout file round trip: " << reread.size() << " nodes\n";
    draw::write_svg_file(g, gpu.layout, out_dir + "/chr20_scaled.svg");

    // 6. Modeled paper-scale speedup summary for this chromosome.
    const double per_update_gpu =
        gpu.modeled_seconds / static_cast<double>(gpu.counters.lane_updates);
    std::cout << "modeled GPU cost: " << per_update_gpu * 1e9
              << " ns/update -> full-scale Chr.20 in "
              << per_update_gpu * 300.0 *
                     static_cast<double>(g.total_path_steps()) / scale
              << " s on an RTX A6000 (paper: 90 s)\n";
    std::cout << "wrote " << gfa_path << ", chr20_scaled.lay, chr20_scaled.svg\n";
    return 0;
}

// Gene-scale case study on an HLA-DRB1-like pangenome (paper Figs. 2 & 6):
//   1. run the CPU PG-SGD layout and the simulated-GPU layout;
//   2. compare their quality with sampled path stress;
//   3. produce the degenerate fixed-hop layout of Fig. 6;
//   4. render SVGs of the good and the degenerate layout.
//
//   ./hla_drb1_layout [output_dir] [cpu_backend]
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "draw/svg.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const std::string out_dir = argc > 1 ? argv[1] : ".";
    const std::string cpu_backend = argc > 2 ? argv[2] : "cpu-pipelined";

    const auto spec = workloads::hla_drb1_spec();
    const auto vg = workloads::generate_pangenome(spec);
    const auto stats = vg.stats();
    std::cout << "HLA-DRB1-like graph: " << stats.nodes << " nodes, "
              << stats.edges << " edges, " << stats.paths << " paths, "
              << stats.nucleotides << " bp\n";
    const auto g = workloads::to_ingest(vg).graph;

    core::LayoutConfig cfg;
    cfg.iter_max = 20;
    cfg.steps_per_iter_factor = 5.0;

    // CPU baseline layout (any cpu-* registry backend).
    if (!core::EngineRegistry::instance().contains(cpu_backend)) {
        std::cerr << "unknown backend " << cpu_backend << "; available:";
        for (const auto& n : core::EngineRegistry::instance().names()) {
            std::cerr << " " << n;
        }
        std::cerr << "\n";
        return 2;
    }
    auto cpu_engine = core::make_engine(cpu_backend);
    cpu_engine->init(g, cfg);
    const auto cpu = cpu_engine->run();
    const auto sps_cpu = metrics::sampled_path_stress(g, cpu.layout);
    std::cout << cpu_engine->name() << " layout:     " << cpu.seconds
              << " s, sampled path stress " << sps_cpu.value << " ["
              << sps_cpu.ci_low << ", " << sps_cpu.ci_high << "]\n";

    // Simulated-GPU layout with all three kernel optimizations, through
    // the same engine interface.
    gpusim::SimOptions sopt;
    sopt.counter_sample_period = 64;
    auto gpu_engine = gpusim::make_gpusim_engine(
        gpusim::KernelConfig::optimized(), gpusim::rtx_a6000(), sopt);
    gpu_engine->init(g, cfg);
    const auto gpu = gpu_engine->run();
    const auto sps_gpu = metrics::sampled_path_stress(g, gpu.layout);
    std::cout << "GPU-sim layout: modeled " << gpu.seconds
              << " s, sampled path stress " << sps_gpu.value << "\n";
    std::cout << "SPS ratio (GPU/CPU): " << sps_gpu.value / sps_cpu.value
              << "  (paper: ~1, no quality loss)\n";

    draw::SvgOptions svg;
    svg.highlight_path = 0;
    draw::write_svg_file(g, cpu.layout, out_dir + "/hla_drb1_cpu.svg", svg);
    draw::write_svg_file(g, gpu.layout, out_dir + "/hla_drb1_gpu.svg", svg);
    std::cout << "wrote " << out_dir << "/hla_drb1_cpu.svg and hla_drb1_gpu.svg\n";
    return 0;
}

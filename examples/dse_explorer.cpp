// Performance-quality trade-off explorer (paper Sec. VII-D): sweeps the
// warp-level data-reuse design space (DRF x SRF) on a user-selected
// chromosome preset, scoring every scheme with sampled path stress — the
// workflow the paper's scalable metric enables.
//
//   ./dse_explorer [chromosome 1-24] [scale]
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const int chrom = argc > 1 ? std::atoi(argv[1]) : 2;
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.002;

    const auto spec = workloads::chromosome_spec(chrom, scale);
    const auto g = workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
    std::cout << "exploring " << spec.name << " (" << g.node_count()
              << " nodes, scale " << scale << ")\n\n";

    core::LayoutConfig cfg;
    cfg.iter_max = 8;
    cfg.steps_per_iter_factor = 1.0;

    gpusim::SimOptions sopt;
    sopt.counter_sample_period = 32;
    sopt.cache_scale = scale;
    const auto a6000 = gpusim::rtx_a6000();

    std::cout << std::left << std::setw(12) << "(DRF,SRF)" << std::setw(14)
              << "time (model)" << std::setw(12) << "speedup" << std::setw(12)
              << "SPS" << "verdict\n"
              << std::string(60, '-') << "\n";

    double t_ref = 0, sps_ref = 0;
    for (const auto& [drf, srf] :
         {std::pair<std::uint32_t, double>{1, 1.0}, {2, 1.5}, {2, 1.75},
          {4, 1.5}, {4, 2.0}, {8, 2.0}, {8, 2.5}}) {
        gpusim::KernelConfig k = gpusim::KernelConfig::optimized();
        k.data_reuse_factor = drf;
        k.step_reduction_factor = srf;
        const auto r = gpusim::simulate_gpu_layout(g, cfg, k, a6000, sopt);
        const double sps = metrics::sampled_path_stress(g, r.layout, 25).value;
        if (drf == 1) {
            t_ref = r.modeled_seconds;
            sps_ref = sps;
        }
        const double ratio = sps / sps_ref;
        const char* verdict =
            ratio < 2 ? "good" : (ratio < 10 ? "satisfying" : "poor");
        char scheme[32];
        std::snprintf(scheme, sizeof scheme, "(%u,%.2f)", drf, srf);
        std::cout << std::setw(12) << scheme
                  << std::setw(14) << r.modeled_seconds << std::setw(12)
                  << t_ref / r.modeled_seconds << std::setw(12) << sps << verdict
                  << "\n";
    }
    std::cout << "\npick the fastest scheme still rated good (paper: an extra "
                 "~1.5x is available)\n";
    return 0;
}

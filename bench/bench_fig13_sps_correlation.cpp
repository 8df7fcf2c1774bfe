// Reproduces Fig. 13: sampled path stress closely approximates exact path
// stress (paper: correlation 0.995 over 1824 small layouts). We generate a
// population of small pangenome layouts at assorted convergence levels and
// report the Pearson correlation of log-stress (the paper's Fig. 13 is a
// log-log scatter), plus seed-robustness of the estimator.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "metrics/path_stress.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 13: sampled path stress vs exact path stress ==\n";

    const int n_graphs = opt.quick ? 12 : 48;
    std::vector<double> xs, ys;

    for (int i = 0; i < n_graphs; ++i) {
        workloads::PangenomeSpec spec;
        spec.backbone_nodes = 200 + 57 * static_cast<std::uint64_t>(i % 8);
        spec.n_paths = 3 + (i % 5);
        spec.seed = opt.seed + static_cast<std::uint64_t>(i) * 101;
        const auto g = workloads::to_ingest(workloads::generate_pangenome(spec)).graph;

        auto cfg = opt.layout_config();
        cfg.iter_max = 1 + (i % 7) * 2;  // assorted convergence levels
        cfg.steps_per_iter_factor = 2.0;
        cfg.seed = spec.seed;
        const auto layout = bench::run_backend("cpu-pipelined", g, cfg).layout;

        const double exact = metrics::path_stress(g, layout).value;
        const double sampled =
            metrics::sampled_path_stress(g, layout, 100, opt.seed).value;
        if (exact > 0 && sampled > 0) {
            xs.push_back(std::log10(exact));
            ys.push_back(std::log10(sampled));
        }
    }

    // Pearson correlation.
    const auto n = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        syy += ys[i] * ys[i];
        sxy += xs[i] * ys[i];
    }
    const double corr = (n * sxy - sx * sy) /
                        std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
    std::cout << "layouts evaluated: " << xs.size() << "\n";
    std::cout << "log-log Pearson correlation(sampled, exact) = "
              << bench::fmt(corr, 4) << "   (paper: 0.995)\n";

    // Seed robustness: the estimator must be stable across sampling seeds.
    {
        const auto g = workloads::to_ingest(
            workloads::generate_pangenome(workloads::hla_drb1_spec())).graph;
        auto cfg = opt.layout_config();
        const auto layout = bench::run_backend("cpu-pipelined", g, cfg).layout;
        double lo = 1e300, hi = 0;
        for (std::uint64_t s = 1; s <= 5; ++s) {
            const double v = metrics::sampled_path_stress(g, layout, 100, s).value;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        std::cout << "seed robustness on HLA-DRB1: sampled PS spread over 5 "
                     "seeds = "
                  << bench::fmt(100.0 * (hi - lo) / lo, 2) << "%\n";
    }
    return 0;
}

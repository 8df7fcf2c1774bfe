// Reproduces Fig. 12: path stress separates HLA-DRB1 layouts of different
// quality. Four layouts are produced by truncating the SGD schedule at
// increasing depths (initial jumble -> fully converged); both exact path
// stress and sampled path stress are reported for each.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 12: layouts of HLA-DRB1 of different qualities ==\n";

    const auto g = bench::build_lean(workloads::hla_drb1_spec());

    // A deliberately bad starting point (random scatter).
    rng::Xoshiro256Plus rng(opt.seed);
    core::Layout scattered;
    scattered.resize(g.node_count());
    // Scatter box sized so the worst layout's stress lands in the same
    // order of magnitude as the paper's worst example (~1e2).
    const double span = static_cast<double>(g.total_path_nucleotides()) / 150.0;
    for (std::size_t i = 0; i < scattered.size(); ++i) {
        scattered[i].sx = static_cast<float>(rng.next_double() * span);
        scattered[i].sy = static_cast<float>(rng.next_double() * span);
        scattered[i].ex = static_cast<float>(rng.next_double() * span);
        scattered[i].ey = static_cast<float>(rng.next_double() * span);
    }

    bench::TablePrinter table({"Layout", "Path stress", "Sampled PS", "CI95",
                               "Paper analog"},
                              {24, 13, 12, 24, 14});
    table.print_header(std::cout);

    const auto report = [&](const std::string& name, const core::Layout& l,
                            const char* paper) {
        const auto exact = metrics::path_stress(g, l, opt.threads);
        const auto sps = metrics::sampled_path_stress(g, l, 100, opt.seed);
        table.print_row(std::cout,
                        {name, bench::fmt_sci(exact.value, 2),
                         bench::fmt_sci(sps.value, 2),
                         "[" + bench::fmt_sci(sps.ci_low, 1) + ", " +
                             bench::fmt_sci(sps.ci_high, 1) + "]",
                         paper});
    };

    report("random scatter", scattered, "142.2");
    const auto start = std::make_shared<const core::Layout>(scattered);
    // Truncated runs of one 30-iteration schedule: partially converged
    // layouts of decreasing stress, the analog of the paper's four panels.
    for (const auto& [iters, paper] :
         std::vector<std::pair<std::uint32_t, const char*>>{
             {6, "22.4"}, {15, "1.3"}, {30, "0.07"}}) {
        auto cfg = opt.layout_config();
        cfg.schedule_iter_max = 30;
        cfg.iter_max = iters;
        cfg.steps_per_iter_factor = 2.0;
        cfg.initial_layout = start;
        const auto r = bench::run_backend("cpu-pipelined", g, cfg);
        report("SGD, " + std::to_string(iters) + "/30 iterations", r.layout,
               paper);
    }
    std::cout << "\npaper shape: stress falls by orders of magnitude as the "
                 "layout converges; lower stress = more legible layout\n";
    return 0;
}

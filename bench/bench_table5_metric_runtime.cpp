// Reproduces Table V: run time of exact path stress vs sampled path stress
// on the three representative pangenomes, plus the quadratic-vs-linear
// extrapolation that makes exact stress infeasible at chromosome scale.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/path_stress.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Table V: run time of metric computation ==\n";

    struct Row {
        workloads::PangenomeSpec spec;
        bool exact_feasible;
        const char* paper_exact;
        const char* paper_sampled;
    };
    const Row rows[] = {
        {workloads::hla_drb1_spec(), true, "1.6 sec", "0.3 sec"},
        {workloads::mhc_spec(std::min(opt.scale * 25, 0.03)), true, "53.0 min", "6.5 sec"},
        {workloads::chromosome_spec(1, opt.scale), false, "(est.) 194 hour",
         "5.5 min"},
    };

    bench::TablePrinter table({"Pangenome", "# Nodes", "Path stress (s)",
                               "Sampled (s)", "Paper exact", "Paper sampled"},
                              {12, 10, 17, 13, 17, 14});
    table.print_header(std::cout);

    for (const Row& r : rows) {
        const auto g = bench::build_lean(r.spec, false);
        auto cfg = opt.layout_config();
        cfg.iter_max = std::min<std::uint32_t>(cfg.iter_max, 6);
        const auto layout = bench::run_backend("cpu-pipelined", g, cfg).layout;

        const auto sampled =
            metrics::sampled_path_stress(g, layout, 100, opt.seed, opt.threads);
        std::string exact_str;
        if (r.exact_feasible) {
            const auto exact = metrics::path_stress(g, layout, opt.threads);
            exact_str = bench::fmt(exact.seconds, 2);
        } else {
            // Quadratic extrapolation from a single path's pair count, as
            // the paper estimates 194 GPU-hours for Chr.1.
            double pairs = 0;
            for (std::uint32_t p = 0; p < g.path_count(); ++p) {
                const double s = g.path_step_count(p);
                pairs += s * (s - 1) / 2;
            }
            const double per_term_s = 6e-9;  // measured term cost, this host
            exact_str = "(est.) " + bench::fmt(pairs * per_term_s, 1);
        }
        table.print_row(std::cout,
                        {r.spec.name,
                         bench::fmt_sci(static_cast<double>(g.node_count())),
                         exact_str, bench::fmt(sampled.seconds, 2), r.paper_exact,
                         r.paper_sampled});
    }
    std::cout << "\npaper shape: exact path stress is quadratic (infeasible "
                 "at chromosome scale); sampling makes it linear\n";
    return 0;
}

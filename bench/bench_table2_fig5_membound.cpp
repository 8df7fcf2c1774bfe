// Reproduces Table II (memory stall cycle percentage, LLC-load miss rate)
// and Fig. 5 (memory-bound pipeline-slot share) for the three representative
// pangenomes, via the cache-simulator characterization of the PG-SGD
// address stream (the substitute for Perf/VTune — see DESIGN.md).
#include <iostream>

#include "bench_common.hpp"
#include "memsim/characterize.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Table II + Fig. 5: memory-bound characterization ==\n";

    struct Row {
        workloads::PangenomeSpec spec;
        double scale;
        const char* paper_stall;
        const char* paper_miss;
        const char* paper_membound;
    };
    const Row rows[] = {
        // The gene-scale run is dominated by ODGI's full auxiliary-structure
        // footprint, which the lean replayer underestimates; a scaled cache
        // restores the paper's cache-to-working-set ratio for HLA-DRB1.
        {workloads::hla_drb1_spec(), 0.04, "67.67%", "75.09%", "53.5%"},
        {workloads::mhc_spec(opt.scale * 25), opt.scale * 25, "78.07%", "77.84%",
         "65.4%"},
        {workloads::chromosome_spec(1, opt.scale), opt.scale, "77.38%", "89.88%",
         "70.9%"},
    };

    bench::TablePrinter table({"Pangenome", "Mem stall %", "(paper)",
                               "LLC miss rate", "(paper)", "Mem-bound slots",
                               "(paper)"},
                              {12, 12, 10, 14, 10, 16, 10});
    table.print_header(std::cout);

    for (const Row& r : rows) {
        const auto g = bench::build_lean(r.spec, false);
        const auto cfg = opt.layout_config();
        memsim::CharacterizeOptions chopt;
        chopt.sample_updates = opt.quick ? 200'000 : 1'000'000;
        chopt.llc_scale = r.scale;
        chopt.seed = opt.seed;
        const auto ch =
            memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
        table.print_row(
            std::cout,
            {r.spec.name, bench::fmt(ch.memory_stall_pct, 1) + "%", r.paper_stall,
             bench::fmt(100.0 * ch.llc_load_miss_rate, 1) + "%", r.paper_miss,
             bench::fmt(ch.memory_bound_pct, 1) + "%", r.paper_membound});
    }
    std::cout << "\npaper shape: all graphs memory-bound; miss rate and "
                 "memory-bound share grow with graph size\n";
    return 0;
}

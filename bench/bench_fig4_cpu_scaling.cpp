// Reproduces Fig. 4: thread scaling of the CPU baseline on HLA-DRB1, MHC
// and Chr.1-class graphs.
//
// The paper measures wall time on a 32-core Xeon. This container has a
// single core, so two series are reported per graph: the real measured wall
// time with T std::threads (flat on one core — included for honesty) and a
// critical-path work model (per-thread share of the update stream at the
// measured single-thread rate), which is what linear scaling looks like
// when every thread has its own core.
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 4: scaling of the CPU baseline with threads ==\n";
    std::cout << "host hardware threads: " << std::thread::hardware_concurrency()
              << " (paper: 32-core Xeon)\n\n";

    const workloads::PangenomeSpec specs[] = {
        workloads::hla_drb1_spec(),
        workloads::mhc_spec(opt.scale * 10),
        workloads::chromosome_spec(1, opt.scale),
    };

    bench::JsonReporter json(opt.json_path);
    for (const auto& spec : specs) {
        const auto g = bench::build_lean(spec);
        auto cfg = opt.layout_config();

        // Single-thread measured run establishes the per-update rate.
        cfg.threads = 1;
        const auto base = bench::run_backend("cpu-soa", g, cfg);
        const double rate = base.seconds /
                            static_cast<double>(std::max<std::uint64_t>(1, base.updates));

        bench::TablePrinter table(
            {"Threads", "Measured (s)", "Modeled multicore (s)", "Speedup"},
            {9, 14, 24, 9});
        table.print_header(std::cout);
        for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
            cfg.threads = t;
            const auto r = bench::run_backend("cpu-soa", g, cfg);
            auto rec = bench::make_record(opt, "bench_fig4_cpu_scaling",
                                          spec.name + "/cpu-soa", r);
            rec.threads = t;
            json.add(std::move(rec));
            const double modeled =
                rate * static_cast<double>(base.updates) / static_cast<double>(t);
            table.print_row(std::cout,
                            {std::to_string(t), bench::fmt(r.seconds, 3),
                             bench::fmt(modeled, 3),
                             bench::fmt(base.seconds / modeled, 1) + "x"});
        }
        std::cout << "\n";
    }
    std::cout << "paper shape: near-linear scaling from 1 to 32 threads on "
                 "all three graphs\n";
    return 0;
}

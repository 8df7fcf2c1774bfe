// Reproduces Fig. 4: thread scaling of the CPU baseline on HLA-DRB1, MHC
// and Chr.1-class graphs.
//
// The paper's Fig. 4 measured odgi's Hogwild loop, where every thread
// applies its own terms racily. This series is the ordered block engine,
// cpu-pipelined: with --threads T it samples on T + 1 threads, max(1, T)
// pool workers plus the calling thread, and the calling thread applies
// every block in a fixed order, so each row is byte-reproducible. The base
// row is the --threads 1 run (two samplers), and each row shows both
// counts.
//
// The paper measures wall time on a 32-core Xeon. Two series are reported
// per graph: the real measured wall time (flat once the samplers outnumber
// the host's cores) and a critical-path work model: the base run's time
// split evenly over the row's samplers, which is what linear scaling looks
// like when every sampler has its own core. The model counts the base run's
// time as serial work, which holds on a one-core host.
#include <algorithm>
#include <iostream>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 4: scaling of the CPU baseline with threads ==\n";
    std::cout << "paper: odgi's Hogwild loop; this series: the ordered block "
                 "engine (cpu-pipelined)\n";
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

        // The --threads 1 run (two samplers) sets the per-update rate.
        cfg.threads = 1;
        const auto base = bench::run_backend("cpu-pipelined", g, cfg);
        const double rate = base.seconds /
                            static_cast<double>(std::max<std::uint64_t>(1, base.updates));

        bench::TablePrinter table(
            {"Threads", "Samplers", "Measured (s)", "Modeled multicore (s)",
             "Speedup"},
            {9, 10, 14, 24, 9});
        table.print_header(std::cout);
        for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
            cfg.threads = t;
            const std::uint32_t samplers = t + 1;
            const auto r = bench::run_backend("cpu-pipelined", g, cfg);
            auto rec = bench::make_record(opt, "bench_fig4_cpu_scaling",
                                          spec.name + "/cpu-pipelined", r);
            rec.threads = t;
            json.add(std::move(rec));
            const double modeled =
                rate * static_cast<double>(base.updates) /
                static_cast<double>(samplers);
            table.print_row(std::cout,
                            {std::to_string(t), std::to_string(samplers),
                             bench::fmt(r.seconds, 3),
                             bench::fmt(modeled, 3),
                             bench::fmt(base.seconds / modeled, 1) + "x"});
        }
        std::cout << "\n";
    }
    std::cout << "paper shape: near-linear scaling from 1 to 32 threads on "
                 "all three graphs\n";
    return 0;
}

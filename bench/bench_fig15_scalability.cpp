// Reproduces Fig. 15: run time scales linearly with total path length for
// both the CPU baseline and the GPU kernel (the number of updates is
// proportional to total path length). With --json the measured host runs
// are also emitted as BenchRecords (one per path-length fraction, labeled
// "host-f<frac>") so the linearity series rides the same regression gate
// as every other bench.
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "memsim/characterize.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    auto opt = bench::BenchOptions::parse(argc, argv);
    opt.iters = std::min<std::uint32_t>(opt.iters, 6);
    opt.factor = std::min(opt.factor, 0.5);
    std::cout << "== Fig. 15: scalability vs total path length ==\n";

    bench::TablePrinter table({"Total path len (M, full)", "CPU model (s)",
                               "A6000 model (s)", "Measured host (s)"},
                              {26, 15, 17, 19});
    table.print_header(std::cout);

    const auto kernel = gpusim::KernelConfig::optimized();
    const auto a6000 = gpusim::rtx_a6000();
    bench::JsonReporter json(opt.json_path);

    for (const double frac : {0.25, 0.5, 0.75, 1.0, 1.5}) {
        const double scale = opt.scale * frac;
        const auto spec = workloads::chromosome_spec(1, scale);
        const auto g = bench::build_lean(spec, false);
        const auto cfg = opt.layout_config();
        const double full_updates = bench::full_scale_updates(g, opt.scale);
        const double full_path_len =
            static_cast<double>(g.total_path_nucleotides()) / opt.scale / 1e6;

        memsim::CharacterizeOptions chopt;
        chopt.sample_updates = opt.quick ? 100'000 : 300'000;
        chopt.llc_scale = opt.scale;
        const auto ch =
            memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
        const double t_cpu = memsim::CpuPerfModel{}.seconds(
            ch, static_cast<std::uint64_t>(full_updates));

        gpusim::SimOptions sopt;
        sopt.counter_sample_period = 32;
        sopt.cache_scale = opt.scale;
        const auto gpu = gpusim::simulate_gpu_layout(g, cfg, kernel, a6000, sopt);
        const double t_gpu =
            gpu.modeled_seconds *
            (full_updates / static_cast<double>(gpu.counters.lane_updates));

        // Real single-thread host run: also linear, directly measured.
        const auto host = bench::run_backend("cpu-pipelined", g, cfg);

        table.print_row(std::cout,
                        {bench::fmt(full_path_len, 1), bench::fmt(t_cpu, 0),
                         bench::fmt(t_gpu, 1), bench::fmt(host.seconds, 2)});
        json.add(bench::make_record(opt, "bench_fig15_scalability",
                                    "host-f" + bench::fmt(frac, 2), host));
    }
    std::cout << "\npaper shape: both series are straight lines through the "
                 "origin (updates proportional to total path length)\n";
    return 0;
}

// Reproduces Table VIII: layout quality comparison between the CPU baseline
// and the GPU kernel (A6000/A100 runs differ only in schedule partitioning
// here, so one functional GPU run per chromosome is compared twice in the
// paper; we run the simulator once per device seed). Reports sampled path
// stress with CI95 and the GPU/CPU SPS ratio; the paper's geometric-mean
// ratios are 1.08 (A6000) and 1.03 (A100) — i.e. no quality loss.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "metrics/path_stress.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    auto opt = bench::BenchOptions::parse(argc, argv);
    opt.iters = std::min<std::uint32_t>(opt.iters, 6);
    opt.factor = std::min(opt.factor, 0.5);
    std::cout << "== Table VIII: layout quality (sampled path stress) ==\n";

    bench::TablePrinter table({"Pan.", "CPU SPS", "CI95", "GPU SPS", "CI95",
                               "SPS ratio"},
                              {8, 9, 18, 9, 18, 9});
    table.print_header(std::cout);

    const auto kernel = gpusim::KernelConfig::optimized();
    const auto spec_gpu = gpusim::rtx_a6000();

    double log_sum = 0;
    int count = 0;
    const int last = opt.quick ? 4 : 24;

    for (int k = 1; k <= last; ++k) {
        const auto spec = workloads::chromosome_spec(k, opt.scale);
        const auto g = bench::build_lean(spec, false);
        const auto cfg = opt.layout_config();

        const auto cpu = bench::run_backend("cpu-pipelined", g, cfg);
        gpusim::SimOptions sopt;
        sopt.counter_sample_period = 64;  // quality run: minimize modeling cost
        sopt.cache_scale = opt.scale;
        const auto gpu = gpusim::simulate_gpu_layout(g, cfg, kernel, spec_gpu, sopt);

        const auto s_cpu =
            metrics::sampled_path_stress(g, cpu.layout, 25, opt.seed);
        const auto s_gpu =
            metrics::sampled_path_stress(g, gpu.layout, 25, opt.seed);
        const double ratio = s_gpu.value / s_cpu.value;
        log_sum += std::log(ratio);
        ++count;

        const auto ci = [](const metrics::StressResult& r) {
            return "[" + bench::fmt(r.ci_low, 2) + ", " + bench::fmt(r.ci_high, 2) +
                   "]";
        };
        table.print_row(std::cout,
                        {spec.name, bench::fmt(s_cpu.value, 2), ci(s_cpu),
                         bench::fmt(s_gpu.value, 2), ci(s_gpu),
                         bench::fmt(ratio, 2)});
    }
    std::cout << "\nGeometric mean SPS ratio (GPU/CPU): "
              << bench::fmt(std::exp(log_sum / count), 2)
              << "   (paper: 1.08 A6000 / 1.03 A100 — ~1 means no quality loss)\n";
    return 0;
}

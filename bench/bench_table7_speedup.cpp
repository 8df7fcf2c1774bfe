// Reproduces Table VII: run time and speedup of the optimized GPU kernel on
// the RTX A6000 and A100 versus the 32-thread CPU baseline, for all 24
// chromosome pangenomes.
//
// CPU times come from the cache-characterization Xeon model; GPU times from
// the GPU simulator, both extrapolated to paper-scale update counts (see
// DESIGN.md substitutions). The paper's geometric means are 27.7x (A6000)
// and 57.3x (A100).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "memsim/characterize.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    auto opt = bench::BenchOptions::parse(argc, argv);
    // This bench sweeps 24 graphs; trim per-graph work to keep the sweep
    // tractable on small hosts (override with --iters/--factor).
    opt.iters = std::min<std::uint32_t>(opt.iters, 6);
    opt.factor = std::min(opt.factor, 0.5);
    std::cout << "== Table VII: run time and speedup over the 24 chromosomes ==\n";

    bench::TablePrinter table({"Pan.", "CPU", "A6000", "Speedup", "A100",
                               "Speedup"},
                              {8, 10, 10, 9, 10, 9});
    table.print_header(std::cout);

    const auto a6000 = gpusim::rtx_a6000();
    const auto a100 = gpusim::a100();
    const auto kernel = gpusim::KernelConfig::optimized();

    double log_sum_a6000 = 0, log_sum_a100 = 0;
    int count = 0;
    const int last = opt.quick ? 4 : 24;

    for (int k = 1; k <= last; ++k) {
        const auto spec = workloads::chromosome_spec(k, opt.scale);
        const auto g = bench::build_lean(spec, false);
        const auto cfg = opt.layout_config();
        const double full_updates = bench::full_scale_updates(g, opt.scale);

        memsim::CharacterizeOptions chopt;
        chopt.sample_updates = opt.quick ? 150'000 : 400'000;
        chopt.llc_scale = opt.scale;
        chopt.seed = opt.seed;
        const auto ch =
            memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
        const double t_cpu = memsim::CpuPerfModel{}.seconds(
            ch, static_cast<std::uint64_t>(full_updates));

        gpusim::SimOptions sopt;
        sopt.counter_sample_period = 32;
        sopt.cache_scale = opt.scale;
        const auto gpu_time = [&](const gpusim::GpuSpec& spec_gpu) {
            const auto r = gpusim::simulate_gpu_layout(g, cfg, kernel, spec_gpu, sopt);
            return r.modeled_seconds *
                   (full_updates / static_cast<double>(r.counters.lane_updates));
        };
        const double t_a6000 = gpu_time(a6000);
        const double t_a100 = gpu_time(a100);

        log_sum_a6000 += std::log(t_cpu / t_a6000);
        log_sum_a100 += std::log(t_cpu / t_a100);
        ++count;

        table.print_row(std::cout,
                        {spec.name, bench::format_hms(t_cpu),
                         bench::format_hms(t_a6000),
                         bench::fmt(t_cpu / t_a6000, 1) + "x",
                         bench::format_hms(t_a100),
                         bench::fmt(t_cpu / t_a100, 1) + "x"});
    }

    std::cout << "\nGeometric mean speedup: A6000 "
              << bench::fmt(std::exp(log_sum_a6000 / count), 1) << "x (paper 27.7x), "
              << "A100 " << bench::fmt(std::exp(log_sum_a100 / count), 1)
              << "x (paper 57.3x)\n";
    return 0;
}

// Reproduces Table IX: effects of the cache-friendly data layout (CDL) on
// both the CPU baseline (LLC loads / misses, modeled run time) and the GPU
// kernel (DRAM traffic, modeled run time), on the Chr.1-class graph.
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "memsim/characterize.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Table IX: effects of the cache-friendly data layout ==\n";

    const auto spec = workloads::chromosome_spec(1, opt.scale);
    const auto g = bench::build_lean(spec);
    const auto cfg = opt.layout_config();
    const double full_updates = bench::full_scale_updates(g, opt.scale);

    // --- CPU side ---
    memsim::CharacterizeOptions chopt;
    chopt.sample_updates = opt.quick ? 200'000 : 1'000'000;
    chopt.llc_scale = opt.scale;
    chopt.seed = opt.seed;
    const auto soa = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
    const auto aos = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kAoS, chopt);
    memsim::CpuPerfModel cpu_model;
    const double scale_up = full_updates / static_cast<double>(soa.updates);

    bench::TablePrinter table({"Metric", "w/o CDL", "w/ CDL", "Improv.",
                               "Paper improv."},
                              {30, 14, 14, 10, 14});
    table.print_header(std::cout);
    const auto row = [&](const std::string& name, double a, double b,
                         const char* paper) {
        table.print_row(std::cout, {name, bench::fmt_sci(a), bench::fmt_sci(b),
                                    bench::fmt(a / b, 1) + "x", paper});
    };
    row("CPU LLC-loads (#, full scale)",
        static_cast<double>(soa.llc.accesses) * scale_up,
        static_cast<double>(aos.llc.accesses) * scale_up, "3.2x");
    row("CPU LLC-load-misses (#)", static_cast<double>(soa.llc.misses) * scale_up,
        static_cast<double>(aos.llc.misses) * scale_up, "3.3x");
    row("CPU run time (s, modeled)",
        cpu_model.seconds(soa, static_cast<std::uint64_t>(full_updates)),
        cpu_model.seconds(aos, static_cast<std::uint64_t>(full_updates)), "3.1x");

    // --- GPU side ---
    gpusim::SimOptions sopt;
    sopt.counter_sample_period = opt.quick ? 32 : 24;
    sopt.cache_scale = opt.scale;
    const auto a6000 = gpusim::rtx_a6000();
    gpusim::KernelConfig base = gpusim::KernelConfig::base();
    gpusim::KernelConfig cdl = base;
    cdl.cache_friendly_layout = true;
    const auto r_base = gpusim::simulate_gpu_layout(g, cfg, base, a6000, sopt);
    const auto r_cdl = gpusim::simulate_gpu_layout(g, cfg, cdl, a6000, sopt);
    const double gscale =
        full_updates / static_cast<double>(r_base.counters.lane_updates);
    row("GPU DRAM access (GB, full scale)",
        r_base.counters.dram_bytes() * gscale / 1e9,
        r_cdl.counters.dram_bytes() * gscale / 1e9, "1.3x");
    row("GPU run time (s, modeled)", r_base.modeled_seconds * gscale,
        r_cdl.modeled_seconds * gscale, "1.4x");
    std::cout << "\npaper: LLC loads 3.0e12 -> 9.4e11, DRAM 5191.9 GB -> "
                 "3974.4 GB, CPU 9158 s -> 2935 s, GPU 569 s -> 393 s\n";
    return 0;
}

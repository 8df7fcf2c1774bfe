// Reproduces Fig. 16: speedup through successive optimizations, relative to
// the 32-thread CPU baseline, on the Chr.1-class pangenome.
//
//   CPU baseline (1.0x) -> CPU w/ CDL (~3.1x) -> base PyTorch (~6.8x) ->
//   base CUDA (~14.6x) -> +CDL -> +CRS -> +WM (optimized, ~27.7x)
//
// CPU times come from the cache-simulator-driven Xeon model; GPU times from
// the GPU simulator's counters + latency model; PyTorch from the tensor
// substrate's kernel cost model. All are extrapolated to paper-scale update
// counts so the bars are comparable to the paper's.
#include <iostream>

#include "bench_common.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "memsim/characterize.hpp"
#include "tensor/torch_layout.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 16: speedup through successive optimizations ==\n";

    const auto spec = workloads::chromosome_spec(1, opt.scale);
    const auto g = bench::build_lean(spec);
    const auto cfg = opt.layout_config();
    const double full_updates = bench::full_scale_updates(g, opt.scale);

    // --- CPU baseline and CPU w/ CDL (modeled 32-thread Xeon) ---
    memsim::CharacterizeOptions chopt;
    chopt.sample_updates = opt.quick ? 200'000 : 1'000'000;
    chopt.llc_scale = opt.scale;
    chopt.seed = opt.seed;
    const auto ch_soa =
        memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
    const auto ch_aos =
        memsim::characterize_cpu(g, cfg, memsim::CoordStore::kAoS, chopt);
    memsim::CpuPerfModel cpu_model;
    const double t_cpu = cpu_model.seconds(
        ch_soa, static_cast<std::uint64_t>(full_updates));
    const double t_cpu_cdl = cpu_model.seconds(
        ch_aos, static_cast<std::uint64_t>(full_updates));

    // --- Base PyTorch (batch 1M, the Table III sweet spot) ---
    // The modeled gather cost must see the full-scale coordinate footprint
    // (Chr.1's coordinate tensors spill the GPU L2 at paper scale even
    // though the scaled replica's fit).
    tensor::KernelCostModel torch_cost;
    torch_cost.coord_bytes_override =
        2.0 * 2.0 * static_cast<double>(g.node_count()) * sizeof(float) / opt.scale;
    const auto torch = tensor::layout_torch(g, cfg, 1'000'000, torch_cost);
    const double sim_updates_torch =
        static_cast<double>(cfg.iter_max) *
        static_cast<double>(cfg.steps_per_iteration(g.total_path_steps()));
    const double t_torch =
        torch.modeled_seconds * (full_updates / sim_updates_torch);

    // --- GPU ladder on the RTX A6000 ---
    const auto gpu_spec = gpusim::rtx_a6000();
    gpusim::SimOptions sopt;
    sopt.counter_sample_period = opt.quick ? 32 : 24;
    sopt.cache_scale = opt.scale;

    const auto run_gpu = [&](const gpusim::KernelConfig& k) {
        const auto r = gpusim::simulate_gpu_layout(g, cfg, k, gpu_spec, sopt);
        const double sim_updates = static_cast<double>(r.counters.lane_updates);
        return r.modeled_seconds * (full_updates / sim_updates);
    };

    gpusim::KernelConfig k = gpusim::KernelConfig::base();
    const double t_base = run_gpu(k);
    k.cache_friendly_layout = true;
    const double t_cdl = run_gpu(k);
    k.coalesced_rng = true;
    const double t_crs = run_gpu(k);
    k.warp_merge = true;
    const double t_opt = run_gpu(k);

    bench::TablePrinter table({"Configuration", "Modeled time", "Speedup",
                               "Paper"},
                              {30, 14, 10, 10});
    table.print_header(std::cout);
    const auto row = [&](const std::string& name, double t, const char* paper) {
        table.print_row(std::cout, {name, bench::format_hms(t),
                                    bench::fmt(t_cpu / t, 1) + "x", paper});
    };
    row("CPU baseline (32T model)", t_cpu, "1.0x");
    row("CPU w/ CDL", t_cpu_cdl, "3.1x");
    row("Base PyTorch (batch 1M)", t_torch, "6.8x");
    row("Base CUDA kernel", t_base, "14.6x");
    row("+ cache-friendly layout", t_cdl, "-");
    row("+ coalesced random states", t_crs, "-");
    row("+ warp merging (optimized)", t_opt, "27.7x");
    return 0;
}

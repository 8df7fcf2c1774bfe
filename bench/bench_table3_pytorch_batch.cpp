// Reproduces Table III: run time, speedup and layout quality of the
// PyTorch-style batched implementation on the MHC pangenome, across batch
// sizes 10K .. 100M (batch sizes scale with --scale so the staleness regime
// relative to graph size matches the paper's).
#include <cstdint>
#include <iostream>

#include "bench_common.hpp"
#include "memsim/characterize.hpp"
#include "metrics/path_stress.hpp"
#include "tensor/torch_layout.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Table III: PyTorch implementation batch-size sweep (MHC) ==\n";

    const double mhc_scale = opt.scale * 25;  // MHC is ~25x smaller than Chr.1
    const auto g = bench::build_lean(workloads::mhc_spec(mhc_scale));
    const auto cfg = opt.layout_config();
    const double full_updates = bench::full_scale_updates(g, mhc_scale);
    const double sim_updates =
        static_cast<double>(cfg.iter_max) *
        static_cast<double>(cfg.steps_per_iteration(g.total_path_steps()));

    // CPU reference: quality baseline + modeled 32-thread Xeon time.
    const auto cpu = bench::run_backend("cpu-pipelined", g, cfg);
    const double sps_cpu =
        metrics::sampled_path_stress(g, cpu.layout, 25, opt.seed).value;
    memsim::CharacterizeOptions chopt;
    chopt.sample_updates = opt.quick ? 150'000 : 600'000;
    chopt.llc_scale = mhc_scale;
    const auto ch = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, chopt);
    const double t_cpu = memsim::CpuPerfModel{}.seconds(
        ch, static_cast<std::uint64_t>(full_updates));
    std::cout << "modeled 32-thread CPU baseline: " << bench::fmt(t_cpu, 1)
              << " s (paper: 107 s)\n\n";

    tensor::KernelCostModel cost;
    cost.coord_bytes_override =
        2.0 * 2.0 * static_cast<double>(g.node_count()) * sizeof(float) / mhc_scale;
    // Batches are scaled down with the graph; per-batch overheads must be
    // amortized as if batches were paper-sized, so scale them down too.
    cost.host_per_batch_us *= mhc_scale;
    cost.launch_overhead_us *= mhc_scale;

    bench::TablePrinter table({"Batch (paper)", "Run time (s)", "Speedup",
                               "SPS ratio", "Quality", "Paper"},
                              {15, 14, 10, 11, 12, 18});
    table.print_header(std::cout);

    struct Row {
        const char* paper_batch;
        double full_batch;
        const char* paper;
    };
    const Row rows[] = {
        {"10K", 1e4, "0.2x Good"},    {"100K", 1e5, "1.6x Good"},
        {"1M", 1e6, "6.8x Good"},     {"10M", 1e7, "7.5x Satisfying"},
        {"100M", 1e8, "9.1x Poor"},
    };
    for (const Row& r : rows) {
        const std::uint64_t batch = static_cast<std::uint64_t>(
            std::max(64.0, r.full_batch * mhc_scale));
        const auto res = tensor::layout_torch(g, cfg, batch, cost);
        const double t = res.modeled_seconds * (full_updates / sim_updates);
        const double sps =
            metrics::sampled_path_stress(g, res.layout, 25, opt.seed).value;
        const double ratio = sps / sps_cpu;
        const char* quality =
            ratio < 2.0 ? "Good" : (ratio < 10.0 ? "Satisfying" : "Poor");
        table.print_row(std::cout,
                        {r.paper_batch, bench::fmt(t, 1),
                         bench::fmt(t_cpu / t, 1) + "x", bench::fmt(ratio, 2),
                         quality, r.paper});
    }
    std::cout << "\npaper shape: run time falls then flattens past batch 1M; "
                 "quality degrades Good -> Satisfying -> Poor\n";
    return 0;
}

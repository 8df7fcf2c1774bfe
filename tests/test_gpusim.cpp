// Tests for the GPU simulator: functional quality, counter directions for
// each of the paper's three optimizations, and the time model.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "metrics/path_stress.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using gpusim::GpuSimResult;
using gpusim::KernelConfig;
using gpusim::SimOptions;

graph::LeanGraph test_graph(std::uint64_t backbone = 3000, std::uint32_t paths = 8) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = 21;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

core::LayoutConfig small_cfg() {
    core::LayoutConfig cfg;
    cfg.iter_max = 6;
    cfg.steps_per_iter_factor = 2.0;
    return cfg;
}

GpuSimResult run(const graph::LeanGraph& g, const KernelConfig& k,
                 const gpusim::GpuSpec& spec = gpusim::rtx_a6000()) {
    SimOptions opt;
    opt.counter_sample_period = 4;
    opt.cache_scale = 0.001;
    return gpusim::simulate_gpu_layout(g, small_cfg(), k, spec, opt);
}

TEST(GpuSpecs, PresetsMatchPublishedNumbers) {
    const auto a6000 = gpusim::rtx_a6000();
    EXPECT_EQ(a6000.sm_count, 84u);
    EXPECT_NEAR(a6000.dram_gbps, 768.0, 1e-9);
    const auto a = gpusim::a100();
    EXPECT_EQ(a.sm_count, 108u);
    EXPECT_NEAR(a.dram_gbps, 1555.0, 1e-9);
    EXPECT_GT(a.l2_bytes, a6000.l2_bytes);
}

TEST(GpuSim, ProducesConvergedLayout) {
    const auto g = test_graph();
    const auto r = run(g, KernelConfig::optimized());
    const auto sps = metrics::sampled_path_stress(g, r.layout, 20, 1);
    // A converged PG-SGD layout of these graphs lands well below stress 10;
    // the initial jittered-linear layout of a variant-rich graph is worse.
    EXPECT_LT(sps.value, 10.0);
    EXPECT_GT(r.counters.lane_updates, 0u);
}

TEST(GpuSim, QualityComparableToCpuBaseline) {
    const auto g = test_graph();
    const auto cfg = small_cfg();
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    const auto cpu = engine->run();
    const auto gpu = run(g, KernelConfig::optimized());
    const double s_cpu = metrics::sampled_path_stress(g, cpu.layout, 20, 1).value;
    const double s_gpu = metrics::sampled_path_stress(g, gpu.layout, 20, 1).value;
    // Table VIII: GPU/CPU sampled-path-stress ratio ~ 1 (we allow wide
    // slack because these are tiny graphs with few iterations).
    EXPECT_GT(s_gpu / s_cpu, 0.2);
    EXPECT_LT(s_gpu / s_cpu, 5.0);
}

TEST(GpuSim, LaunchesOneKernelPerIterationPlusInit) {
    const auto g = test_graph(500, 4);
    const auto r = run(g, KernelConfig::base());
    EXPECT_EQ(r.counters.kernel_launches, small_cfg().iter_max + 1);
}

TEST(GpuSim, CoalescedRandomStatesReduceSectorsPerRequest) {
    const auto g = test_graph();
    KernelConfig base = KernelConfig::base();
    KernelConfig crs = base;
    crs.coalesced_rng = true;
    const auto r_base = run(g, base);
    const auto r_crs = run(g, crs);
    // Table X: 26.8 -> 9.9 sectors per request (2.7x).
    EXPECT_GT(r_base.counters.sectors_per_request(),
              1.8 * r_crs.counters.sectors_per_request());
    EXPECT_GT(r_base.counters.l1_bytes(), r_crs.counters.l1_bytes());
}

TEST(GpuSim, CacheFriendlyLayoutReducesDramTraffic) {
    const auto g = test_graph();
    KernelConfig base = KernelConfig::base();
    KernelConfig cdl = base;
    cdl.cache_friendly_layout = true;
    const auto r_base = run(g, base);
    const auto r_cdl = run(g, cdl);
    // Table IX: DRAM access drops ~1.3x with CDL.
    EXPECT_GT(r_base.counters.dram_bytes(), 1.05 * r_cdl.counters.dram_bytes());
}

TEST(GpuSim, WarpMergingReducesInstructionsAndRaisesOccupancy) {
    const auto g = test_graph();
    KernelConfig base = KernelConfig::base();
    KernelConfig wm = base;
    wm.warp_merge = true;
    const auto r_base = run(g, base);
    const auto r_wm = run(g, wm);
    // Table XI: executed instructions 1.5x lower, active threads 20.5->27.9.
    EXPECT_GT(r_base.counters.executed_warp_instructions,
              1.2 * r_wm.counters.executed_warp_instructions);
    EXPECT_GT(r_wm.counters.avg_active_threads(),
              r_base.counters.avg_active_threads() + 3.0);
    EXPECT_LT(r_base.counters.avg_active_threads(), 24.0);
    EXPECT_GT(r_wm.counters.avg_active_threads(), 26.0);
}

TEST(GpuSim, EveryOptimizationImprovesModeledTime) {
    const auto g = test_graph();
    KernelConfig k = KernelConfig::base();
    const double t0 = run(g, k).modeled_seconds;
    k.cache_friendly_layout = true;
    const double t1 = run(g, k).modeled_seconds;
    k.coalesced_rng = true;
    const double t2 = run(g, k).modeled_seconds;
    k.warp_merge = true;
    const double t3 = run(g, k).modeled_seconds;
    EXPECT_LT(t1, t0);
    EXPECT_LT(t2, t1);
    EXPECT_LT(t3, t2);
}

TEST(GpuSim, A100FasterThanA6000) {
    const auto g = test_graph();
    const auto k = KernelConfig::optimized();
    const double t_a6000 = run(g, k, gpusim::rtx_a6000()).modeled_seconds;
    const double t_a100 = run(g, k, gpusim::a100()).modeled_seconds;
    EXPECT_LT(t_a100, t_a6000);
}

TEST(GpuSim, DataReuseTradesQualityForSpeed) {
    const auto g = test_graph();
    KernelConfig base = KernelConfig::optimized();
    KernelConfig reuse = base;
    reuse.data_reuse_factor = 8;
    reuse.step_reduction_factor = 2.5;
    const auto r_base = run(g, base);
    const auto r_reuse = run(g, reuse);
    // Fewer steps -> less modeled time.
    EXPECT_LT(r_reuse.modeled_seconds, r_base.modeled_seconds);
    // Aggressive reuse costs layout quality (Fig. 17: DRF 8 is "poor").
    const double s_base = metrics::sampled_path_stress(g, r_base.layout, 20, 1).value;
    const double s_reuse =
        metrics::sampled_path_stress(g, r_reuse.layout, 20, 1).value;
    EXPECT_GT(s_reuse, s_base);
}

TEST(GpuSim, TimeModelMonotonicInDramTraffic) {
    gpusim::GpuCounters a, b;
    a.l1_sectors = b.l1_sectors = 1e9;
    a.l2_sectors = b.l2_sectors = 1e8;
    a.dram_sectors = 1e7;
    b.dram_sectors = 5e7;
    a.executed_warp_instructions = b.executed_warp_instructions = 1e9;
    const auto spec = gpusim::rtx_a6000();
    EXPECT_LT(gpusim::model_time_seconds(a, spec),
              gpusim::model_time_seconds(b, spec));
}

TEST(GpuSim, DeterministicAcrossRuns) {
    const auto g = test_graph(800, 4);
    const auto r1 = run(g, KernelConfig::optimized());
    const auto r2 = run(g, KernelConfig::optimized());
    ASSERT_EQ(r1.layout.size(), r2.layout.size());
    for (std::size_t i = 0; i < r1.layout.size(); ++i) {
        EXPECT_EQ(r1.layout[i].sx, r2.layout[i].sx);
    }
    EXPECT_EQ(r1.counters.lane_updates, r2.counters.lane_updates);
}

}  // namespace

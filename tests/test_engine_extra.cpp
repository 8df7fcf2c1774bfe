// Additional engine/config coverage: truncated schedules, config
// predicates, sampler distribution properties and GPU-sim edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "core/sampling.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

/// Runs the CPU engine ("cpu-pipelined") through the registry.
core::LayoutResult run_cpu(const graph::LeanGraph& g,
                           const core::LayoutConfig& cfg) {
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    return engine->run();
}

graph::LeanGraph mk_graph(std::uint64_t backbone, std::uint32_t paths,
                          std::uint64_t seed = 77) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = seed;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

TEST(LayoutConfig, ScheduleLengthDefaultsToIterMax) {
    core::LayoutConfig cfg;
    cfg.iter_max = 12;
    EXPECT_EQ(cfg.schedule_length(), 12u);
    cfg.schedule_iter_max = 30;
    EXPECT_EQ(cfg.schedule_length(), 30u);
}

TEST(LayoutConfig, CoolingUsesScheduleLength) {
    core::LayoutConfig cfg;
    cfg.iter_max = 10;
    cfg.schedule_iter_max = 30;
    cfg.cooling_start = 0.5;
    // Cooling begins at iteration 15 of the 30-iteration schedule; a
    // truncated 10-iteration run never reaches it.
    EXPECT_FALSE(cfg.cooling(9));
    cfg.schedule_iter_max = 0;
    EXPECT_TRUE(cfg.cooling(5));
    EXPECT_FALSE(cfg.cooling(4));
}

TEST(LayoutConfig, StepsPerIterationFloorsAtOne) {
    core::LayoutConfig cfg;
    cfg.steps_per_iter_factor = 1e-9;
    EXPECT_EQ(cfg.steps_per_iteration(10), 1u);
    cfg.steps_per_iter_factor = 10.0;
    EXPECT_EQ(cfg.steps_per_iteration(100), 1000u);
}

TEST(CpuEngine, TruncatedScheduleIsLessConverged) {
    const auto g = mk_graph(400, 5);
    core::LayoutConfig cfg;
    cfg.schedule_iter_max = 20;
    cfg.steps_per_iter_factor = 2.0;
    cfg.iter_max = 4;
    const auto early = run_cpu(g, cfg);
    cfg.iter_max = 20;
    const auto full = run_cpu(g, cfg);
    const double s_early =
        metrics::sampled_path_stress(g, early.layout, 30, 1).value;
    const double s_full =
        metrics::sampled_path_stress(g, full.layout, 30, 1).value;
    EXPECT_GT(s_early, s_full);
}

TEST(CpuEngine, HandlesSingleStepPathGracefully) {
    // A graph with a 1-step path: all its terms are degenerate and skipped.
    graph::VariationGraph vg;
    const auto a = vg.add_node("ACGT");
    const auto b = vg.add_node("TTT");
    vg.add_path("long", {graph::Handle::forward(a), graph::Handle::forward(b)});
    vg.add_path("lonely", {graph::Handle::forward(a)});
    const auto g = workloads::to_ingest(vg).graph;
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 10.0;
    const auto r = run_cpu(g, cfg);
    EXPECT_GT(r.skipped, 0u);
    for (const core::Segment& s : r.layout) EXPECT_TRUE(std::isfinite(s.sx));
}

TEST(CpuEngine, CoordinatesStayFinite) {
    const auto g = mk_graph(600, 6);
    core::LayoutConfig cfg;
    cfg.iter_max = 10;
    cfg.steps_per_iter_factor = 3.0;
    const auto r = run_cpu(g, cfg);
    for (std::size_t i = 0; i < r.layout.size(); ++i) {
        ASSERT_TRUE(std::isfinite(r.layout[i].sx));
        ASSERT_TRUE(std::isfinite(r.layout[i].sy));
        ASSERT_TRUE(std::isfinite(r.layout[i].ex));
        ASSERT_TRUE(std::isfinite(r.layout[i].ey));
    }
}

TEST(PairSampler, ForcedBranchIsHonored) {
    const auto g = mk_graph(500, 3);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(1);
    for (int i = 0; i < 500; ++i) {
        EXPECT_TRUE(sampler.sample_branch(true, rng).took_cooling);
        EXPECT_FALSE(sampler.sample_branch(false, rng).took_cooling);
    }
}

TEST(PairSampler, NonCoolingIterMixesBranches) {
    const auto g = mk_graph(500, 3);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(2);
    int cooling = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) cooling += sampler.sample(false, rng).took_cooling;
    // Alg. 1 line 6: coin flip -> about half the steps cool.
    EXPECT_NEAR(cooling, n / 2.0, n * 0.02);
}

TEST(PairSampler, ZipfSpaceMaxBoundsHops) {
    const auto g = mk_graph(4000, 1);
    core::LayoutConfig cfg;
    cfg.zipf_space_max = 8;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(3);
    for (int i = 0; i < 20000; ++i) {
        const auto t = sampler.sample(true, rng);
        if (!t.valid) continue;
        const auto hop = t.step_i > t.step_j ? t.step_i - t.step_j
                                             : t.step_j - t.step_i;
        // Reflection at path ends can shorten but never lengthen a hop.
        ASSERT_LE(hop, 8u);
    }
}

TEST(PairSampler, DrefMatchesEndpointPositions) {
    const auto g = mk_graph(300, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(4);
    for (int i = 0; i < 2000; ++i) {
        const auto t = sampler.sample(false, rng);
        if (!t.valid) continue;
        const double d = t.pos_i > t.pos_j
                             ? static_cast<double>(t.pos_i - t.pos_j)
                             : static_cast<double>(t.pos_j - t.pos_i);
        ASSERT_EQ(t.d_ref, d);
    }
}

TEST(GpuSim, SrfReducesUpdates) {
    const auto g = mk_graph(800, 4);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 2.0;
    gpusim::SimOptions opt;
    opt.counter_sample_period = 64;
    opt.cache_scale = 0.001;
    auto k = gpusim::KernelConfig::optimized();
    const auto base = gpusim::simulate_gpu_layout(g, cfg, k, gpusim::rtx_a6000(), opt);
    k.step_reduction_factor = 2.0;
    const auto srf = gpusim::simulate_gpu_layout(g, cfg, k, gpusim::rtx_a6000(), opt);
    EXPECT_LT(srf.counters.warp_steps, base.counters.warp_steps);
}

TEST(GpuSim, DrfIncreasesUpdatesPerWarpStep) {
    const auto g = mk_graph(800, 4);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 2.0;
    gpusim::SimOptions opt;
    opt.counter_sample_period = 64;
    opt.cache_scale = 0.001;
    auto k = gpusim::KernelConfig::optimized();
    const auto base = gpusim::simulate_gpu_layout(g, cfg, k, gpusim::rtx_a6000(), opt);
    k.data_reuse_factor = 4;
    const auto drf = gpusim::simulate_gpu_layout(g, cfg, k, gpusim::rtx_a6000(), opt);
    const double per_step_base = static_cast<double>(base.counters.lane_updates) /
                                 static_cast<double>(base.counters.warp_steps);
    const double per_step_drf = static_cast<double>(drf.counters.lane_updates) /
                                static_cast<double>(drf.counters.warp_steps);
    EXPECT_GT(per_step_drf, 2.0 * per_step_base);
}

TEST(GpuSim, TinyGraphDoesNotCrash) {
    graph::VariationGraph vg;
    const auto a = vg.add_node("A");
    const auto b = vg.add_node("C");
    vg.add_path("p", {graph::Handle::forward(a), graph::Handle::forward(b)});
    const auto g = workloads::to_ingest(vg).graph;
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 1.0;
    gpusim::SimOptions opt;
    opt.counter_sample_period = 1;
    const auto r = gpusim::simulate_gpu_layout(
        g, cfg, gpusim::KernelConfig::optimized(), gpusim::rtx_a6000(), opt);
    EXPECT_EQ(r.layout.size(), 2u);
}

}  // namespace

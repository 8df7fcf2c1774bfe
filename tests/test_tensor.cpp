// Tests for the tensor substrate and the batched "PyTorch" layout.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "metrics/path_stress.hpp"
#include "tensor/tensor.hpp"
#include "tensor/torch_layout.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using tensor::KernelProfiler;
using tensor::Tensor;

TEST(TensorOps, IndexSelectGathers) {
    KernelProfiler prof;
    Tensor src(std::vector<float>{10, 20, 30, 40});
    const std::vector<std::uint32_t> idx{3, 0, 3};
    const Tensor out = tensor::index_select(src, idx, prof);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FLOAT_EQ(out[0], 40);
    EXPECT_FLOAT_EQ(out[1], 10);
    EXPECT_FLOAT_EQ(out[2], 40);
    EXPECT_EQ(prof.total_launches(), 1u);
}

TEST(TensorOps, IndexAddAccumulatesDuplicates) {
    KernelProfiler prof;
    Tensor dst(std::vector<float>{0, 0});
    const std::vector<std::uint32_t> idx{1, 1, 0};
    tensor::index_add(dst, idx, Tensor(std::vector<float>{1, 2, 3}), prof);
    EXPECT_FLOAT_EQ(dst[0], 3);
    EXPECT_FLOAT_EQ(dst[1], 3);
}

TEST(TensorOps, ElementwiseMath) {
    KernelProfiler prof;
    Tensor a(std::vector<float>{1, 2, 3});
    Tensor b(std::vector<float>{4, 5, 6});
    EXPECT_FLOAT_EQ(tensor::add(a, b, prof)[2], 9);
    EXPECT_FLOAT_EQ(tensor::sub(b, a, prof)[0], 3);
    EXPECT_FLOAT_EQ(tensor::mul(a, b, prof)[1], 10);
    EXPECT_FLOAT_EQ(tensor::div(b, a, prof)[1], 2.5);
    EXPECT_FLOAT_EQ(tensor::pow2(a, prof)[2], 9);
    EXPECT_FLOAT_EQ(tensor::sqrt(Tensor(std::vector<float>{16}), prof)[0], 4);
    EXPECT_FLOAT_EQ(tensor::mul_scalar(a, -2, prof)[0], -2);
}

TEST(TensorOps, WhereAndClamps) {
    KernelProfiler prof;
    Tensor cond(std::vector<float>{1, 0});
    Tensor a(std::vector<float>{7, 7});
    Tensor b(std::vector<float>{9, 9});
    const Tensor w = tensor::where(cond, a, b, prof);
    EXPECT_FLOAT_EQ(w[0], 7);
    EXPECT_FLOAT_EQ(w[1], 9);
    EXPECT_FLOAT_EQ(tensor::clamp_max(b, 8, prof)[0], 8);
    EXPECT_FLOAT_EQ(tensor::clamp_min(a, 8, prof)[0], 8);
}

TEST(TensorOps, SumReduction) {
    KernelProfiler prof;
    EXPECT_DOUBLE_EQ(tensor::sum(Tensor(std::vector<float>{1, 2, 3.5}), prof), 6.5);
}

TEST(KernelProfilerTest, CountsLaunchesAndTime) {
    KernelProfiler prof;
    prof.record("index", 1000);
    prof.record("index", 1000);
    prof.record("mul", 500);
    EXPECT_EQ(prof.total_launches(), 3u);
    EXPECT_EQ(prof.per_kernel_launches().at("index"), 2u);
    EXPECT_GT(prof.per_kernel_seconds().at("index"),
              prof.per_kernel_seconds().at("mul"));
    EXPECT_GT(prof.api_seconds(), 0.0);
    prof.reset();
    EXPECT_EQ(prof.total_launches(), 0u);
}

TEST(KernelProfilerTest, ApiFractionShrinksWithBiggerKernels) {
    KernelProfiler small, big;
    small.record("index", 100);
    big.record("index", 100'000'000);
    EXPECT_GT(small.api_time_fraction(), big.api_time_fraction());
}

graph::LeanGraph torch_graph() {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = 1500;
    spec.n_paths = 8;
    spec.seed = 3;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

core::LayoutConfig torch_cfg() {
    core::LayoutConfig cfg;
    cfg.iter_max = 8;
    cfg.steps_per_iter_factor = 2.0;
    return cfg;
}

TEST(TorchLayout, ConvergesWithModerateBatch) {
    const auto g = torch_graph();
    const auto r = tensor::layout_torch(g, torch_cfg(), 4096);
    const double sps = metrics::sampled_path_stress(g, r.layout, 20, 1).value;
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, torch_cfg());
    const auto cpu = engine->run();
    const double sps_cpu = metrics::sampled_path_stress(g, cpu.layout, 20, 1).value;
    EXPECT_LT(sps, sps_cpu * 5 + 1.0);
}

TEST(TorchLayout, SmallerBatchesLaunchMoreKernels) {
    const auto g = torch_graph();
    const auto small = tensor::layout_torch(g, torch_cfg(), 512);
    const auto big = tensor::layout_torch(g, torch_cfg(), 16384);
    // Table IV: kernel launches scale inversely with batch size.
    EXPECT_GT(small.kernel_launches, 4 * big.kernel_launches);
    EXPECT_GT(small.api_time_fraction, big.api_time_fraction);
}

TEST(TorchLayout, IndexKernelDominatesBreakdown) {
    const auto g = torch_graph();
    const auto r = tensor::layout_torch(g, torch_cfg(), 8192);
    const auto& per = r.profiler.per_kernel_seconds();
    ASSERT_TRUE(per.contains("index"));
    // Fig. 7: the index (gather/scatter) kernel is the single biggest slice.
    for (const auto& [name, sec] : per) {
        if (name != "index") EXPECT_GE(per.at("index"), sec) << name;
    }
}

TEST(TorchLayout, HugeBatchDegradesQuality) {
    const auto g = torch_graph();
    const auto good = tensor::layout_torch(g, torch_cfg(), 4096);
    // A batch spanning several iterations' worth of updates goes stale.
    const auto stale = tensor::layout_torch(g, torch_cfg(), 4'000'000);
    const double s_good = metrics::sampled_path_stress(g, good.layout, 20, 1).value;
    const double s_stale = metrics::sampled_path_stress(g, stale.layout, 20, 1).value;
    // Table III: quality decays from "Good" to "Poor" as batches grow.
    EXPECT_GT(s_stale, s_good * 1.5);
}

TEST(TorchLayout, ModeledTimeDropsThenFlattens) {
    const auto g = torch_graph();
    const auto t_small = tensor::layout_torch(g, torch_cfg(), 256).modeled_seconds;
    const auto t_mid = tensor::layout_torch(g, torch_cfg(), 8192).modeled_seconds;
    EXPECT_GT(t_small, t_mid);  // launch overhead dominates small batches
}

}  // namespace

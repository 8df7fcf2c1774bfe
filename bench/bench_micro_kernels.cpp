// google-benchmark microbenchmarks for the hot primitives of the layout
// engine: PRNGs, samplers, the SGD update step and the stress metrics.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/kernels/update_kernel.hpp"
#include "core/layout.hpp"
#include "core/sampling.hpp"
#include "core/step_math.hpp"
#include "core/term_batch.hpp"
#include "metrics/path_stress.hpp"
#include "rng/alias_table.hpp"
#include "rng/xorwow.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

const graph::LeanGraph& micro_graph() {
    static const graph::LeanGraph g = [] {
        workloads::PangenomeSpec spec;
        spec.backbone_nodes = 20000;
        spec.n_paths = 12;
        spec.seed = 99;
        return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
    }();
    return g;
}

void BM_Xoshiro256Next(benchmark::State& state) {
    rng::Xoshiro256Plus rng(1);
    for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro256Next);

/// One pre-positioned block start, to set against BM_FillBlock: the jump
/// must stay well under 1% of sampling the block it skips.
void BM_XoshiroBlockJump(benchmark::State& state) {
    rng::Xoshiro256Plus rng(1);
    for (auto _ : state) {
        rng.jump_block();
        benchmark::DoNotOptimize(rng);
    }
}
BENCHMARK(BM_XoshiroBlockJump);

/// Sampling one block of core::kBlock terms into its slots of a batch, as
/// every cpu-pipelined thread does.
void BM_FillBlock(benchmark::State& state) {
    const core::LayoutConfig cfg;
    const core::PairSampler sampler(micro_graph(), cfg);
    rng::Xoshiro256Plus rng(1);
    core::TermBatch batch;
    batch.resize(core::kBlock, false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sampler.fill_batch_staged(false, rng, 0, core::kBlock, batch));
        benchmark::DoNotOptimize(batch.d_ref.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * core::kBlock);
}
BENCHMARK(BM_FillBlock);

void BM_XorwowNext(benchmark::State& state) {
    auto st = rng::xorwow_init(1, 0);
    for (auto _ : state) benchmark::DoNotOptimize(rng::xorwow_next(st));
}
BENCHMARK(BM_XorwowNext);

/// One cooling-branch hop: the single-draw alias table over k^-theta that
/// PairSampler builds per Zipf space (capped at zipf_space_max = 1000).
void BM_ZipfAliasDraw(benchmark::State& state) {
    rng::Xoshiro256Plus rng(2);
    std::vector<double> w(static_cast<std::size_t>(state.range(0)));
    for (std::size_t k = 1; k <= w.size(); ++k) {
        w[k - 1] = std::pow(static_cast<double>(k), -0.99);
    }
    rng::AliasTable t{std::span<const double>(w)};
    for (auto _ : state) benchmark::DoNotOptimize(t.draw(rng.next()));
}
BENCHMARK(BM_ZipfAliasDraw)->Arg(100)->Arg(1000);

void BM_AliasTableSample(benchmark::State& state) {
    rng::Xoshiro256Plus rng(3);
    std::vector<double> w(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1.0 + (i % 37);
    rng::AliasTable t{std::span<const double>(w)};
    for (auto _ : state) benchmark::DoNotOptimize(t.draw(rng.next()));
}
BENCHMARK(BM_AliasTableSample)->Arg(16)->Arg(4096);

void BM_PairSample(benchmark::State& state) {
    const auto& g = micro_graph();
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(4);
    const bool cooling = state.range(0) != 0;
    for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(cooling, rng));
}
BENCHMARK(BM_PairSample)->Arg(0)->Arg(1);

void BM_SgdTermUpdate(benchmark::State& state) {
    double x = 0;
    for (auto _ : state) {
        const auto d = core::sgd_term_update(0.f, 0.f, 10.f, 3.f, 4.0, 0.5, 1e-4);
        x += d.dx_i;
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SgdTermUpdate);

void BM_FullUpdateStep(benchmark::State& state) {
    const auto& g = micro_graph();
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(5);
    rng::Xoshiro256Plus init(6);
    const auto initial = core::make_linear_initial_layout(g, init);
    core::XYStore store(initial);
    for (auto _ : state) {
        const auto t = sampler.sample(false, rng);
        if (!t.valid) continue;
        core::apply_term(store.data(), core::XYStore::index(t.node_i, t.end_i),
                         core::XYStore::index(t.node_j, t.end_j), t.d_ref, 1.0,
                         1e-4);
    }
}
BENCHMARK(BM_FullUpdateStep);

void BM_SampledPathStress(benchmark::State& state) {
    const auto& g = micro_graph();
    rng::Xoshiro256Plus init(7);
    const auto layout = core::make_linear_initial_layout(g, init);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            metrics::sampled_path_stress(g, layout, 5, 1).value);
    }
}
BENCHMARK(BM_SampledPathStress);

}  // namespace

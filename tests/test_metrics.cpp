// Tests for path stress and sampled path stress (paper Sec. VI).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "graph/lean_graph.hpp"
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

/// A pure chain graph (one path, no variants) laid out perfectly on a line
/// has zero stress by construction.
graph::LeanGraph chain_graph(int n_nodes, std::uint32_t node_len = 3) {
    graph::VariationGraph vg;
    std::vector<graph::Handle> steps;
    for (int i = 0; i < n_nodes; ++i) {
        steps.push_back(graph::Handle::forward(
            vg.add_node(std::string(node_len, 'A'))));
    }
    vg.add_path("chain", steps);
    return workloads::to_ingest(vg).graph;
}

core::Layout perfect_line_layout(const graph::LeanGraph& g) {
    core::Layout l;
    l.resize(g.node_count());
    double x = 0;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) {
        l[i].sx = static_cast<float>(x);
        x += g.node_length(i);
        l[i].ex = static_cast<float>(x);
        l[i].sy = 0;
        l[i].ey = 0;
    }
    return l;
}

TEST(PathStress, ZeroForPerfectLineLayout) {
    const auto g = chain_graph(50);
    const auto l = perfect_line_layout(g);
    const auto r = metrics::path_stress(g, l);
    EXPECT_NEAR(r.value, 0.0, 1e-9);
    EXPECT_GT(r.terms, 0u);
}

TEST(PathStress, KnownValueForStretchedLayout) {
    // Two nodes of length 1 on one path, laid out at double the reference
    // distances: every term has residual ((2d - d)/d)^2 = 1.
    graph::VariationGraph vg;
    const auto a = vg.add_node("A");
    const auto b = vg.add_node("C");
    vg.add_path("p", {graph::Handle::forward(a), graph::Handle::forward(b)});
    const auto g = workloads::to_ingest(vg).graph;

    // Stretch by exactly 2x: node a = [0,2], node b = [2,4].
    const core::Layout l = {{0, 0, 2, 0}, {2, 0, 4, 0}};
    const auto r = metrics::path_stress(g, l);
    EXPECT_NEAR(r.value, 1.0, 1e-6);
}

TEST(PathStress, CountsOnlySamePathPairs) {
    // Two disjoint 2-node paths: 1 pair per path = 2 terms total.
    graph::VariationGraph vg;
    const auto a = vg.add_node("AA");
    const auto b = vg.add_node("CC");
    const auto c = vg.add_node("GG");
    const auto d = vg.add_node("TT");
    vg.add_path("p1", {graph::Handle::forward(a), graph::Handle::forward(b)});
    vg.add_path("p2", {graph::Handle::forward(c), graph::Handle::forward(d)});
    const auto g = workloads::to_ingest(vg).graph;
    const auto l = perfect_line_layout(g);
    const auto r = metrics::path_stress(g, l);
    EXPECT_EQ(r.terms, 2u);
}

TEST(PathStress, ParallelMatchesSerial) {
    const auto vg = workloads::generate_pangenome(workloads::hla_drb1_spec());
    const auto g = workloads::to_ingest(vg).graph;
    rng::Xoshiro256Plus rng(1);
    const auto l = core::make_linear_initial_layout(g, rng);
    const auto serial = metrics::path_stress(g, l, 1);
    const auto parallel = metrics::path_stress(g, l, 4);
    EXPECT_EQ(serial.terms, parallel.terms);
    EXPECT_NEAR(serial.value, parallel.value, serial.value * 1e-9 + 1e-12);
}

TEST(SampledPathStress, ZeroForPerfectLayout) {
    const auto g = chain_graph(100);
    const auto l = perfect_line_layout(g);
    const auto r = metrics::sampled_path_stress(g, l, 50, 1);
    EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(SampledPathStress, DeterministicForSeed) {
    const auto g = chain_graph(100);
    rng::Xoshiro256Plus rng(2);
    const auto l = core::make_linear_initial_layout(g, rng);
    const auto a = metrics::sampled_path_stress(g, l, 50, 7);
    const auto b = metrics::sampled_path_stress(g, l, 50, 7);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.terms, b.terms);
}

TEST(SampledPathStress, CiContainsValueAndShrinksWithSamples) {
    const auto vg = workloads::generate_pangenome(workloads::hla_drb1_spec());
    const auto g = workloads::to_ingest(vg).graph;
    rng::Xoshiro256Plus rng(3);
    const auto l = core::make_linear_initial_layout(g, rng);
    const auto small = metrics::sampled_path_stress(g, l, 5, 1);
    const auto big = metrics::sampled_path_stress(g, l, 200, 1);
    EXPECT_LE(small.ci_low, small.value);
    EXPECT_GE(small.ci_high, small.value);
    EXPECT_LT(big.ci_high - big.ci_low, small.ci_high - small.ci_low);
}

TEST(SampledPathStress, ApproximatesExactStress) {
    // The heart of Fig. 13: on a mid-quality layout the sampled estimate
    // must land close to the exact value.
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = 600;
    spec.n_paths = 5;
    spec.seed = 11;
    const auto g =
        workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
    core::LayoutConfig cfg;
    cfg.iter_max = 5;
    cfg.steps_per_iter_factor = 2.0;
    const auto layout = run_cpu(g, cfg).layout;
    const double exact = metrics::path_stress(g, layout).value;
    const auto sampled = metrics::sampled_path_stress(g, layout, 600, 1);
    // Heavy-tailed stress terms need a generous band at finite samples.
    EXPECT_NEAR(sampled.value, exact, std::max(exact * 0.4, 1e-6));
}

TEST(SampledPathStress, StableAcrossSamplingSeeds) {
    const auto vg = workloads::generate_pangenome(workloads::hla_drb1_spec());
    const auto g = workloads::to_ingest(vg).graph;
    core::LayoutConfig cfg;
    cfg.iter_max = 6;
    cfg.steps_per_iter_factor = 1.0;
    const auto layout = run_cpu(g, cfg).layout;
    const double a = metrics::sampled_path_stress(g, layout, 100, 1).value;
    const double b = metrics::sampled_path_stress(g, layout, 100, 2).value;
    EXPECT_NEAR(a, b, std::max(a, b) * 0.25);
}

TEST(SampledPathStress, ParallelMatchesSerialTerms) {
    const auto vg = workloads::generate_pangenome(workloads::hla_drb1_spec());
    const auto g = workloads::to_ingest(vg).graph;
    rng::Xoshiro256Plus rng(4);
    const auto l = core::make_linear_initial_layout(g, rng);
    const auto serial = metrics::sampled_path_stress(g, l, 20, 9, 1);
    const auto parallel = metrics::sampled_path_stress(g, l, 20, 9, 4);
    // Per-path RNG streams are independent of the thread count.
    EXPECT_EQ(serial.terms, parallel.terms);
    EXPECT_NEAR(serial.value, parallel.value, serial.value * 1e-9 + 1e-12);
}

TEST(SampledPathStress, WorseLayoutScoresWorse) {
    const auto g = chain_graph(200);
    const auto good = perfect_line_layout(g);
    core::Layout bad = good;
    rng::Xoshiro256Plus rng(5);
    for (auto& s : bad) s.sx += static_cast<float>(rng.next_double() * 100);
    const double s_good = metrics::sampled_path_stress(g, good, 50, 1).value;
    const double s_bad = metrics::sampled_path_stress(g, bad, 50, 1).value;
    EXPECT_LT(s_good, s_bad);
}

// Property sweep: on random graphs and random layouts, sampled stress must
// track exact stress within a modest relative error.
class StressAgreement : public ::testing::TestWithParam<int> {};

TEST_P(StressAgreement, SampledTracksExact) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = 150 + 40 * GetParam();
    spec.n_paths = 2 + GetParam() % 4;
    spec.seed = 1000 + GetParam();
    const auto g =
        workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
    rng::Xoshiro256Plus rng(GetParam());
    auto l = core::make_linear_initial_layout(g, rng);
    for (auto& s : l) {
        s.sy += static_cast<float>((rng.next_double() - 0.5) * 50);
    }
    const double exact = metrics::path_stress(g, l).value;
    const double sampled = metrics::sampled_path_stress(g, l, 400, 1).value;
    ASSERT_GT(exact, 0.0);
    // Stress terms are heavy-tailed on random layouts; the estimator is
    // unbiased but needs generous tolerance at this sample size.
    EXPECT_NEAR(sampled / exact, 1.0, 0.55);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, StressAgreement, ::testing::Range(0, 10));

}  // namespace

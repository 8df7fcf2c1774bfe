// Tests for the core PG-SGD machinery: schedule, step math, sampling and
// the CPU engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using core::End;

/// Runs the CPU engine ("cpu-pipelined") through the registry.
core::LayoutResult run_cpu(const graph::LeanGraph& g,
                           const core::LayoutConfig& cfg) {
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    return engine->run();
}

graph::LeanGraph small_graph(std::uint64_t backbone = 200, std::uint32_t paths = 4,
                             std::uint64_t seed = 5) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = seed;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

// --- Schedule ---

TEST(Schedule, MonotonicallyDecreasing) {
    const auto etas = core::make_eta_schedule(30, 0.01, 1e6);
    ASSERT_EQ(etas.size(), 30u);
    for (std::size_t i = 1; i < etas.size(); ++i) EXPECT_LT(etas[i], etas[i - 1]);
}

TEST(Schedule, EndpointsMatchTheory) {
    const double d_max = 1e4;
    const auto etas = core::make_eta_schedule(10, 0.01, d_max);
    EXPECT_NEAR(etas.front(), d_max * d_max, d_max * d_max * 1e-9);
    EXPECT_NEAR(etas.back(), 0.01, 0.01 * 1e-6);
}

TEST(Schedule, SingleIterationUsesEtaMax) {
    const auto etas = core::make_eta_schedule(1u, 0.01, 100.0);
    ASSERT_EQ(etas.size(), 1u);
    EXPECT_DOUBLE_EQ(etas[0], 1e4);
}

TEST(Schedule, EmptyForZeroIterations) {
    EXPECT_TRUE(core::make_eta_schedule(0u, 0.01, 100.0).empty());
}

// --- Explicit-temperature overload (eta_max, eta_min, iter_max) ---

TEST(Schedule, ExplicitOverloadEndpointsAndDecay) {
    const auto etas = core::make_eta_schedule(1e6, 0.01, 20u);
    ASSERT_EQ(etas.size(), 20u);
    EXPECT_NEAR(etas.front(), 1e6, 1e6 * 1e-12);
    EXPECT_NEAR(etas.back(), 0.01, 0.01 * 1e-9);
    for (std::size_t i = 1; i < etas.size(); ++i) EXPECT_LT(etas[i], etas[i - 1]);
}

TEST(Schedule, ExplicitOverloadClampsEtaMinAboveEtaMax) {
    // eta_min > eta_max must clamp down, never grow the learning rate.
    const auto etas = core::make_eta_schedule(1.0, 100.0, 8u);
    ASSERT_EQ(etas.size(), 8u);
    for (double e : etas) EXPECT_DOUBLE_EQ(e, 1.0);
}

TEST(Schedule, ExplicitOverloadSingleIterationUsesEtaMax) {
    const auto etas = core::make_eta_schedule(42.0, 0.01, 1u);
    ASSERT_EQ(etas.size(), 1u);
    EXPECT_DOUBLE_EQ(etas[0], 42.0);
}

TEST(Schedule, OverloadsAgreeOnGraphDerivedCeiling) {
    // The graph-derived overload is the explicit one at eta_max = d^2.
    const double d = 1e4;
    const auto a = core::make_eta_schedule(16u, 0.01, d);
    const auto b = core::make_eta_schedule(d * d, 0.01, 16u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Schedule, RestartReproducesScheduleTail) {
    // A refine pass restarting at eta_max = flat[I - R] replays the last R
    // entries of the flat schedule bit for bit — the warm-start contract
    // the multilevel refiner relies on.
    const std::uint32_t I = 12, R = 4;
    const auto flat = core::make_eta_schedule(I, 0.01, 1e5);
    const auto tail = core::make_eta_schedule(flat[I - R], 0.01, R);
    ASSERT_EQ(tail.size(), R);
    for (std::uint32_t i = 0; i < R; ++i) {
        EXPECT_NEAR(tail[i], flat[I - R + i], flat[I - R + i] * 1e-12);
    }
}

TEST(Schedule, TinyGraphClampsEtaMinToEtaMax) {
    // max_dref = 1 gives eta_max = 1; an eps above that used to flip the
    // decay's sign (negative lambda) so the learning rate *grew* across
    // iterations. The clamp must keep the schedule non-increasing and
    // capped at eta_max.
    const auto etas = core::make_eta_schedule(8, 2.0, 1.0);
    ASSERT_EQ(etas.size(), 8u);
    EXPECT_DOUBLE_EQ(etas.front(), 1.0);
    for (std::size_t i = 1; i < etas.size(); ++i) {
        EXPECT_LE(etas[i], etas[i - 1]);
        EXPECT_LE(etas[i], 1.0);
    }
}

// --- Step math ---

TEST(StepMath, PullsPointsTogetherWhenTooFar) {
    // Points 10 apart with reference distance 2: both should move inward.
    const auto d = core::sgd_term_update(0, 0, 10, 0, 2.0, 1e9, 1e-4);
    EXPECT_GT(d.dx_i, 0.0f);  // v_i moves toward v_j (positive x)
    EXPECT_LT(d.dx_j, 0.0f);
    EXPECT_FLOAT_EQ(d.dy_i, 0.0f);
}

TEST(StepMath, PushesPointsApartWhenTooClose) {
    const auto d = core::sgd_term_update(0, 0, 1, 0, 5.0, 1e9, 1e-4);
    EXPECT_LT(d.dx_i, 0.0f);
    EXPECT_GT(d.dx_j, 0.0f);
}

TEST(StepMath, ClampedStepLandsExactlyAtReferenceDistance) {
    // With mu clamped to 1 the update moves the pair to distance d_ref.
    const float xi = 0, xj = 10;
    const auto d = core::sgd_term_update(xi, 0, xj, 0, 4.0, 1e12, 1e-4);
    const double nxi = xi + d.dx_i, nxj = xj + d.dx_j;
    EXPECT_NEAR(std::abs(nxj - nxi), 4.0, 1e-4);
}

TEST(StepMath, SymmetricDisplacements) {
    const auto d = core::sgd_term_update(1, 2, 5, 7, 3.0, 10.0, 1e-4);
    EXPECT_FLOAT_EQ(d.dx_i, -d.dx_j);
    EXPECT_FLOAT_EQ(d.dy_i, -d.dy_j);
}

TEST(StepMath, StressIsRelativeSquaredResidual) {
    const auto d = core::sgd_term_update(0, 0, 6, 0, 2.0, 0.0, 1e-4);
    // |v_i - v_j| = 6, d_ref = 2 -> ((6-2)/2)^2 = 4.
    EXPECT_NEAR(d.stress, 4.0, 1e-9);
}

TEST(StepMath, CoincidentPointsAreSeparated) {
    const auto d = core::sgd_term_update(3, 3, 3, 3, 2.0, 1e9, 1e-4);
    // Must produce a finite, nonzero displacement.
    EXPECT_TRUE(std::isfinite(d.dx_i));
    EXPECT_TRUE(std::isfinite(d.dy_i));
    EXPECT_NE(d.dx_i, 0.0f);
}

TEST(StepMath, TinyEtaMakesTinyMoves) {
    const auto d = core::sgd_term_update(0, 0, 10, 0, 2.0, 1e-6, 1e-4);
    EXPECT_LT(std::abs(d.dx_i), 1e-4);
}

// --- Endpoint path positions ---

TEST(EndpointPosition, ForwardStep) {
    EXPECT_EQ(core::endpoint_path_position(100, 5, false, End::kStart), 100u);
    EXPECT_EQ(core::endpoint_path_position(100, 5, false, End::kEnd), 105u);
}

TEST(EndpointPosition, ReverseStepSwapsEnds) {
    EXPECT_EQ(core::endpoint_path_position(100, 5, true, End::kStart), 105u);
    EXPECT_EQ(core::endpoint_path_position(100, 5, true, End::kEnd), 100u);
}

TEST(EndpointPosition, ReverseStepCoversSameIntervalAsForward) {
    // A reverse-complement traversal of a node spans the same nucleotide
    // interval as the forward traversal; only the segment orientation
    // flips. The two endpoint positions are therefore the same *set*.
    for (std::uint32_t len : {1u, 7u, 1024u}) {
        const auto fwd_s = core::endpoint_path_position(50, len, false, End::kStart);
        const auto fwd_e = core::endpoint_path_position(50, len, false, End::kEnd);
        const auto rev_s = core::endpoint_path_position(50, len, true, End::kStart);
        const auto rev_e = core::endpoint_path_position(50, len, true, End::kEnd);
        EXPECT_EQ(fwd_s, rev_e);
        EXPECT_EQ(fwd_e, rev_s);
        EXPECT_EQ(fwd_e - fwd_s, len);
    }
}

TEST(EndpointPosition, ZeroLengthNodeCollapsesBothEnds) {
    // Degenerate zero-length node: both endpoints sit at the step offset
    // regardless of orientation, so such terms always yield d_ref == 0
    // between the two ends of the same step.
    for (bool rev : {false, true}) {
        EXPECT_EQ(core::endpoint_path_position(42, 0, rev, End::kStart), 42u);
        EXPECT_EQ(core::endpoint_path_position(42, 0, rev, End::kEnd), 42u);
    }
}

// --- PairSampler ---

TEST(PairSampler, ProducesValidTerms) {
    const auto g = small_graph();
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(1);
    int valid = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto t = sampler.sample(false, rng);
        if (!t.valid) continue;
        ++valid;
        ASSERT_LT(t.path, g.path_count());
        ASSERT_LT(t.step_i, g.path_step_count(t.path));
        ASSERT_LT(t.step_j, g.path_step_count(t.path));
        ASSERT_NE(t.step_i, t.step_j);
        ASSERT_GT(t.d_ref, 0.0);
        ASSERT_EQ(t.node_i, g.step_node(t.path, t.step_i));
    }
    EXPECT_GT(valid, 4000);
}

TEST(PairSampler, CoolingShortensHops) {
    const auto g = small_graph(2000, 2);
    core::LayoutConfig cfg;
    cfg.zipf_space_max = 0;  // unbounded: let hops roam the whole path
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(2);
    auto mean_hop = [&](bool cooling) {
        double total = 0;
        int n = 0;
        for (int i = 0; i < 20000; ++i) {
            const auto t = sampler.sample(cooling, rng);
            if (!t.valid) continue;
            total += std::abs(static_cast<double>(t.step_i) -
                              static_cast<double>(t.step_j));
            ++n;
        }
        return total / n;
    };
    // Cooling draws Zipf hops; always-cooling must give much shorter hops
    // than never-cooling (which is a 50/50 mix of uniform and Zipf).
    EXPECT_LT(mean_hop(true), mean_hop(false) * 0.8);
}

TEST(PairSampler, PathSelectionProportionalToLength) {
    // Two paths with very different lengths: the longer is picked more.
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = 100;
    spec.n_paths = 2;
    spec.seed = 6;
    auto vg = workloads::generate_pangenome(spec);
    // Append a path ~10x longer by concatenating an existing path walk.
    std::vector<graph::Handle> long_walk;
    for (int r = 0; r < 10; ++r) {
        const auto& steps = vg.path(0).steps;
        if (!long_walk.empty()) {
            // Close the loop so consecutive steps stay connected: revisit
            // from the first node again (edge added by add_path).
        }
        long_walk.insert(long_walk.end(), steps.begin(), steps.end());
    }
    vg.add_path("long", long_walk);
    const auto g = workloads::to_ingest(vg).graph;
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(3);
    std::vector<int> counts(g.path_count(), 0);
    for (int i = 0; i < 30000; ++i) {
        counts[sampler.sample(false, rng).path]++;
    }
    const std::uint32_t long_path = g.path_count() - 1;
    EXPECT_GT(counts[long_path], counts[0] * 5);
}

// --- CPU engine ---

TEST(CpuEngine, ReducesSampledPathStress) {
    const auto g = small_graph(400, 6);
    core::LayoutConfig cfg;
    cfg.iter_max = 15;
    cfg.steps_per_iter_factor = 5.0;
    rng::Xoshiro256Plus rng(9);
    const auto initial = core::make_linear_initial_layout(g, rng);
    // Perturb the initial layout badly so there is something to fix.
    core::Layout bad = initial;
    rng::Xoshiro256Plus noise(10);
    for (std::size_t i = 0; i < bad.size(); ++i) {
        bad[i].sx += static_cast<float>((noise.next_double() - 0.5) * 1e4);
        bad[i].ey += static_cast<float>((noise.next_double() - 0.5) * 1e4);
    }
    const double before = metrics::sampled_path_stress(g, bad, 20, 1).value;
    cfg.initial_layout = std::make_shared<const core::Layout>(bad);
    const auto result = run_cpu(g, cfg);
    const double after = metrics::sampled_path_stress(g, result.layout, 20, 1).value;
    EXPECT_LT(after, before * 0.2);
}

TEST(CpuEngine, DeterministicSingleThread) {
    const auto g = small_graph();
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 1.0;
    cfg.seed = 77;
    const auto a = run_cpu(g, cfg);
    const auto b = run_cpu(g, cfg);
    ASSERT_EQ(a.layout.size(), b.layout.size());
    for (std::size_t i = 0; i < a.layout.size(); ++i) {
        EXPECT_EQ(a.layout[i].sx, b.layout[i].sx);
        EXPECT_EQ(a.layout[i].ey, b.layout[i].ey);
    }
}

TEST(CpuEngine, ReportsUpdateCounts) {
    const auto g = small_graph(100, 2);
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 1.0;
    const auto r = run_cpu(g, cfg);
    EXPECT_EQ(r.updates, 2 * cfg.steps_per_iteration(g.total_path_steps()));
    EXPECT_EQ(r.eta_schedule.size(), 2u);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(CpuEngine, CancelledBeforeRunReportsNoUpdates) {
    const auto g = small_graph(100, 2);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 1.0;
    cfg.threads = 4;
    cfg.cancel = std::make_shared<const std::atomic<bool>>(true);
    const auto r = run_cpu(g, cfg);
    EXPECT_EQ(r.updates, 0u);
}

TEST(CpuEngine, CancelFromProgressHookCountsCompletedIterations) {
    const auto g = small_graph(100, 2);
    core::LayoutConfig cfg;
    cfg.iter_max = 5;
    cfg.steps_per_iter_factor = 1.0;
    auto flag = std::make_shared<std::atomic<bool>>(false);
    cfg.cancel = flag;
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    engine->set_progress_hook([&](const core::IterationStats& s) {
        if (s.iteration == 1) flag->store(true);
    });
    const auto r = engine->run();
    EXPECT_EQ(r.updates, 2 * cfg.steps_per_iteration(g.total_path_steps()));
}

TEST(LayoutInit, LinearAlongCumulativeLength) {
    const auto g = small_graph(50, 2);
    rng::Xoshiro256Plus rng(4);
    const auto l = core::make_linear_initial_layout(g, rng);
    ASSERT_EQ(l.size(), g.node_count());
    double x = 0;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) {
        EXPECT_FLOAT_EQ(l[i].sx, static_cast<float>(x));
        x += g.node_length(i);
        EXPECT_FLOAT_EQ(l[i].ex, static_cast<float>(x));
    }
}

TEST(LayoutStores, SnapshotRoundTrip) {
    const auto g = small_graph(40, 2);
    rng::Xoshiro256Plus rng(5);
    const auto l = core::make_linear_initial_layout(g, rng);
    core::XYStore store(l);
    const auto s = store.snapshot();
    for (std::size_t i = 0; i < l.size(); ++i) {
        EXPECT_EQ(s[i].sx, l[i].sx);
        EXPECT_EQ(s[i].ey, l[i].ey);
    }
    // The store holds the layout's records byte for byte, and so does a
    // copy of it.
    ASSERT_EQ(store.node_count(), l.size());
    EXPECT_EQ(std::memcmp(store.data(), l.data(), l.size() * sizeof(core::Segment)),
              0);
    const core::XYStore copy = store;
    EXPECT_EQ(copy.snapshot(), l);
}

TEST(LayoutStores, RawArrayAliasesTheSegmentRecords) {
    const auto g = small_graph(10, 1);
    rng::Xoshiro256Plus rng(6);
    const auto l = core::make_linear_initial_layout(g, rng);
    core::XYStore store(l);
    ASSERT_EQ(store.node_count(), l.size());
    // The kernels' raw pointer addresses an endpoint's x at 4*node + 2*end
    // and its y one float later ...
    EXPECT_EQ(core::XYStore::index(3, End::kEnd), 14u);
    store.data()[core::XYStore::index(3, End::kEnd)] = 42.5f;
    store.data()[core::XYStore::index(2, End::kStart) + 1] = -7.25f;
    // ... and those floats are the nodes' Segment records.
    const auto s = store.snapshot();
    EXPECT_FLOAT_EQ(s[3].ex, 42.5f);
    EXPECT_FLOAT_EQ(s[2].sy, -7.25f);
}

}  // namespace

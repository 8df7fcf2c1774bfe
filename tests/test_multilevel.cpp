// Tests for the multilevel subsystem: exact coarsener structure on the
// closed-form linear-run workload, path/nucleotide invariants, interpolation
// exactness, the coarse/refine pass configs, run_multilevel determinism
// (including scalar vs SIMD kernels), the shared layout_graph step on
// pathless graphs, and the partition contract — a partitioned
// multilevel run equals standalone per-component multilevel runs
// byte-for-byte modulo the stitch translation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "core/layout.hpp"
#include "core/schedule.hpp"
#include "graph/lean_graph.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/interpolate.hpp"
#include "multilevel/multilevel.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using graph::Handle;

core::LayoutConfig quick_config(std::uint32_t threads = 1) {
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 0.2;
    cfg.threads = threads;
    cfg.seed = 77;
    return cfg;
}

void expect_layout_bitwise_equal(const core::Layout& a, const core::Layout& b) {
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        mismatches += (a[i].sx != b[i].sx) + (a[i].sy != b[i].sy) +
                      (a[i].ex != b[i].ex) + (a[i].ey != b[i].ey);
    }
    EXPECT_EQ(mismatches, 0u);
}

graph::LeanGraph variant_graph(double scale = 0.0005, std::uint64_t seed = 11) {
    auto spec = workloads::chromosome_spec(1, scale);
    spec.seed = seed;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

// --- Coarsener: exact structure on the linear-run workload ---

TEST(Coarsen, LinearRunsCollapseExactly) {
    workloads::LinearRunSpec spec;
    spec.runs = 5;
    spec.run_length = 7;
    spec.n_paths = 3;
    spec.node_len = 4;
    const auto g = workloads::generate_linear_runs(spec);
    ASSERT_EQ(g.node_count(), 5u * 7u + 2u * 4u);

    const auto lvl = multilevel::coarsen(g);
    // Exactly `runs` run-nodes plus 2*(runs-1) singleton separators.
    EXPECT_EQ(lvl.map.coarse_count(), 5u + 8u);

    std::uint32_t full_runs = 0, singletons = 0;
    for (std::uint32_t c = 0; c < lvl.map.coarse_count(); ++c) {
        const auto run = lvl.map.run(c);
        if (run.size() == spec.run_length) {
            ++full_runs;
            EXPECT_EQ(lvl.graph.node_length(c), spec.run_length * spec.node_len);
            // Fine members are consecutive backbone ids in run order.
            for (std::size_t i = 1; i < run.size(); ++i) {
                EXPECT_EQ(run[i], run[i - 1] + 1);
            }
        } else {
            EXPECT_EQ(run.size(), 1u);
            ++singletons;
        }
    }
    EXPECT_EQ(full_runs, spec.runs);
    EXPECT_EQ(singletons, 2u * (spec.runs - 1));

    // offset_of is the cumulative nucleotide offset inside the run.
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
        const std::uint32_t c = lvl.map.coarse_of[v];
        const auto run = lvl.map.run(c);
        const auto it = std::find(run.begin(), run.end(), v);
        ASSERT_NE(it, run.end());
        std::uint32_t expect_off = 0;
        for (auto jt = run.begin(); jt != it; ++jt) {
            expect_off += g.node_length(*jt);
        }
        EXPECT_EQ(lvl.map.offset_of[v], expect_off);
    }
}

TEST(Coarsen, SeparatorFreeBackboneIsOneRun) {
    workloads::LinearRunSpec spec;
    spec.runs = 6;
    spec.run_length = 4;
    spec.separators = false;
    const auto g = workloads::generate_linear_runs(spec);
    const auto lvl = multilevel::coarsen(g);
    EXPECT_EQ(lvl.map.coarse_count(), 1u);
    EXPECT_EQ(lvl.map.run(0).size(), g.node_count());
    EXPECT_EQ(lvl.graph.total_path_steps(), spec.n_paths);
}

TEST(Coarsen, InvertedRunsStillCollapse) {
    workloads::LinearRunSpec fwd;
    fwd.runs = 4;
    fwd.run_length = 6;
    workloads::LinearRunSpec inv = fwd;
    inv.invert_alternate = true;

    const auto gf = workloads::generate_linear_runs(fwd);
    const auto gi = workloads::generate_linear_runs(inv);
    const auto lf = multilevel::coarsen(gf);
    const auto li = multilevel::coarsen(gi);
    // Orientation of traversal must not change the run decomposition.
    EXPECT_EQ(li.map.coarse_count(), lf.map.coarse_count());
    EXPECT_EQ(li.graph.total_path_steps(), lf.graph.total_path_steps());
}

TEST(Coarsen, PreservesPathNucleotideLengths) {
    const auto g = variant_graph();
    const auto lvl = multilevel::coarsen(g);
    ASSERT_EQ(lvl.graph.path_count(), g.path_count());
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        EXPECT_EQ(lvl.graph.path_nuc_length(p), g.path_nuc_length(p));
    }
    EXPECT_EQ(lvl.graph.max_path_nuc_length(), g.max_path_nuc_length());
    EXPECT_EQ(lvl.graph.total_path_nucleotides(), g.total_path_nucleotides());
}

TEST(Coarsen, RunsNeverSpanComponents) {
    // Two disjoint linear-run components through from_parts: every coarse
    // run must stay inside one component's id range even though the second
    // component's backbone continues where the first one's ids stop.
    workloads::LinearRunSpec spec;
    spec.runs = 3;
    spec.run_length = 5;
    std::vector<std::uint32_t> node_lengths;
    std::vector<std::vector<Handle>> paths;
    workloads::append_linear_runs(spec, node_lengths, paths);
    const std::uint32_t first_nodes =
        static_cast<std::uint32_t>(node_lengths.size());
    workloads::append_linear_runs(spec, node_lengths, paths);
    const auto g = graph::LeanGraph::from_parts(std::move(node_lengths), paths);

    const auto lvl = multilevel::coarsen(g);
    for (std::uint32_t c = 0; c < lvl.map.coarse_count(); ++c) {
        const auto run = lvl.map.run(c);
        const bool first = run.front() < first_nodes;
        for (const std::uint32_t v : run) {
            EXPECT_EQ(v < first_nodes, first)
                << "coarse node " << c << " spans the component boundary";
        }
    }
    // Both components collapse identically: same run-size multiset.
    std::vector<std::size_t> sizes_a, sizes_b;
    for (std::uint32_t c = 0; c < lvl.map.coarse_count(); ++c) {
        const auto run = lvl.map.run(c);
        (run.front() < first_nodes ? sizes_a : sizes_b).push_back(run.size());
    }
    std::sort(sizes_a.begin(), sizes_a.end());
    std::sort(sizes_b.begin(), sizes_b.end());
    EXPECT_EQ(sizes_a, sizes_b);
}

// --- Interpolation ---

TEST(Interpolate, SingletonRunsRoundTripBitwise) {
    // run_length = 1 makes every coarse node a singleton, so interpolation
    // must reproduce the coarse layout bit for bit (endpoint-exact lerp).
    workloads::LinearRunSpec spec;
    spec.runs = 6;
    spec.run_length = 1;
    const auto g = workloads::generate_linear_runs(spec);
    const auto lvl = multilevel::coarsen(g);
    ASSERT_EQ(lvl.map.coarse_count(), g.node_count());

    auto engine = core::make_engine("cpu-pipelined");
    engine->init(lvl.graph, quick_config());
    const auto coarse = engine->run().layout;
    const auto fine = multilevel::interpolate(lvl.map, coarse, g);
    ASSERT_EQ(fine.size(), g.node_count());
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
        const std::uint32_t c = lvl.map.coarse_of[v];
        EXPECT_EQ(fine[v].sx, coarse[c].sx);
        EXPECT_EQ(fine[v].sy, coarse[c].sy);
        EXPECT_EQ(fine[v].ex, coarse[c].ex);
        EXPECT_EQ(fine[v].ey, coarse[c].ey);
    }
}

TEST(Interpolate, PlacesRunInteriorByNucleotideOffset) {
    workloads::LinearRunSpec spec;
    spec.runs = 2;
    spec.run_length = 4;
    spec.node_len = 10;
    const auto g = workloads::generate_linear_runs(spec);
    const auto lvl = multilevel::coarsen(g);

    // Hand-build a coarse layout with the first run on a known segment.
    core::Layout coarse;
    coarse.resize(lvl.map.coarse_count());
    for (std::uint32_t c = 0; c < lvl.map.coarse_count(); ++c) {
        coarse[c].sx = 0.0f;
        coarse[c].sy = 0.0f;
        coarse[c].ex = 0.0f;
        coarse[c].ey = 0.0f;
    }
    std::uint32_t run_c = 0;
    while (lvl.map.run(run_c).size() != spec.run_length) ++run_c;
    coarse[run_c].sx = 0.0f;
    coarse[run_c].ex = 40.0f;  // 4 nodes x 10 nt laid along x

    const auto fine = multilevel::interpolate(lvl.map, coarse, g);
    const auto run = lvl.map.run(run_c);
    for (std::size_t i = 0; i < run.size(); ++i) {
        const std::uint32_t v = run[i];
        EXPECT_FLOAT_EQ(fine[v].sx, 10.0f * static_cast<float>(i));
        EXPECT_FLOAT_EQ(fine[v].ex, 10.0f * static_cast<float>(i + 1));
    }
}

TEST(Interpolate, RejectsMismatchedShapes) {
    const auto g = workloads::generate_linear_runs({});
    const auto lvl = multilevel::coarsen(g);
    core::Layout wrong;
    wrong.resize(lvl.map.coarse_count() + 1);
    EXPECT_THROW(multilevel::interpolate(lvl.map, wrong, g),
                 std::invalid_argument);
}

// --- Pass configuration ---

/// Linear-run graph with 10 runs of 6 nodes x 7 nt and its one coarse
/// level: every run collapses, so the p95 coarse node length is a full run.
struct LinearRuns {
    graph::LeanGraph fine;
    multilevel::CoarseLevel level;
};

LinearRuns linear_runs() {
    workloads::LinearRunSpec spec;
    spec.runs = 10;
    spec.run_length = 6;
    spec.node_len = 7;
    spec.separators = false;
    auto g = workloads::generate_linear_runs(spec);
    auto lvl = multilevel::coarsen(g);
    return {std::move(g), std::move(lvl)};
}

TEST(PassConfig, DefaultCoarseAndRefineConfigs) {
    core::LayoutConfig cfg = quick_config();
    cfg.iter_max = 12;
    const auto coarse = multilevel::coarse_pass_config(cfg);
    // Coarse anneal: the hot max(2, (5 * 12 + 2) / 6) = 10 iterations of
    // the full 12-iteration flat eta curve, eta ceiling from the graph.
    EXPECT_EQ(coarse.iter_max, 10u);
    EXPECT_EQ(coarse.schedule_iter_max, 12u);
    EXPECT_EQ(coarse.eta_max, 0.0);
    EXPECT_EQ(coarse.cooling_start, cfg.cooling_start);
    EXPECT_FALSE(coarse.initial_layout);

    // Default tail: max(2, 12 / 2) = 6, adaptive temperature from the
    // first coarse level with the one-nucleotide floor, all cooling, warm
    // started from the given layout.
    const auto runs = linear_runs();
    const core::Layout warm = core::make_initial_layout(runs.fine, cfg);
    const auto refine = multilevel::refine_pass_config(
        cfg, {}, runs.fine, runs.level.graph, warm);
    EXPECT_EQ(refine.iter_max, 6u);
    EXPECT_EQ(refine.schedule_iter_max, 0u);
    EXPECT_DOUBLE_EQ(refine.eta_max,
                     multilevel::adaptive_refine_eta(runs.level.graph));
    EXPECT_EQ(refine.eps, std::max(cfg.eps, multilevel::kRefineEtaFloor));
    EXPECT_EQ(refine.cooling_start, 0.0);
    ASSERT_TRUE(refine.initial_layout);
    expect_layout_bitwise_equal(*refine.initial_layout, warm);

    EXPECT_EQ(
        multilevel::describe(cfg, {}),
        "coarsen L0->L1; layout L1 x10/12; interpolate L1->L0; refine L0 x6");
    multilevel::MultilevelOptions two;
    two.levels = 2;
    two.refine_iters = 3;
    EXPECT_EQ(multilevel::describe(cfg, two),
              "coarsen L0->L1; coarsen L1->L2; layout L2 x10/12; "
              "interpolate L2->L1; interpolate L1->L0; refine L0 x3");
}

TEST(PassConfig, ExactTailUsesFlatScheduleTemperature) {
    core::LayoutConfig cfg = quick_config();
    cfg.iter_max = 12;
    multilevel::MultilevelOptions opt;
    opt.exact_tail = true;
    opt.refine_iters = 4;
    const auto runs = linear_runs();
    const double max_dref =
        static_cast<double>(runs.fine.max_path_nuc_length());
    const auto refine = multilevel::refine_pass_config(
        cfg, opt, runs.fine, runs.level.graph, {});
    EXPECT_EQ(refine.iter_max, 4u);
    EXPECT_EQ(refine.eps, cfg.eps);  // the flat schedule's own floor
    EXPECT_DOUBLE_EQ(refine.eta_max,
                     multilevel::refine_eta_max(max_dref, cfg.eps, 12, 4));
    // The restart temperature is the flat schedule's value at I - R.
    const auto flat = core::make_eta_schedule(12u, cfg.eps, max_dref);
    EXPECT_NEAR(refine.eta_max, flat[12 - 4], flat[12 - 4] * 1e-12);
}

TEST(PassConfig, AdaptiveRefineScales) {
    const auto runs = linear_runs();
    ASSERT_EQ(runs.level.map.coarse_count(), 1u);
    // 10 runs x 6 nodes x 7 nt collapse to one 420 nt coarse node; the
    // restart temperature is (p95 coarse length / 8)^2 = 52.5^2.
    EXPECT_DOUBLE_EQ(multilevel::adaptive_refine_eta(runs.level.graph),
                     52.5 * 52.5);
    EXPECT_GE(multilevel::kRefineEtaFloor, 1.0);
    EXPECT_EQ(multilevel::adaptive_refine_eta(
                  graph::LeanGraph::from_parts({}, {})),
              0.0);
}

// --- run_multilevel execution contracts ---

TEST(RunMultilevel, RejectsZeroLevels) {
    const auto g = variant_graph();
    multilevel::MultilevelOptions opt;
    opt.levels = 0;
    auto engine = core::make_engine("cpu-pipelined");
    EXPECT_THROW(multilevel::run_multilevel(g, *engine, quick_config(), opt),
                 std::invalid_argument);
}

TEST(RunMultilevel, ByteReproducibleOnDeterministicBackends) {
    const auto g = variant_graph();
    for (const std::string backend : {"cpu-pipelined"}) {
        for (const std::uint32_t threads : {1u, 4u}) {
            core::LayoutConfig cfg = quick_config(threads);
            auto e1 = core::make_engine(backend);
            auto e2 = core::make_engine(backend);
            const auto a = multilevel::run_multilevel(g, *e1, cfg, {});
            const auto b = multilevel::run_multilevel(g, *e2, cfg, {});
            expect_layout_bitwise_equal(a.layout, b.layout);
            EXPECT_EQ(a.updates, b.updates);
            ASSERT_EQ(a.level_nodes.size(), 2u);
            EXPECT_LT(a.level_nodes[1], a.level_nodes[0]);
        }
    }
}

TEST(RunMultilevel, ScalarAndSimdKernelsMatchBitwise) {
    const auto g = variant_graph();
    core::LayoutConfig scalar_cfg = quick_config();
    scalar_cfg.kernel = "scalar";
    core::LayoutConfig simd_cfg = quick_config();
    simd_cfg.kernel = "simd";
    auto e1 = core::make_engine("cpu-pipelined");
    auto e2 = core::make_engine("cpu-pipelined");
    const auto a = multilevel::run_multilevel(g, *e1, scalar_cfg, {});
    const auto b = multilevel::run_multilevel(g, *e2, simd_cfg, {});
    expect_layout_bitwise_equal(a.layout, b.layout);
}

// --- The shared layout step ---

TEST(LayoutGraph, PathlessGraphShortCircuitsToInitialLayout) {
    // Nodes but no paths: nothing to sample, flat or at any level.
    const auto g = graph::LeanGraph::from_parts({4, 4, 4}, {});
    const core::LayoutConfig cfg = quick_config();
    const multilevel::MultilevelOptions ml;
    const multilevel::MultilevelOptions* modes[] = {&ml, nullptr};
    for (const multilevel::MultilevelOptions* opt : modes) {
        auto engine = core::make_engine("cpu-pipelined");
        const auto r = multilevel::layout_graph(g, *engine, cfg, opt);
        EXPECT_EQ(r.layout.size(), 3u);
        EXPECT_EQ(r.updates, 0u);
        EXPECT_EQ(r.level_nodes, std::vector<std::uint32_t>{3u});
        expect_layout_bitwise_equal(r.layout, core::make_initial_layout(g, cfg));
    }
}

// --- Partition contract ---

TEST(MultilevelPartition, MatchesStandalonePerComponentPlans) {
    auto ing = workloads::to_ingest(workloads::generate_whole_genome(
        workloads::whole_genome_spec(3, 0.0002)));
    core::LayoutRequest req;
    req.backend = "cpu-pipelined";
    req.config = quick_config();
    req.component_workers = 2;
    req.multilevel = true;
    const partition::ComponentLabels labels = partition::take_labels(ing);
    const auto part = partition::partition_layout(ing.graph, labels, req, {});
    ASSERT_EQ(part.decomposition.count(), 3u);

    // The standalone plans run on the subgraphs decompose() builds.
    const auto d = partition::decompose(ing.graph, labels);
    ASSERT_EQ(d.count(), 3u);
    std::vector<core::LayoutResult> standalone;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& comp = d.components[c].graph;
        core::LayoutConfig cfg = req.config;
        cfg.seed = partition::component_seed(req.config.seed, c);
        auto engine = core::make_engine("cpu-pipelined");
        const auto ml = multilevel::run_multilevel(comp, *engine, cfg, req.ml);
        expect_layout_bitwise_equal(part.component_results[c].layout, ml.layout);
        standalone.push_back(ml);
    }
    const auto restitched =
        partition::stitch(part.decomposition, standalone);
    expect_layout_bitwise_equal(part.stitched.layout, restitched.layout);
}

}  // namespace

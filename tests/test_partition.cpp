// Tests for the partition subsystem: union-find component labeling,
// subgraph slicing with stable remap tables, the per-component scheduler's
// determinism, shelf stitching, and the headline contract — a partitioned
// run is byte-identical to standalone per-component runs modulo the
// deterministic stitch translation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "partition/executor.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using graph::Handle;

graph::VariationGraph tiny_multi_component() {
    // Component A: nodes 0-1-2 chained by edges (and a path over them).
    // Component B: nodes 3-4 connected only by a path (add_path adds the
    // edge). Component C: node 5, isolated.
    graph::VariationGraph vg;
    for (int i = 0; i < 6; ++i) vg.add_node("ACGT");
    vg.add_edge(Handle::forward(0), Handle::forward(1));
    vg.add_edge(Handle::forward(1), Handle::forward(2));
    vg.add_path("A#0", {Handle::forward(0), Handle::forward(1), Handle::forward(2)});
    vg.add_path("B#0", {Handle::forward(3), Handle::forward(4)});
    return vg;
}

graph::VariationGraph small_genome(std::uint32_t n_components,
                                   std::uint64_t seed = 0xC0DE) {
    return workloads::generate_whole_genome(
        workloads::whole_genome_spec(n_components, 0.0002, seed));
}

core::LayoutConfig quick_config(std::uint32_t threads = 1) {
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 0.2;
    cfg.threads = threads;
    cfg.seed = 77;
    return cfg;
}

void expect_layout_bitwise_equal(const core::Layout& a, const core::Layout& b) {
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        mismatches += (a.start_x[i] != b.start_x[i]) +
                      (a.start_y[i] != b.start_y[i]) +
                      (a.end_x[i] != b.end_x[i]) + (a.end_y[i] != b.end_y[i]);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Components, LabelsEdgeAndPathConnectivity) {
    const auto vg = tiny_multi_component();
    const auto labels = partition::label_components(vg);
    EXPECT_EQ(labels.count, 3u);
    // Components are numbered by their smallest node id.
    const std::vector<std::uint32_t> expected{0, 0, 0, 1, 1, 2};
    EXPECT_EQ(labels.node_component, expected);
    ASSERT_EQ(labels.path_component.size(), 2u);
    EXPECT_EQ(labels.path_component[0], 0u);
    EXPECT_EQ(labels.path_component[1], 1u);
}

TEST(Components, LeanLabelingUsesPathAdjacencyOnly) {
    // Nodes joined only by an edge (never walked) are one component in the
    // rich graph but separate singletons in the lean graph.
    graph::VariationGraph vg;
    vg.add_node("A");
    vg.add_node("C");
    vg.add_edge(Handle::forward(0), Handle::forward(1));
    EXPECT_EQ(partition::label_components(vg).count, 1u);
    const auto lean = graph::LeanGraph::from_graph(vg);
    EXPECT_EQ(partition::label_components(lean).count, 2u);
}

TEST(Components, DecompositionRemapTablesAreConsistent) {
    const auto vg = small_genome(3);
    const auto d = partition::decompose(vg);
    ASSERT_EQ(d.count(), 3u);
    EXPECT_EQ(d.global_node_count(), vg.node_count());

    std::uint64_t nodes_total = 0, paths_total = 0;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& comp = d.components[c];
        ASSERT_EQ(comp.graph.node_count(), comp.global_node.size());
        nodes_total += comp.global_node.size();
        paths_total += comp.global_path.size();
        for (std::size_t i = 0; i < comp.global_node.size(); ++i) {
            const graph::NodeId g = comp.global_node[i];
            // Ascending remap, correct inverse, preserved node lengths.
            if (i > 0) EXPECT_LT(comp.global_node[i - 1], g);
            EXPECT_EQ(d.labels.node_component[g], c);
            EXPECT_EQ(d.local_node[g], i);
            EXPECT_EQ(comp.graph.node_length(static_cast<graph::NodeId>(i)),
                      vg.node_length(g));
        }
    }
    EXPECT_EQ(nodes_total, vg.node_count());
    EXPECT_EQ(paths_total, vg.path_count());
}

TEST(Components, PathSlicingIsExact) {
    const auto vg = small_genome(2);
    const auto lean = graph::LeanGraph::from_graph(vg);
    const auto d = partition::decompose(vg);
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& comp = d.components[c];
        for (std::uint32_t lp = 0; lp < comp.graph.path_count(); ++lp) {
            const std::uint32_t gp = comp.global_path[lp];
            ASSERT_EQ(comp.graph.path_step_count(lp), lean.path_step_count(gp));
            for (std::uint32_t i = 0; i < comp.graph.path_step_count(lp); ++i) {
                EXPECT_EQ(comp.global_node[comp.graph.step_node(lp, i)],
                          lean.step_node(gp, i));
                EXPECT_EQ(comp.graph.step_is_reverse(lp, i),
                          lean.step_is_reverse(gp, i));
                EXPECT_EQ(comp.graph.step_position(lp, i),
                          lean.step_position(gp, i));
            }
            EXPECT_EQ(comp.graph.path_nuc_length(lp), lean.path_nuc_length(gp));
        }
    }
}

TEST(Workloads, WholeGenomeIsDeterministicMultiComponent) {
    const auto a = small_genome(4);
    const auto b = small_genome(4);
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.edge_count(), b.edge_count());
    EXPECT_EQ(a.total_path_steps(), b.total_path_steps());
    EXPECT_EQ(a.validate(), "");
    EXPECT_EQ(partition::decompose(a).count(), 4u);
    // A different seed produces a different genome.
    const auto c = small_genome(4, 999);
    EXPECT_NE(a.edge_count(), c.edge_count());
}

TEST(Stitch, TranslationIsASingleFloatAdd) {
    const auto d = partition::decompose(small_genome(3));
    partition::SchedulerOptions sopt;
    sopt.config = quick_config();
    std::vector<core::Layout> layouts;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        layouts.push_back(partition::run_component(d.components[c], c, sopt).layout);
    }
    const auto s = partition::stitch(d, layouts);
    ASSERT_EQ(s.layout.size(), d.global_node_count());
    ASSERT_EQ(s.placements.size(), d.count());
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& p = s.placements[c];
        for (std::size_t i = 0; i < layouts[c].size(); ++i) {
            const graph::NodeId g = d.components[c].global_node[i];
            EXPECT_EQ(s.layout.start_x[g], layouts[c].start_x[i] + p.dx);
            EXPECT_EQ(s.layout.start_y[g], layouts[c].start_y[i] + p.dy);
            EXPECT_EQ(s.layout.end_x[g], layouts[c].end_x[i] + p.dx);
            EXPECT_EQ(s.layout.end_y[g], layouts[c].end_y[i] + p.dy);
        }
    }
}

TEST(Stitch, PlacedBoundingBoxesDoNotOverlap) {
    const auto d = partition::decompose(small_genome(4));
    partition::SchedulerOptions sopt;
    sopt.config = quick_config();
    std::vector<core::Layout> layouts;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        layouts.push_back(partition::run_component(d.components[c], c, sopt).layout);
    }
    const auto s = partition::stitch(d, layouts);
    for (std::uint32_t a = 0; a < d.count(); ++a) {
        for (std::uint32_t b = a + 1; b < d.count(); ++b) {
            const auto& pa = s.placements[a];
            const auto& pb = s.placements[b];
            const bool separated_x = pa.max_x + pa.dx <= pb.min_x + pb.dx ||
                                     pb.max_x + pb.dx <= pa.min_x + pa.dx;
            const bool separated_y = pa.max_y + pa.dy <= pb.min_y + pb.dy ||
                                     pb.max_y + pb.dy <= pa.min_y + pa.dy;
            EXPECT_TRUE(separated_x || separated_y)
                << "components " << a << " and " << b << " overlap";
        }
    }
}

TEST(ExecutorRegistry, ShipsThreadAndProcess) {
    const auto names = partition::ExecutorRegistry::instance().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "thread"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "process"), names.end());
    EXPECT_EQ(partition::make_executor("thread")->name(), "thread");
    EXPECT_EQ(partition::make_executor("process")->name(), "process");
}

TEST(ExecutorRegistry, UnknownNameThrowsListingAvailable) {
    try {
        partition::make_executor("hovercraft");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hovercraft"), std::string::npos) << what;
        EXPECT_NE(what.find("thread"), std::string::npos) << what;
        EXPECT_NE(what.find("process"), std::string::npos) << what;
    }
}

/// The pgl_layout binary the process executor would fork, or "" when this
/// test binary was built without it (e.g. the sanitizer CI job compiles
/// only the test targets) — callers GTEST_SKIP on "".
std::string worker_binary_or_empty() {
    if (const char* env = std::getenv("PGL_LAYOUT_WORKER")) return env;
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec) return {};
    const auto sibling = exe.parent_path() / "pgl_layout";
    return std::filesystem::exists(sibling, ec) ? sibling.string() : "";
}

TEST(ProcessExecutor, MatchesThreadExecutorByteForByte) {
    const std::string worker = worker_binary_or_empty();
    if (worker.empty()) {
        GTEST_SKIP() << "no pgl_layout worker binary next to this test";
    }
    const auto vg = small_genome(3);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.component_workers = 2;
    const auto in_process = partition::partition_layout(vg, popt);

    popt.schedule.executor = "process";
    popt.schedule.processes = 2;
    popt.schedule.worker_binary = worker;
    const auto multi_process = partition::partition_layout(vg, popt);

    expect_layout_bitwise_equal(in_process.stitched.layout,
                                multi_process.stitched.layout);
    EXPECT_EQ(in_process.updates, multi_process.updates);
    EXPECT_EQ(in_process.skipped, multi_process.skipped);
}

TEST(ProcessExecutor, UnrunnableWorkerBinaryFailsEveryComponentLoudly) {
    // exec of a nonexistent binary makes each child exit 127; the parent
    // must surface one diagnostic per component, not crash or hang.
    const auto vg = small_genome(2);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.executor = "process";
    popt.schedule.worker_binary = "/nonexistent/pgl_layout";
    try {
        partition::partition_layout(vg, popt);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 of 2 components"), std::string::npos) << what;
        EXPECT_NE(what.find("status 127"), std::string::npos) << what;
    }
}

TEST(Scheduler, UnknownExecutorIsRejected) {
    const auto vg = small_genome(2);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.executor = "quantum";
    EXPECT_THROW(partition::partition_layout(vg, popt), std::invalid_argument);
}

TEST(Scheduler, ResultsIndependentOfWorkerCount) {
    const auto vg = small_genome(4);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.component_workers = 1;
    const auto serial = partition::partition_layout(vg, popt);
    popt.schedule.component_workers = 4;
    const auto parallel = partition::partition_layout(vg, popt);
    expect_layout_bitwise_equal(serial.stitched.layout, parallel.stitched.layout);
    EXPECT_EQ(serial.updates, parallel.updates);
}

TEST(Scheduler, ProgressHookSeesEveryComponent) {
    const auto vg = small_genome(3);
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.component_workers = 2;
    std::vector<std::uint32_t> seen;
    std::uint32_t max_completed = 0;
    popt.progress = [&](const partition::ComponentProgress& p) {
        seen.push_back(p.component);
        max_completed = std::max(max_completed, p.completed);
        EXPECT_EQ(p.total, 3u);
    };
    partition::partition_layout(vg, popt);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(max_completed, 3u);
}

TEST(Scheduler, PathlessComponentGetsDeterministicFallback) {
    graph::VariationGraph vg;
    for (int i = 0; i < 4; ++i) vg.add_node("ACGTACGT");
    vg.add_path("p", {Handle::forward(0), Handle::forward(1)});
    vg.add_edge(Handle::forward(2), Handle::forward(3));  // edge-only, no path
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    const auto a = partition::partition_layout(vg, popt);
    const auto b = partition::partition_layout(vg, popt);
    ASSERT_EQ(a.decomposition.count(), 2u);
    ASSERT_EQ(a.stitched.layout.size(), 4u);
    expect_layout_bitwise_equal(a.stitched.layout, b.stitched.layout);
}

// The acceptance contract (ISSUE 3): a partitioned whole_genome_spec(4, ...)
// layout is byte-identical to the four standalone per-component layouts
// stitched with the same deterministic packing, for the deterministic CPU
// backends at 1 and 4 threads.
TEST(PartitionEquivalence, MatchesStandalonePerComponentRuns) {
    const auto vg = small_genome(4);
    for (const std::string backend : {"cpu-batched", "cpu-pipelined"}) {
        for (const std::uint32_t threads : {1u, 4u}) {
            partition::PartitionOptions popt;
            popt.schedule.backend = backend;
            popt.schedule.config = quick_config(threads);
            popt.schedule.component_workers = 2;
            const auto part = partition::partition_layout(vg, popt);
            ASSERT_EQ(part.decomposition.count(), 4u);

            // Standalone runs: a fresh engine per component, straight off
            // the registry, seeded exactly as the scheduler seeds them.
            std::vector<core::Layout> standalone;
            for (std::uint32_t c = 0; c < part.decomposition.count(); ++c) {
                auto engine = core::make_engine(backend);
                core::LayoutConfig cfg = popt.schedule.config;
                cfg.seed = partition::component_seed(popt.schedule.config.seed, c);
                engine->init(part.decomposition.components[c].graph, cfg);
                standalone.push_back(engine->run().layout);
                expect_layout_bitwise_equal(
                    part.component_results[c].layout, standalone.back());
            }
            const auto restitched =
                partition::stitch(part.decomposition, standalone, popt.stitching);
            expect_layout_bitwise_equal(part.stitched.layout, restitched.layout);
        }
    }
}

}  // namespace

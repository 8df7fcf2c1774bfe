// Tests for the partition subsystem: the ingest's component labels as
// decompose consumes them, subgraph slicing with stable remap tables, the
// per-component scheduler's determinism and its just-in-time subgraphs
// (at most one alive per worker), shelf stitching, and the headline
// contract — a partitioned run is byte-identical to standalone
// per-component runs modulo the deterministic stitch translation.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "core/thread_pool.hpp"
#include "partition/executor.hpp"
#include "partition/partition.hpp"
#include "telemetry/telemetry.hpp"
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

/// Loads `vg` as the CLI loads a GFA file and decomposes it with the
/// ingest's component labels.
partition::Decomposition decompose_vg(const graph::VariationGraph& vg) {
    auto ing = workloads::to_ingest(vg);
    return partition::decompose(ing.graph, partition::take_labels(ing));
}

partition::PartitionResult layout_vg(
    const graph::VariationGraph& vg, const core::LayoutRequest& req,
    const partition::ComponentHook& progress = {}) {
    auto ing = workloads::to_ingest(vg);
    return partition::partition_layout(ing.graph, partition::take_labels(ing),
                                       req, progress);
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
        mismatches += (a[i].sx != b[i].sx) + (a[i].sy != b[i].sy) +
                      (a[i].ex != b[i].ex) + (a[i].ey != b[i].ey);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Components, LabelsEdgeAndPathConnectivity) {
    auto ing = workloads::to_ingest(tiny_multi_component());
    const auto labels = partition::take_labels(ing);
    EXPECT_EQ(labels.count, 3u);
    // Components are numbered by their smallest node id.
    const std::vector<std::uint32_t> expected{0, 0, 0, 1, 1, 2};
    EXPECT_EQ(labels.node_component, expected);
    ASSERT_EQ(labels.path_component.size(), 2u);
    EXPECT_EQ(labels.path_component[0], 0u);
    EXPECT_EQ(labels.path_component[1], 1u);
}

TEST(Components, DecompositionRemapTablesAreConsistent) {
    const auto vg = small_genome(3);
    const auto d = decompose_vg(vg);
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
    auto ing = workloads::to_ingest(small_genome(2));
    const auto& lean = ing.graph;
    const auto d = partition::decompose(lean, partition::take_labels(ing));
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
    EXPECT_EQ(decompose_vg(a).count(), 4u);
    // A different seed produces a different genome.
    const auto c = small_genome(4, 999);
    EXPECT_NE(a.edge_count(), c.edge_count());
}

TEST(Stitch, TranslationIsASingleFloatAdd) {
    const auto d = decompose_vg(small_genome(3));
    core::LayoutRequest req;
    req.config = quick_config();
    std::vector<core::LayoutResult> results;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        results.push_back(
            partition::run_component(d.components[c].graph, c, req));
    }
    const auto s = partition::stitch(d, results);
    ASSERT_EQ(s.layout.size(), d.global_node_count());
    ASSERT_EQ(s.placements.size(), d.count());
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        const auto& p = s.placements[c];
        const core::Layout& layout = results[c].layout;
        for (std::size_t i = 0; i < layout.size(); ++i) {
            const graph::NodeId g = d.components[c].global_node[i];
            EXPECT_EQ(s.layout[g].sx, layout[i].sx + p.dx);
            EXPECT_EQ(s.layout[g].sy, layout[i].sy + p.dy);
            EXPECT_EQ(s.layout[g].ex, layout[i].ex + p.dx);
            EXPECT_EQ(s.layout[g].ey, layout[i].ey + p.dy);
        }
    }
}

TEST(Stitch, PlacedBoundingBoxesDoNotOverlap) {
    const auto d = decompose_vg(small_genome(4));
    core::LayoutRequest req;
    req.config = quick_config();
    std::vector<core::LayoutResult> results;
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        results.push_back(
            partition::run_component(d.components[c].graph, c, req));
    }
    const auto s = partition::stitch(d, results);
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

TEST(Executors, ShipsThreadAndProcess) {
    // An empty graph reaches the executor check without spawning a worker,
    // so both names are accepted on the library path here.
    for (const std::string name : {"thread", "process"}) {
        core::LayoutRequest req;
        req.executor = name;
        EXPECT_NO_THROW(partition::partition_layout(
            graph::LeanGraph{}, partition::ComponentLabels{}, req, {}))
            << name;
        core::LayoutRequest r;
        r.partition = true;
        r.executor = name;
        EXPECT_NO_THROW(core::validate(r, core::Spelling::kKey)) << name;
    }
}

TEST(Executors, UnknownNameThrowsListingAvailable) {
    const auto expect_names = [](const std::string& what) {
        EXPECT_NE(what.find("hovercraft"), std::string::npos) << what;
        EXPECT_NE(what.find("thread"), std::string::npos) << what;
        EXPECT_NE(what.find("process"), std::string::npos) << what;
    };
    core::LayoutRequest req;
    req.config = quick_config();
    req.executor = "hovercraft";
    try {
        layout_vg(small_genome(2), req);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        expect_names(e.what());
    }
    core::LayoutRequest r;
    r.partition = true;
    r.executor = "hovercraft";
    try {
        core::validate(r, core::Spelling::kKey);
        FAIL() << "expected core::validate to reject the executor";
    } catch (const std::runtime_error& e) {
        expect_names(e.what());
    }
}

/// Sets an environment variable for one scope, restoring it after.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (old_) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    std::optional<std::string> old_;
};

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
    core::LayoutRequest req;
    req.config = quick_config();
    req.component_workers = 2;
    const auto in_process = layout_vg(vg, req);

    // The same count sizes the loop: two children at a time.
    req.executor = "process";
    const auto multi_process = layout_vg(vg, req);

    expect_layout_bitwise_equal(in_process.stitched.layout,
                                multi_process.stitched.layout);
    EXPECT_EQ(in_process.updates, multi_process.updates);
    EXPECT_EQ(in_process.skipped, multi_process.skipped);
}

TEST(ProcessExecutor, UnrunnableWorkerBinaryFailsEveryComponentLoudly) {
    // exec of a nonexistent binary makes each child exit 127; the parent
    // must surface one diagnostic per component, not crash or hang.
    const auto vg = small_genome(2);
    core::LayoutRequest req;
    req.config = quick_config();
    req.executor = "process";
    const ScopedEnv worker("PGL_LAYOUT_WORKER", "/nonexistent/pgl_layout");
    try {
        layout_vg(vg, req);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("2 of 2 components"), std::string::npos) << what;
        EXPECT_NE(what.find("status 127"), std::string::npos) << what;
    }
}

TEST(Scheduler, UnknownExecutorIsRejected) {
    const auto vg = small_genome(2);
    core::LayoutRequest req;
    req.config = quick_config();
    req.executor = "quantum";
    EXPECT_THROW(layout_vg(vg, req), std::invalid_argument);
}

TEST(Scheduler, FailingComponentThrowsOnceTheRestHaveRun) {
    // levels = 0 makes every component's run_multilevel throw. On a pool
    // worker the exception must reach the caller as one error naming each
    // component, not escape the worker thread and abort the process.
    const auto vg = small_genome(2);
    core::LayoutRequest req;
    req.config = quick_config();
    req.multilevel = true;
    req.ml.levels = 0;
    req.component_workers = 2;
    try {
        layout_vg(vg, req);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("component 0"), std::string::npos) << what;
        EXPECT_NE(what.find("levels must be >= 1"), std::string::npos)
            << what;
    }
}

TEST(Scheduler, ResultsIndependentOfWorkerCount) {
    const auto vg = small_genome(4);
    core::LayoutRequest req;
    req.config = quick_config();
    req.component_workers = 1;
    const auto serial = layout_vg(vg, req);
    req.component_workers = 4;
    const auto parallel = layout_vg(vg, req);
    expect_layout_bitwise_equal(serial.stitched.layout, parallel.stitched.layout);
    EXPECT_EQ(serial.updates, parallel.updates);
}

TEST(Scheduler, ProgressHookSeesEveryComponent) {
    const auto vg = small_genome(3);
    core::LayoutRequest req;
    req.config = quick_config();
    req.component_workers = 2;
    std::vector<std::uint32_t> seen;
    std::uint32_t max_completed = 0;
    layout_vg(vg, req, [&](const partition::ComponentProgress& p) {
        seen.push_back(p.component);
        max_completed = std::max(max_completed, p.completed);
        EXPECT_EQ(p.total, 3u);
    });
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(max_completed, 3u);
}

TEST(Scheduler, WorkersAreBoundedByTheAllowedCpus) {
    // A segments-only graph is one component per node. Asking for a worker
    // per component must still start no more workers than allowed CPUs.
    // The calling thread is narrowed to at most two CPUs first, so the
    // request stays small (at most six components and workers) on any host.
    const std::vector<std::uint32_t> all = core::allowed_cpus_self();
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (std::size_t k = 0; k < std::min<std::size_t>(2, all.size()); ++k) {
        CPU_SET(all[k], &narrow);
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof narrow, &narrow), 0);
    const auto allowed =
        static_cast<std::uint32_t>(core::allowed_cpus_self().size());

    graph::VariationGraph vg;
    for (std::uint32_t i = 0; i < allowed + 4; ++i) vg.add_node("ACGT");
    auto ing = workloads::to_ingest(vg);
    const auto d = partition::remap(ing.graph, partition::take_labels(ing));
    core::LayoutRequest req;
    req.config = quick_config();
    req.partition = true;
    req.component_workers = allowed + 4;
    std::set<std::thread::id> workers;
    const auto results = partition::run_components(
        ing.graph, d, req, [&](const partition::ComponentProgress&) {
            // Holding the (serialized) hook lets every other worker claim
            // a component meanwhile.
            workers.insert(std::this_thread::get_id());
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });

    cpu_set_t restore;
    CPU_ZERO(&restore);
    for (const std::uint32_t c : all) CPU_SET(c, &restore);
    ASSERT_EQ(sched_setaffinity(0, sizeof restore, &restore), 0);
    ASSERT_EQ(d.count(), allowed + 4);
    EXPECT_EQ(results.size(), allowed + 4);
    EXPECT_GE(workers.size(), 1u);
    EXPECT_LE(workers.size(), allowed);
}

TEST(Scheduler, AtMostOneSubgraphPerWorkerIsAlive) {
    // Each worker builds its component's subgraph right before laying it
    // out and drops it after, so over eight components on three workers
    // no more than three subgraphs are ever alive at once, and the result
    // keeps only the remap tables.
    const auto vg = small_genome(8);
    core::LayoutRequest req;
    req.config = quick_config();
    req.component_workers = 3;
    const telemetry::Histogram live =
        telemetry::Registry::instance().histogram("partition.subgraphs_live");
    live.reset();
    const auto part = layout_vg(vg, req);
    ASSERT_EQ(part.decomposition.count(), 8u);
    for (const auto& comp : part.decomposition.components) {
        EXPECT_EQ(comp.graph.node_count(), 0u);
        EXPECT_EQ(comp.graph.path_count(), 0u);
        EXPECT_EQ(comp.graph.total_path_steps(), 0u);
    }
    EXPECT_EQ(part.stitched.layout.size(), vg.node_count());
#ifndef PGL_TELEMETRY_DISABLED
    EXPECT_EQ(live.count(), 8u);  // one build per component
    EXPECT_GE(live.min(), 1u);
    EXPECT_LE(live.max(), 3u);
#endif
}

TEST(Scheduler, PathlessComponentGetsDeterministicFallback) {
    graph::VariationGraph vg;
    for (int i = 0; i < 4; ++i) vg.add_node("ACGTACGT");
    vg.add_path("p", {Handle::forward(0), Handle::forward(1)});
    vg.add_edge(Handle::forward(2), Handle::forward(3));  // edge-only, no path
    core::LayoutRequest req;
    req.config = quick_config();
    const auto a = layout_vg(vg, req);
    const auto b = layout_vg(vg, req);
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
    for (const std::string backend : {"cpu-pipelined"}) {
        for (const std::uint32_t threads : {1u, 4u}) {
            core::LayoutRequest req;
            req.backend = backend;
            req.config = quick_config(threads);
            req.component_workers = 2;
            const auto part = layout_vg(vg, req);
            ASSERT_EQ(part.decomposition.count(), 4u);

            // Standalone runs: a fresh engine per component of decompose(),
            // straight off the registry, seeded exactly as the scheduler
            // seeds them.
            const auto d = decompose_vg(vg);
            ASSERT_EQ(d.count(), 4u);
            std::vector<core::LayoutResult> standalone;
            for (std::uint32_t c = 0; c < d.count(); ++c) {
                auto engine = core::make_engine(backend);
                core::LayoutConfig cfg = req.config;
                cfg.seed = partition::component_seed(req.config.seed, c);
                engine->init(d.components[c].graph, cfg);
                standalone.push_back(engine->run());
                expect_layout_bitwise_equal(
                    part.component_results[c].layout, standalone.back().layout);
            }
            const auto restitched =
                partition::stitch(part.decomposition, standalone);
            expect_layout_bitwise_equal(part.stitched.layout, restitched.layout);
        }
    }
}

}  // namespace

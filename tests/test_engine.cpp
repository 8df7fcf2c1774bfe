// Tests for the pluggable LayoutEngine interface, the EngineRegistry and
// the batched term pipeline (TermBatch / PairSampler::fill_batch).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <atomic>

#include "core/cpu_engine.hpp"
#include "core/engine.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

graph::LeanGraph small_graph(std::uint64_t backbone = 200, std::uint32_t paths = 4,
                             std::uint64_t seed = 5) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = seed;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

core::LayoutConfig tiny_cfg() {
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 0.5;
    cfg.seed = 99;
    return cfg;
}

// --- Registry ---

TEST(EngineRegistry, ListsAllBuiltinBackends) {
    const auto names = core::EngineRegistry::instance().names();
    const std::set<std::string> have(names.begin(), names.end());
    for (const char* expected :
         {"cpu-soa", "cpu-batched", "cpu-pipelined", "gpusim-base",
          "gpusim-optimized", "torch"}) {
        EXPECT_TRUE(have.count(expected)) << "missing backend " << expected;
    }
}

TEST(EngineRegistry, CreateReturnsEngineWithMatchingName) {
    for (const auto& name : core::EngineRegistry::instance().names()) {
        auto engine = core::EngineRegistry::instance().create(name);
        ASSERT_NE(engine, nullptr) << name;
        EXPECT_EQ(engine->name(), name);
    }
}

TEST(EngineRegistry, UnknownNameIsNullAndMakeEngineThrows) {
    EXPECT_EQ(core::EngineRegistry::instance().create("no-such-engine"), nullptr);
    EXPECT_FALSE(core::EngineRegistry::instance().contains("no-such-engine"));
    EXPECT_THROW(core::make_engine("no-such-engine"), std::invalid_argument);
}

TEST(EngineRegistry, CustomEngineCanBeRegistered) {
    auto& reg = core::EngineRegistry::instance();
    reg.add("test-alias", [] { return core::make_cpu_engine(); });
    EXPECT_TRUE(reg.contains("test-alias"));
    auto engine = reg.create("test-alias");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "cpu-soa");
}

// --- LayoutEngine contract ---

TEST(LayoutEngine, RunBeforeInitThrows) {
    auto engine = core::make_engine("cpu-soa");
    EXPECT_THROW(engine->run(), std::logic_error);
}

TEST(LayoutEngine, EveryBackendProducesFiniteLayout) {
    const auto g = small_graph();
    const auto cfg = tiny_cfg();
    for (const auto& name : core::EngineRegistry::instance().names()) {
        auto engine = core::EngineRegistry::instance().create(name);
        engine->init(g, cfg);
        const auto r = engine->run();
        ASSERT_EQ(r.layout.size(), g.node_count()) << name;
        EXPECT_GT(r.updates, 0u) << name;
        EXPECT_EQ(r.eta_schedule.size(), cfg.iter_max) << name;
        for (std::size_t i = 0; i < r.layout.size(); ++i) {
            ASSERT_TRUE(std::isfinite(r.layout.start_x[i])) << name;
            ASSERT_TRUE(std::isfinite(r.layout.start_y[i])) << name;
            ASSERT_TRUE(std::isfinite(r.layout.end_x[i])) << name;
            ASSERT_TRUE(std::isfinite(r.layout.end_y[i])) << name;
        }
    }
}

TEST(LayoutEngine, RunIterationsTruncatesTheConfiguredSchedule) {
    const auto g = small_graph();
    auto engine = core::make_engine("cpu-soa");
    core::LayoutConfig cfg = tiny_cfg();
    cfg.iter_max = 30;
    engine->init(g, cfg);
    std::vector<core::IterationStats> seen;
    engine->set_progress_hook(
        [&](const core::IterationStats& s) { seen.push_back(s); });
    const auto r = engine->run(2);
    // Only 2 iterations execute, but they walk the *30-iteration*
    // annealing schedule (a partially-converged prefix, not a compressed
    // 2-iteration schedule).
    EXPECT_EQ(seen.size(), 2u);
    ASSERT_EQ(r.eta_schedule.size(), 30u);
    EXPECT_EQ(seen[0].eta, r.eta_schedule[0]);
    EXPECT_EQ(seen[1].eta, r.eta_schedule[1]);
}

TEST(LayoutEngine, ProgressHookFiresPerIteration) {
    const auto g = small_graph();
    const auto cfg = tiny_cfg();
    for (const char* name :
         {"cpu-soa", "cpu-batched", "cpu-pipelined", "gpusim-base", "torch"}) {
        auto engine = core::make_engine(name);
        engine->init(g, cfg);
        std::vector<core::IterationStats> seen;
        engine->set_progress_hook(
            [&](const core::IterationStats& s) { seen.push_back(s); });
        engine->run();
        ASSERT_EQ(seen.size(), cfg.iter_max) << name;
        for (std::uint32_t i = 0; i < cfg.iter_max; ++i) {
            EXPECT_EQ(seen[i].iteration, i) << name;
            EXPECT_EQ(seen[i].iter_max, cfg.iter_max) << name;
            EXPECT_GT(seen[i].updates, 0u) << name;
        }
        // The annealing schedule decays monotonically.
        for (std::size_t i = 1; i < seen.size(); ++i) {
            EXPECT_LT(seen[i].eta, seen[i - 1].eta) << name;
        }
    }
}

// --- cpu-batched replays cpu-soa at one thread ---

TEST(CpuBatchedEngine, BitIdenticalToScalarForSingleThread) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    cfg.iter_max = 6;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 1;
    cfg.seed = 4242;

    auto soa = core::make_engine("cpu-soa");
    soa->init(g, cfg);
    const auto scalar = soa->run();

    auto engine = core::make_engine("cpu-batched");
    engine->init(g, cfg);
    const auto batched = engine->run();

    ASSERT_EQ(scalar.layout.size(), batched.layout.size());
    for (std::size_t i = 0; i < scalar.layout.size(); ++i) {
        ASSERT_EQ(scalar.layout.start_x[i], batched.layout.start_x[i]) << i;
        ASSERT_EQ(scalar.layout.start_y[i], batched.layout.start_y[i]) << i;
        ASSERT_EQ(scalar.layout.end_x[i], batched.layout.end_x[i]) << i;
        ASSERT_EQ(scalar.layout.end_y[i], batched.layout.end_y[i]) << i;
    }
    EXPECT_EQ(scalar.updates, batched.updates);
    EXPECT_EQ(scalar.skipped, batched.skipped);
}

TEST(CpuBatchedEngine, MultithreadedRunStaysFinite) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    cfg.iter_max = 4;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 4;
    auto engine = core::make_engine("cpu-batched");
    engine->init(g, cfg);
    const auto r = engine->run();
    for (std::size_t i = 0; i < r.layout.size(); ++i) {
        ASSERT_TRUE(std::isfinite(r.layout.start_x[i]));
        ASSERT_TRUE(std::isfinite(r.layout.end_y[i]));
    }
}

// --- ThreadPool (the seam every multithreaded backend now runs on) ---

TEST(ThreadPool, RunsEveryWorkerExactlyOncePerDispatch) {
    core::ThreadPool pool(4);
    ASSERT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(4);
    for (int round = 0; round < 50; ++round) {
        pool.run([&](std::uint32_t tid) {
            hits[tid].fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (int t = 0; t < 4; ++t) EXPECT_EQ(hits[t].load(), 50) << t;
}

TEST(ThreadPool, LaunchOverlapsCallerAndWaitEstablishesVisibility) {
    core::ThreadPool pool(3);
    std::vector<std::uint64_t> produced(3, 0);
    std::uint64_t expected = 0;
    for (int round = 1; round <= 20; ++round) {
        pool.launch([&, round](std::uint32_t tid) {
            produced[tid] += static_cast<std::uint64_t>(round) * (tid + 1);
        });
        // Caller-side work between launch and wait, as the pipelined
        // consumer does.
        expected += static_cast<std::uint64_t>(round);
        pool.wait();
    }
    // Plain (non-atomic) writes must be visible after wait().
    for (std::uint32_t t = 0; t < 3; ++t) {
        EXPECT_EQ(produced[t], expected * (t + 1)) << t;
    }
}

TEST(ThreadPool, SizeZeroRunsInline) {
    core::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    int calls = 0;
    pool.run([&](std::uint32_t tid) {
        EXPECT_EQ(tid, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

// --- Pipelined CPU engine (determinism + quality, acceptance criteria) ---

TEST(CpuPipelinedEngine, FixedSeedAndThreadsIsByteIdenticalAcrossRuns) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    cfg.iter_max = 5;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 4;
    cfg.seed = 20240117;

    core::LayoutResult runs[2];
    for (auto& r : runs) {
        auto engine = core::make_engine("cpu-pipelined");
        engine->init(g, cfg);
        r = engine->run();
    }
    ASSERT_EQ(runs[0].layout.size(), runs[1].layout.size());
    for (std::size_t i = 0; i < runs[0].layout.size(); ++i) {
        ASSERT_EQ(runs[0].layout.start_x[i], runs[1].layout.start_x[i]) << i;
        ASSERT_EQ(runs[0].layout.start_y[i], runs[1].layout.start_y[i]) << i;
        ASSERT_EQ(runs[0].layout.end_x[i], runs[1].layout.end_x[i]) << i;
        ASSERT_EQ(runs[0].layout.end_y[i], runs[1].layout.end_y[i]) << i;
    }
    EXPECT_EQ(runs[0].updates, runs[1].updates);
    EXPECT_EQ(runs[0].skipped, runs[1].skipped);
}

TEST(CpuPipelinedEngine, ReRunningTheSameEngineInstanceIsDeterministicToo) {
    // The persistent pool must not leak state between run() calls.
    const auto g = small_graph(200, 4);
    core::LayoutConfig cfg = tiny_cfg();
    cfg.threads = 3;
    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    const auto a = engine->run();
    const auto b = engine->run();
    ASSERT_EQ(a.layout.size(), b.layout.size());
    for (std::size_t i = 0; i < a.layout.size(); ++i) {
        ASSERT_EQ(a.layout.start_x[i], b.layout.start_x[i]) << i;
        ASSERT_EQ(a.layout.end_y[i], b.layout.end_y[i]) << i;
    }
}

TEST(CpuPipelinedEngine, MatchesBatchedQualityWithinStressTolerance) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    // A full 30-iteration schedule: partially-converged runs have
    // order-of-magnitude stress variance across PRNG streams for every
    // engine, so only the converged layouts compare meaningfully.
    cfg.iter_max = 30;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 4;
    cfg.seed = 777;

    auto batched = core::make_engine("cpu-batched");
    batched->init(g, cfg);
    const auto rb = batched->run();

    auto pipelined = core::make_engine("cpu-pipelined");
    pipelined->init(g, cfg);
    const auto rp = pipelined->run();

    EXPECT_EQ(rb.updates, rp.updates);
    const auto sb = metrics::sampled_path_stress(g, rb.layout, 50, 1);
    const auto sp = metrics::sampled_path_stress(g, rp.layout, 50, 1);
    // Same objective, same schedule, different update interleaving: the
    // two engines must land on layouts of comparable quality.
    ASSERT_GT(sb.value, 0.0);
    ASSERT_GT(sp.value, 0.0);
    EXPECT_LT(sp.value, sb.value * 2.0);
    EXPECT_GT(sp.value, sb.value * 0.5);
}

// --- Update accounting (multithreaded over-count fix) ---

TEST(CpuEngine, MultithreadedUpdateCountMatchesRequestedSteps) {
    const auto g = small_graph(100, 2);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 1.0;
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    // A thread count that does not divide n_steps used to round the
    // reported count up past the requested steps.
    for (std::uint32_t threads : {2u, 3u, 7u}) {
        cfg.threads = threads;
        auto engine = core::make_engine("cpu-soa");
        engine->init(g, cfg);
        const auto r = engine->run();
        EXPECT_EQ(r.updates, cfg.iter_max * n_steps) << threads << " threads";
    }
}

// --- TermBatch / fill_batch ---

TEST(TermBatch, FillBatchMatchesScalarSampleStream) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);

    // Reference: the scalar CPU loop's PRNG consumption — sample, then one
    // nudge draw per valid term.
    rng::Xoshiro256Plus rng_scalar(31337);
    std::vector<core::TermSample> ref;
    std::vector<double> ref_nudge;
    for (int k = 0; k < 3000; ++k) {
        const auto t = sampler.sample(false, rng_scalar);
        double nd = 0.0;
        if (t.valid) {
            nd = (rng_scalar.next_double() - 0.5) * 1e-3;
            if (nd == 0.0) nd = 1e-4;
        }
        ref.push_back(t);
        ref_nudge.push_back(nd);
    }

    rng::Xoshiro256Plus rng_batch(31337);
    core::TermBatch batch;
    const std::uint64_t skipped = sampler.fill_batch(false, rng_batch, 3000, batch);

    ASSERT_EQ(batch.size(), ref.size());
    std::uint64_t ref_skipped = 0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
        ASSERT_EQ(batch.valid[k] != 0, ref[k].valid) << k;
        if (!ref[k].valid) {
            ++ref_skipped;
            continue;
        }
        ASSERT_EQ(batch.path[k], ref[k].path) << k;
        ASSERT_EQ(batch.step_i[k], ref[k].step_i) << k;
        ASSERT_EQ(batch.step_j[k], ref[k].step_j) << k;
        ASSERT_EQ(batch.node_i[k], ref[k].node_i) << k;
        ASSERT_EQ(batch.node_j[k], ref[k].node_j) << k;
        ASSERT_EQ(batch.end_i_of(k), ref[k].end_i) << k;
        ASSERT_EQ(batch.end_j_of(k), ref[k].end_j) << k;
        ASSERT_EQ(batch.pos_i[k], ref[k].pos_i) << k;
        ASSERT_EQ(batch.pos_j[k], ref[k].pos_j) << k;
        ASSERT_EQ(batch.d_ref[k], ref[k].d_ref) << k;
        ASSERT_EQ(batch.nudge[k], ref_nudge[k]) << k;
    }
    EXPECT_EQ(skipped, ref_skipped);
    EXPECT_EQ(batch.invalid_count(), ref_skipped);
}

TEST(TermBatch, SlicedFillsReplayOneBigFill) {
    // Filling 4 x 250 terms in slices consumes the PRNG exactly like one
    // 1000-term fill — the property cpu-batched's slicing relies on.
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);

    rng::Xoshiro256Plus rng_one(7);
    core::TermBatch one;
    sampler.fill_batch(true, rng_one, 1000, one);

    rng::Xoshiro256Plus rng_sliced(7);
    core::TermBatch sliced;
    for (int s = 0; s < 4; ++s) sampler.fill_batch(true, rng_sliced, 250, sliced);

    ASSERT_EQ(one.size(), sliced.size());
    for (std::size_t k = 0; k < one.size(); ++k) {
        ASSERT_EQ(one.valid[k], sliced.valid[k]) << k;
        ASSERT_EQ(one.node_i[k], sliced.node_i[k]) << k;
        ASSERT_EQ(one.node_j[k], sliced.node_j[k]) << k;
        ASSERT_EQ(one.d_ref[k], sliced.d_ref[k]) << k;
        ASSERT_EQ(one.nudge[k], sliced.nudge[k]) << k;
    }
}

TEST(TermBatch, WithoutNudgeDrawsNoExtraVariates) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);

    rng::Xoshiro256Plus rng_scalar(11);
    std::vector<core::TermSample> ref;
    for (int k = 0; k < 500; ++k) ref.push_back(sampler.sample(false, rng_scalar));

    rng::Xoshiro256Plus rng_batch(11);
    core::TermBatch batch;
    sampler.fill_batch(false, rng_batch, 500, batch, /*with_nudge=*/false);

    ASSERT_EQ(batch.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
        ASSERT_EQ(batch.valid[k] != 0, ref[k].valid) << k;
        if (!ref[k].valid) continue;
        ASSERT_EQ(batch.node_i[k], ref[k].node_i) << k;
        ASSERT_EQ(batch.d_ref[k], ref[k].d_ref) << k;
        ASSERT_EQ(batch.nudge[k], 0.0) << k;
    }
}

// --- Placement never changes the bytes ---

// The NUMA layer's hard guardrail: for the deterministic backends a fixed
// (seed, threads) run is byte-identical with pinning and memory placement
// on, off, or any mix — placement may move pages and workers, never a
// float. One reference run per (backend, threads), compared against every
// placement variant, including a pin plan whose CPUs do not exist (the
// partial-failure path: pinning fails, the run must neither abort nor
// diverge).
core::LayoutResult run_placed(const graph::LeanGraph& g, const char* backend,
                              std::uint32_t threads, bool pin,
                              const std::string& numa) {
    core::LayoutConfig cfg;
    cfg.iter_max = 4;
    cfg.steps_per_iter_factor = 1.0;
    cfg.threads = threads;
    cfg.seed = 424242;
    cfg.pin = pin;
    cfg.numa = numa;
    auto engine = core::make_engine(backend);
    engine->init(g, cfg);
    return engine->run();
}

void expect_same_layout(const core::LayoutResult& a,
                        const core::LayoutResult& b, const std::string& what) {
    ASSERT_EQ(a.layout.size(), b.layout.size()) << what;
    for (std::size_t i = 0; i < a.layout.size(); ++i) {
        ASSERT_EQ(a.layout.start_x[i], b.layout.start_x[i]) << what << " " << i;
        ASSERT_EQ(a.layout.start_y[i], b.layout.start_y[i]) << what << " " << i;
        ASSERT_EQ(a.layout.end_x[i], b.layout.end_x[i]) << what << " " << i;
        ASSERT_EQ(a.layout.end_y[i], b.layout.end_y[i]) << what << " " << i;
    }
    EXPECT_EQ(a.updates, b.updates) << what;
    EXPECT_EQ(a.skipped, b.skipped) << what;
}

class PlacementByteIdentity
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint32_t>> {
};

TEST_P(PlacementByteIdentity, PinnedAndPlacedRunsMatchUnpinned) {
    const auto [backend, threads] = GetParam();
    const auto g = small_graph(300, 5);
    const auto base = run_placed(g, backend, threads, false, "off");
    expect_same_layout(base, run_placed(g, backend, threads, true, "off"),
                       "pin only");
    expect_same_layout(base, run_placed(g, backend, threads, true, "auto"),
                       "pin + auto");
    expect_same_layout(base, run_placed(g, backend, threads, false, "interleave"),
                       "interleave, unpinned");
    // Out-of-range node:K degrades to K % node_count, still byte-identical.
    expect_same_layout(base, run_placed(g, backend, threads, true, "node:7"),
                       "pin + node:7");
}

INSTANTIATE_TEST_SUITE_P(
    DeterministicBackends, PlacementByteIdentity,
    ::testing::Combine(::testing::Values("cpu-batched", "cpu-pipelined"),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
        std::string name = std::string(std::get<0>(info.param)) + "_t" +
                           std::to_string(std::get<1>(info.param));
        for (char& c : name) {
            if (c == '-') c = '_';
        }
        return name;
    });

TEST(PlacementByteIdentityExtra, PartiallyFailedPinStillMatches) {
    // Drive the failure path directly: a pool pinned to a nonexistent CPU
    // must run the job unpinned and to completion.
    core::WorkerPlacement plan;
    plan.slots = {{1u << 20, 0}};
    core::ThreadPool pool(1, plan);
    std::atomic<int> ran{0};
    pool.run([&](std::uint32_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);
}

}  // namespace

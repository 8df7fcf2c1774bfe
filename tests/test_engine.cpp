// Tests for the pluggable LayoutEngine interface, the EngineRegistry and
// the batched term pipeline (TermBatch / PairSampler::fill_batch_staged and
// the lane filler).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>
#include <atomic>

#include "core/cpu_engine.hpp"
#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/lane_sampler.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "graph/lean_graph.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xorwow.hpp"
#include "rng/xoshiro256.hpp"
#include "telemetry/telemetry.hpp"
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
         {"cpu-pipelined", "gpusim-base", "gpusim-optimized", "torch"}) {
        EXPECT_TRUE(have.count(expected)) << "missing backend " << expected;
    }
    // The Hogwild CPU backend is retired: its name is unknown like any other.
    EXPECT_FALSE(have.count("cpu-soa"));
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
    reg.add("test-alias", [] { return core::make_pipelined_engine(); });
    EXPECT_TRUE(reg.contains("test-alias"));
    auto engine = reg.create("test-alias");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "cpu-pipelined");
}

// --- LayoutEngine contract ---

TEST(LayoutEngine, StepCountOf2To64OrMoreIsRejectedAtInit) {
    // steps_per_iteration() converts factor x total steps to uint64_t; a
    // product at or past 2^64 would be an undefined cast.
    const auto g = small_graph(100, 2);
    for (const auto& name : core::EngineRegistry::instance().names()) {
        auto engine = core::make_engine(name);
        core::LayoutConfig cfg = tiny_cfg();
        cfg.steps_per_iter_factor = 1e300;
        EXPECT_THROW(engine->init(g, cfg), std::invalid_argument) << name;
    }
}

TEST(LayoutEngine, RunBeforeInitThrows) {
    auto engine = core::make_engine("cpu-pipelined");
    EXPECT_THROW(engine->run(), std::logic_error);
}

TEST(LayoutEngine, PathlessGraphIsRejectedNotSampled) {
    // No path steps means no alias table to draw from: every backend must
    // refuse the graph up front instead of sampling out of bounds.
    const auto g = graph::LeanGraph::from_parts({4, 4}, {});
    for (const auto& name : core::EngineRegistry::instance().names()) {
        auto engine = core::make_engine(name);
        EXPECT_THROW(
            {
                engine->init(g, tiny_cfg());
                engine->run();
            },
            std::invalid_argument)
            << name;
    }
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
            ASSERT_TRUE(std::isfinite(r.layout[i].sx)) << name;
            ASSERT_TRUE(std::isfinite(r.layout[i].sy)) << name;
            ASSERT_TRUE(std::isfinite(r.layout[i].ex)) << name;
            ASSERT_TRUE(std::isfinite(r.layout[i].ey)) << name;
        }
    }
}

TEST(LayoutEngine, EveryBackendRepeatsItsBytesAtFourThreads) {
    // A fixed (seed, threads) pair pins the bytes on every registered
    // backend, multithreaded too: the daemon caches a layout by its key,
    // so a re-run must reproduce what it cached. A racy apply fails here.
    const auto g =
        workloads::to_ingest(workloads::generate_whole_genome(
                                 workloads::whole_genome_spec(2, 0.0001)))
            .graph;
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 0.5;
    cfg.threads = 4;
    cfg.seed = 17;
    for (const auto& name : core::EngineRegistry::instance().names()) {
        const auto run = [&] {
            auto engine = core::make_engine(name);
            engine->init(g, cfg);
            return engine->run().layout;
        };
        EXPECT_EQ(run(), run()) << name;
    }
}

TEST(LayoutEngine, RunIterationsTruncatesTheConfiguredSchedule) {
    const auto g = small_graph();
    auto engine = core::make_engine("cpu-pipelined");
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
    for (const std::uint32_t threads : {1u, 3u}) {
        core::LayoutConfig cfg = tiny_cfg();
        cfg.threads = threads;
        for (const char* name :
             {"cpu-pipelined", "gpusim-base", "torch"}) {
            auto engine = core::make_engine(name);
            engine->init(g, cfg);
            std::vector<core::IterationStats> seen;
            std::vector<std::thread::id> on;
            engine->set_progress_hook([&](const core::IterationStats& s) {
                seen.push_back(s);
                on.push_back(std::this_thread::get_id());
            });
            engine->run();
            ASSERT_EQ(seen.size(), cfg.iter_max) << name << "@" << threads;
            for (std::uint32_t i = 0; i < cfg.iter_max; ++i) {
                EXPECT_EQ(seen[i].iteration, i) << name << "@" << threads;
                EXPECT_EQ(seen[i].iter_max, cfg.iter_max) << name;
                EXPECT_GT(seen[i].updates, 0u) << name;
                // Every engine reports on the thread that called run().
                EXPECT_EQ(on[i], std::this_thread::get_id())
                    << name << "@" << threads;
            }
            // The annealing schedule decays monotonically.
            for (std::size_t i = 1; i < seen.size(); ++i) {
                EXPECT_LT(seen[i].eta, seen[i - 1].eta) << name;
            }
        }
    }
}

// --- The CPU engine replays the per-term reference at one thread ---

/// The four-word contract's independent reference: one term at a time,
/// PairSampler::sample() then sgd_term_update, on the unjumped seed
/// stream, the whole schedule in draw order.
core::LayoutResult per_term_reference(const graph::LeanGraph& g,
                                      const core::LayoutConfig& cfg) {
    core::LayoutResult r;
    r.eta_schedule = core::make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));
    const core::PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    core::XYStore store(core::make_initial_layout(g, cfg));
    float* p = store.data();
    rng::Xoshiro256Plus rng(cfg.seed);
    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        for (std::uint64_t s = 0; s < n_steps; ++s) {
            const core::TermSample t = sampler.sample(cfg.cooling(iter), rng);
            ++r.updates;
            if (!t.valid) {
                ++r.skipped;
                continue;
            }
            const std::size_t i = core::XYStore::index(t.node_i, t.end_i);
            const std::size_t j = core::XYStore::index(t.node_j, t.end_j);
            const float xi = p[i], yi = p[i + 1], xj = p[j], yj = p[j + 1];
            const core::PointDelta d = core::sgd_term_update(
                xi, yi, xj, yj, t.d_ref, r.eta_schedule[iter], t.nudge);
            p[i] = xi + d.dx_i;
            p[i + 1] = yi + d.dy_i;
            p[j] = xj + d.dx_j;
            p[j + 1] = yj + d.dy_j;
        }
    }
    r.layout = store.snapshot();
    return r;
}

TEST(CpuEngines, SingleThreadMatchesPerTermReference) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    cfg.iter_max = 6;
    cfg.steps_per_iter_factor = 2.0;
    cfg.threads = 1;
    cfg.seed = 4242;
    const auto ref = per_term_reference(g, cfg);
    ASSERT_GT(ref.skipped, 0u);  // holes are part of the contract

    auto engine = core::make_engine("cpu-pipelined");
    engine->init(g, cfg);
    const auto r = engine->run();
    ASSERT_EQ(r.layout.size(), ref.layout.size());
    for (std::size_t i = 0; i < r.layout.size(); ++i) {
        ASSERT_EQ(r.layout[i].sx, ref.layout[i].sx) << i;
        ASSERT_EQ(r.layout[i].sy, ref.layout[i].sy) << i;
        ASSERT_EQ(r.layout[i].ex, ref.layout[i].ex) << i;
        ASSERT_EQ(r.layout[i].ey, ref.layout[i].ey) << i;
    }
    EXPECT_EQ(r.updates, ref.updates);
    EXPECT_EQ(r.skipped, ref.skipped);
}

// --- The block stream replays a sequential batch loop at one thread ---

/// A hand-written sequential reference for the block engine at one
/// thread: each iteration samples its n_steps terms with sample() into
/// one TermBatch and applies it with apply_term_slots, the kernels'
/// reference semantics. No blocks, slices or ring.
core::Layout sequential_batch_reference(const graph::LeanGraph& g,
                                        const core::LayoutConfig& cfg) {
    const std::vector<double> eta = core::make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));
    const core::PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    core::XYStore store(core::make_initial_layout(g, cfg));
    rng::Xoshiro256Plus rng(cfg.seed);
    core::TermBatch batch;
    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        batch.clear();
        for (std::uint64_t s = 0; s < n_steps; ++s) {
            batch.append(sampler.sample(cfg.cooling(iter), rng));
        }
        core::apply_term_slots(batch, 0, batch.size(), eta[iter], store.data());
    }
    return store.snapshot();
}

TEST(BlockStream, OneThreadEqualsTheSequentialBatchLoop) {
    struct Case {
        const char* what;
        std::uint64_t backbone;
        double factor;
        std::uint32_t iters;
    };
    // A per-iteration share that is not a multiple of kBlock (several
    // blocks, a partial one closing each iteration), and a run of exactly
    // one block.
    for (const Case c : {Case{"partial blocks", 2000, 1.3, 4},
                         Case{"one block", 60, 0.5, 1}}) {
        const auto g = small_graph(c.backbone, 3);
        core::LayoutConfig cfg;
        cfg.iter_max = c.iters;
        cfg.steps_per_iter_factor = c.factor;
        cfg.threads = 1;
        cfg.seed = 31337;
        const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
        if (c.iters == 1) {
            ASSERT_LE(n_steps, core::kBlock) << c.what;
        } else {
            ASSERT_GT(n_steps, 2 * core::kBlock) << c.what;
            ASSERT_NE(n_steps % core::kBlock, 0u) << c.what;
        }
        const core::Layout want = sequential_batch_reference(g, cfg);
        for (const char* kernel : {"scalar", "simd"}) {
            cfg.kernel = kernel;
            auto engine = core::make_engine("cpu-pipelined");
            engine->init(g, cfg);
            const core::LayoutResult r = engine->run();
            EXPECT_EQ(r.layout, want) << c.what << ", " << kernel;
            EXPECT_EQ(r.updates, c.iters * n_steps) << c.what;
        }
    }
}

TEST(BlockStream, CancelAtAnIterationBoundaryStopsEverySampler) {
    const auto g = small_graph(3000, 4);
    core::LayoutConfig cfg;
    cfg.iter_max = 6;
    cfg.steps_per_iter_factor = 2.0;
    cfg.seed = 5;
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    for (const std::uint32_t threads : {1u, 3u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        cfg.threads = threads;
        auto flag = std::make_shared<std::atomic<bool>>(false);
        cfg.cancel = flag;
        auto engine = core::make_engine("cpu-pipelined");
        engine->init(g, cfg);
        std::vector<std::uint32_t> seen;
        bool cancel_at_1 = true;
        engine->set_progress_hook([&](const core::IterationStats& s) {
            seen.push_back(s.iteration);
            if (cancel_at_1 && s.iteration == 1) flag->store(true);
        });
        const core::LayoutResult cancelled = engine->run();
        EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1}));
        EXPECT_EQ(cancelled.updates, 2 * n_steps);

        // The same engine, and so the same pool, runs the full schedule
        // next. A sampler still in the cancelled run's job would share the
        // pool with the new one (and the thread sanitizer build would see
        // it touch the old run's ring).
        flag->store(false);
        cancel_at_1 = false;
        seen.clear();
        const core::LayoutResult full = engine->run();
        EXPECT_EQ(seen.size(), cfg.iter_max);
        EXPECT_EQ(full.updates, cfg.iter_max * n_steps);
        auto fresh = core::make_engine("cpu-pipelined");
        fresh->init(g, cfg);
        EXPECT_EQ(full.layout, fresh->run().layout);
    }
}

TEST(BlockStream, AttributionCountersSplitTheCallersTime) {
#ifdef PGL_TELEMETRY_DISABLED
    GTEST_SKIP() << "needs the engine.{sample,apply,stall}_ns and "
                    "pipelined.lane_blocks counters";
#else
    const auto g = small_graph(8000, 4);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 1.0;
    auto& reg = telemetry::Registry::instance();
    const telemetry::Counter sample_ns = reg.counter("engine.sample_ns");
    const telemetry::Counter apply_ns = reg.counter("engine.apply_ns");
    const telemetry::Counter stall_ns = reg.counter("engine.stall_ns");
    const telemetry::Counter lane_blocks = reg.counter("pipelined.lane_blocks");
    for (const std::uint32_t threads : {1u, 3u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        cfg.threads = threads;
        auto engine = core::make_engine("cpu-pipelined");
        engine->init(g, cfg);
        const std::uint64_t s0 = sample_ns.value();
        const std::uint64_t a0 = apply_ns.value();
        const std::uint64_t w0 = stall_ns.value();
        const std::uint64_t l0 = lane_blocks.value();
        const core::LayoutResult r = engine->run();
        const std::uint64_t sampled = sample_ns.value() - s0;
        const std::uint64_t applied = apply_ns.value() - a0;
        const std::uint64_t stalled = stall_ns.value() - w0;
        EXPECT_GT(sampled, 0u);
        EXPECT_GT(applied, 0u);
        EXPECT_GT(stalled, 0u);
        // Which filler ran: the lanes wherever the CPU has them.
        if (core::LaneFiller::available()) {
            EXPECT_GT(lane_blocks.value() - l0, 0u) << "an AVX-512F CPU filled no block in lanes";
        } else {
            EXPECT_EQ(lane_blocks.value() - l0, 0u) << "lanes ran on a CPU without AVX-512F";
        }
        // Both are disjoint stretches of the caller's run.
        EXPECT_LE(static_cast<double>(applied + stalled), r.seconds * 1e9);
    }
#endif
}

// --- ThreadPool (the seam every multithreaded backend now runs on) ---

TEST(ThreadPool, AllowedCpusSelfIsNonEmptyAndSorted) {
    const std::vector<std::uint32_t> cpus = core::allowed_cpus_self();
    ASSERT_FALSE(cpus.empty());
    EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
}

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
        ASSERT_EQ(runs[0].layout[i].sx, runs[1].layout[i].sx) << i;
        ASSERT_EQ(runs[0].layout[i].sy, runs[1].layout[i].sy) << i;
        ASSERT_EQ(runs[0].layout[i].ex, runs[1].layout[i].ex) << i;
        ASSERT_EQ(runs[0].layout[i].ey, runs[1].layout[i].ey) << i;
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
        ASSERT_EQ(a.layout[i].sx, b.layout[i].sx) << i;
        ASSERT_EQ(a.layout[i].ey, b.layout[i].ey) << i;
    }
}

TEST(CpuPipelinedEngine, EveryThreadSamplesAndRepeatedRunsKeepTheirBytes) {
    // At factor 1 each of three shards' slices spans several blocks, so
    // blocks of one slice are filled concurrently by different threads.
    const auto g = small_graph(8000, 4);
    core::LayoutConfig cfg;
    cfg.iter_max = 3;
    cfg.steps_per_iter_factor = 1.0;
    cfg.seed = 77;
    ASSERT_GE(cfg.steps_per_iteration(g.total_path_steps()), 3 * 2 * 3 * core::kBlock);

#ifndef PGL_TELEMETRY_DISABLED
    const telemetry::Counter consumer_blocks =
        telemetry::Registry::instance().counter("pipelined.consumer_blocks");
#endif
    for (const std::uint32_t threads : {1u, 3u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        cfg.threads = threads;
#ifndef PGL_TELEMETRY_DISABLED
        const std::uint64_t before = consumer_blocks.value();
#endif
        core::LayoutResult first;
        for (int run = 0; run < 20; ++run) {
            auto engine = core::make_engine("cpu-pipelined");
            engine->init(g, cfg);
            const core::LayoutResult r = engine->run();
            if (run == 0) {
                first = r;
                continue;
            }
            ASSERT_EQ(r.layout, first.layout) << "run " << run;
            ASSERT_EQ(r.skipped, first.skipped) << "run " << run;
        }
#ifndef PGL_TELEMETRY_DISABLED
        // The calling thread samples too: a fallback to pool-only sampling
        // would leave the counter flat.
        if (threads == 1) {
            EXPECT_GT(consumer_blocks.value(), before);
        }
#endif
    }
}

TEST(CpuPipelinedEngine, FourShardsMatchOneShardQualityWithinStressTolerance) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    // A full 30-iteration schedule: partially-converged runs have
    // order-of-magnitude stress variance across PRNG streams for every
    // engine, so only the converged layouts compare meaningfully.
    cfg.iter_max = 30;
    cfg.steps_per_iter_factor = 2.0;
    cfg.seed = 777;

    cfg.threads = 1;
    auto one = core::make_engine("cpu-pipelined");
    one->init(g, cfg);
    const auto r1 = one->run();

    cfg.threads = 4;
    auto four = core::make_engine("cpu-pipelined");
    four->init(g, cfg);
    const auto r4 = four->run();

    EXPECT_EQ(r1.updates, r4.updates);
    const auto s1 = metrics::sampled_path_stress(g, r1.layout, 50, 1);
    const auto s4 = metrics::sampled_path_stress(g, r4.layout, 50, 1);
    // Same objective, same schedule, different streams and update
    // interleaving: the two runs must land on layouts of comparable
    // quality.
    ASSERT_GT(s1.value, 0.0);
    ASSERT_GT(s4.value, 0.0);
    EXPECT_LT(s4.value, s1.value * 2.0);
    EXPECT_GT(s4.value, s1.value * 0.5);
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
        auto engine = core::make_engine("cpu-pipelined");
        engine->init(g, cfg);
        const auto r = engine->run();
        EXPECT_EQ(r.updates, cfg.iter_max * n_steps) << threads << " threads";
    }
}

// --- The canonical four-word draw (TermBatch / fill_batch_staged) ---

/// Every column of a staged fill with replay columns, slot by slot.
void expect_batch_matches_samples(const core::TermBatch& b, std::size_t at,
                                  const std::vector<core::TermSample>& ref) {
    for (std::size_t k = 0; k < ref.size(); ++k) {
        const std::size_t s = at + k;
        ASSERT_EQ(b.valid[s] != 0, ref[k].valid) << k;
        ASSERT_EQ(b.path[s], ref[k].path) << k;
        ASSERT_EQ(b.step_i[s], ref[k].step_i) << k;
        ASSERT_EQ(b.step_j[s], ref[k].step_j) << k;
        ASSERT_EQ(b.end_i_of(s), ref[k].end_i) << k;
        ASSERT_EQ(b.end_j_of(s), ref[k].end_j) << k;
        ASSERT_EQ(b.nudge[s], ref[k].nudge) << k;
        if (!ref[k].valid) continue;
        ASSERT_EQ(b.node_i[s], ref[k].node_i) << k;
        ASSERT_EQ(b.node_j[s], ref[k].node_j) << k;
        ASSERT_EQ(b.pos_i[s], ref[k].pos_i) << k;
        ASSERT_EQ(b.pos_j[s], ref[k].pos_j) << k;
        ASSERT_EQ(b.d_ref[s], ref[k].d_ref) << k;
    }
}

TEST(CanonicalDraw, StagedFillEqualsSampleCallsInAnySlicing) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    const std::size_t n = 3000;
    for (const bool cooling_iter : {false, true}) {
        SCOPED_TRACE(cooling_iter ? "cooling iteration" : "coin-flip iteration");
        rng::Xoshiro256Plus rng_ref(31337);
        std::vector<core::TermSample> ref;
        std::uint64_t ref_skipped = 0;
        for (std::size_t k = 0; k < n; ++k) {
            ref.push_back(sampler.sample(cooling_iter, rng_ref));
            ref_skipped += !ref.back().valid;
        }
        ASSERT_GT(ref_skipped, 0u);  // holes must be exercised too

        // One call, with and without the replay columns.
        rng::Xoshiro256Plus rng_one(31337);
        core::TermBatch one;
        EXPECT_EQ(sampler.fill_batch_staged(cooling_iter, rng_one, n, one, true),
                  ref_skipped);
        EXPECT_EQ(one.invalid_count(), ref_skipped);
        expect_batch_matches_samples(one, 0, ref);

        rng::Xoshiro256Plus rng_apply(31337);
        core::TermBatch apply;
        sampler.fill_batch_staged(cooling_iter, rng_apply, n, apply);
        EXPECT_TRUE(apply.path.empty());
        EXPECT_EQ(apply.node_i, one.node_i);
        EXPECT_EQ(apply.d_ref, one.d_ref);
        EXPECT_EQ(apply.nudge, one.nudge);
        EXPECT_EQ(apply.valid, one.valid);

        // Slices that do and do not line up with the 64-term blocks.
        for (const std::size_t slice : {1u, 63u, 64u, 1000u}) {
            SCOPED_TRACE("slice " + std::to_string(slice));
            rng::Xoshiro256Plus rng_sliced(31337);
            core::TermBatch b;
            for (std::size_t at = 0; at < n; at += slice) {
                const std::size_t m = std::min(slice, n - at);
                sampler.fill_batch_staged(cooling_iter, rng_sliced, m, b, true);
                expect_batch_matches_samples(
                    b, 0, std::vector<core::TermSample>(ref.begin() + at,
                                                        ref.begin() + at + m));
            }
        }
    }
}

TEST(CanonicalDraw, EveryTermAdvancesTheStreamByExactlyFourWords) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
        for (const bool cooling_iter : {false, true}) {
            rng::Xoshiro256Plus filled(99), sampled(99), branched(99), words(99);
            core::TermBatch b;
            sampler.fill_batch_staged(cooling_iter, filled, n, b);
            for (std::size_t k = 0; k < n; ++k) {
                sampler.sample(cooling_iter, sampled);
                sampler.sample_branch(cooling_iter, branched);
            }
            for (std::size_t k = 0; k < core::kTermWords * n; ++k) words.next();
            const std::uint64_t next = words.next();
            EXPECT_EQ(filled.next(), next) << n;
            EXPECT_EQ(sampled.next(), next) << n;
            EXPECT_EQ(branched.next(), next) << n;
        }
    }
    // XORWOW's 64-bit word is two 32-bit draws: eight per term.
    rng::XorwowState st = rng::xorwow_init(7, 3);
    rng::XorwowState ref = st;
    rng::XorwowRng lane(st);
    for (int k = 0; k < 100; ++k) sampler.sample(k % 2 == 0, lane);
    for (int k = 0; k < 800; ++k) rng::xorwow_next(ref);
    EXPECT_EQ(rng::xorwow_next(st), rng::xorwow_next(ref));
}

TEST(CanonicalDraw, BlockRangeFillsEqualOneFillInAnyOrder) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    constexpr std::size_t kB = core::kBlock;
    for (const std::size_t n : {std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 17}) {
        for (const bool cooling_iter : {false, true}) {
            SCOPED_TRACE("n " + std::to_string(n) + (cooling_iter ? ", cooling" : ""));
            rng::Xoshiro256Plus rng_one(4242);
            core::TermBatch one;
            sampler.fill_batch_staged(cooling_iter, rng_one, n, one, true);

            // Block b reads the seed stream jumped b times.
            const std::size_t n_blocks = (n + kB - 1) / kB;
            std::vector<rng::Xoshiro256Plus> starts;
            rng::Xoshiro256Plus at(4242);
            for (std::size_t b = 0; b < n_blocks; ++b) {
                if (b > 0) at.jump_block();
                starts.push_back(at);
            }

            // Fills every block, lane by lane; lanes after the first run on
            // threads of their own, concurrently with it.
            const auto fill_in = [&](const auto& lanes) {
                core::TermBatch out;
                out.resize(n, true);
                std::vector<rng::Xoshiro256Plus> streams = starts;
                std::vector<std::uint64_t> skipped(n_blocks);
                const auto run_lane = [&](const std::vector<std::size_t>& lane) {
                    for (const std::size_t b : lane) {
                        const std::size_t begin = b * kB;
                        skipped[b] = sampler.fill_batch_staged(
                            cooling_iter, streams[b], begin, std::min(kB, n - begin),
                            out, true);
                    }
                };
                std::vector<std::thread> others;
                for (std::size_t l = 1; l < lanes.size(); ++l) {
                    others.emplace_back(run_lane, std::cref(lanes[l]));
                }
                run_lane(lanes[0]);
                for (auto& t : others) t.join();
                for (const std::uint64_t s : skipped) out.add_invalid(s);
                // The last block ends where the one fill's stream ends.
                EXPECT_EQ(streams.back().next(), rng::Xoshiro256Plus(rng_one).next());
                return out;
            };

            std::vector<std::size_t> forward(n_blocks), reverse, even, odd;
            for (std::size_t b = 0; b < n_blocks; ++b) {
                forward[b] = b;
                (b % 2 == 0 ? even : odd).push_back(b);
            }
            reverse.assign(forward.rbegin(), forward.rend());
            using Lanes = std::vector<std::vector<std::size_t>>;
            const std::vector<std::pair<const char*, Lanes>> orders = {
                {"forward", Lanes{forward}},
                {"reverse", Lanes{reverse}},
                {"two threads", Lanes{even, odd}}};
            for (const auto& [order, lanes] : orders) {
                SCOPED_TRACE(order);
                const core::TermBatch b = fill_in(lanes);
                EXPECT_EQ(b.path, one.path);
                EXPECT_EQ(b.step_i, one.step_i);
                EXPECT_EQ(b.step_j, one.step_j);
                EXPECT_EQ(b.pos_i, one.pos_i);
                EXPECT_EQ(b.pos_j, one.pos_j);
                EXPECT_EQ(b.node_i, one.node_i);
                EXPECT_EQ(b.node_j, one.node_j);
                EXPECT_EQ(b.end_i, one.end_i);
                EXPECT_EQ(b.end_j, one.end_j);
                EXPECT_EQ(b.d_ref, one.d_ref);
                EXPECT_EQ(b.nudge, one.nudge);
                EXPECT_EQ(b.valid, one.valid);
                EXPECT_EQ(b.invalid_count(), one.invalid_count());
            }
        }
    }
}

TEST(CanonicalDraw, WordLayoutDecodesAsDocumented) {
    const auto g = small_graph(250, 1);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    const std::uint32_t n_steps = g.path_step_count(0);
    const std::uint64_t half = std::uint64_t{1} << 63;
    // w1/w2 = 2^63 pick step n/2; w3 with only the top four bits set: the
    // coin-flip iteration cools, the hop goes forward, both ends are starts.
    const std::uint64_t coins = std::uint64_t{0xf} << 60;
    const std::uint64_t w[core::kTermWords] = {0, half, half, coins};
    EXPECT_TRUE(core::cooling_coin(w));
    const auto uniform = sampler.decode(w, false);
    EXPECT_EQ(uniform.path, 0u);
    EXPECT_EQ(uniform.step_i, n_steps / 2);
    EXPECT_EQ(uniform.step_j, n_steps / 2);
    EXPECT_FALSE(uniform.valid);
    EXPECT_EQ(uniform.end_i, core::End::kStart);
    EXPECT_EQ(uniform.end_j, core::End::kStart);
    // w2 = 0 is the smallest hop, 1, forward.
    const std::uint64_t hop1[core::kTermWords] = {0, half, 0, coins};
    const auto cooled = sampler.decode(hop1, true);
    EXPECT_TRUE(cooled.took_cooling);
    EXPECT_EQ(cooled.step_j, n_steps / 2 + 1);
    // Clearing bit 62 turns the hop backward; clearing 61/60 picks ends.
    const std::uint64_t back[core::kTermWords] = {0, half, 0, std::uint64_t{1} << 63};
    const auto rev = sampler.decode(back, true);
    EXPECT_EQ(rev.step_j, n_steps / 2 - 1);
    EXPECT_EQ(rev.end_i, core::End::kEnd);
    EXPECT_EQ(rev.end_j, core::End::kEnd);
    // The low bits never reach a coin: flipping them moves only the nudge.
    const std::uint64_t low[core::kTermWords] = {0, half, 0, coins | 0xffffu};
    const auto same = sampler.decode(low, true);
    EXPECT_EQ(same.step_j, cooled.step_j);
    EXPECT_EQ(same.end_i, cooled.end_i);
    EXPECT_EQ(same.nudge, cooled.nudge);
    const std::uint64_t mid[core::kTermWords] = {
        0, half, 0, coins | (std::uint64_t{1} << 20)};
    EXPECT_NE(sampler.decode(mid, true).nudge, cooled.nudge);
}

/// The lane filler's edge cases in one graph: a path longer than a Zipf
/// space cap of 16, one-step paths, a two-step path, and nodes of 3 GiB
/// whose path positions pass 2^32.
graph::LeanGraph lane_edge_graph() {
    std::vector<std::uint32_t> lengths;
    for (std::uint32_t n = 0; n < 300; ++n) lengths.push_back(1 + n % 7);
    for (int n = 0; n < 3; ++n) lengths.push_back(0xc0000000u);
    const auto walk = [](std::uint32_t from, std::uint32_t to) {
        std::vector<graph::Handle> w;
        for (std::uint32_t i = from; i < to; ++i) w.push_back(graph::Handle::make(i, i % 5 == 0));
        return w;
    };
    using graph::Handle;
    return graph::LeanGraph::from_parts(
        lengths, {walk(0, 250),
                  {Handle::forward(250)},
                  {Handle::reverse(251)},
                  {Handle::forward(300), Handle::forward(301), Handle::reverse(302),
                   Handle::forward(300), Handle::reverse(301), Handle::forward(302)},
                  walk(252, 292),
                  {Handle::forward(292), Handle::reverse(293)}});
}

/// The Xoshiro256+ state one next() call earlier than `s`.
void xoshiro_step_back(std::uint64_t (&s)[4]) {
    const std::uint64_t s3a = (s[3] >> 45) | (s[3] << 19);
    const std::uint64_t s0 = s[0] ^ s3a;
    // next() left s[1] ^ s[2] = s1 ^ (s1 << 17); undo the shift-xor.
    const std::uint64_t x = s[1] ^ s[2];
    const std::uint64_t s1 = x ^ (x << 17) ^ (x << 34) ^ (x << 51);
    const std::uint64_t s2a = s[1] ^ s1;
    s[0] = s0;
    s[1] = s1;
    s[2] = s2a ^ s0;
    s[3] = s3a ^ s1;
}

TEST(CanonicalDraw, LaneFillerEqualsTheStagedFillInEveryGroup) {
    if (!core::LaneFiller::available()) {
        GTEST_SKIP() << "this CPU lacks AVX-512F, so the lane filler is not built into "
                        "the run and fill_batch_staged fills every block";
    }
    constexpr std::size_t kB = core::kBlock;
    struct Input {
        const char* what;
        graph::LeanGraph g;
        std::uint64_t zipf_space_max;
    };
    const std::vector<Input> inputs = {
        {"pangenome", small_graph(250, 4), core::LayoutConfig{}.zipf_space_max},
        {"edge cases", lane_edge_graph(), 16}};
    // Lane l's length in a group of partial blocks: every length a tile
    // or an 8-term run can end at.
    const std::size_t partial[] = {kB - 1, 1, 63, 64, 65, 7, 500, 8};
    for (const Input& in : inputs) {
        core::LayoutConfig cfg;
        cfg.zipf_space_max = in.zipf_space_max;
        const core::PairSampler sampler(in.g, cfg);
        const core::LaneFiller lanes(sampler);
        rng::Xoshiro256Plus at(20240611);
        bool past_2_32 = false, one_step = false;
        for (std::size_t m = 1; m <= core::LaneFiller::kLanes; ++m) {
            for (const bool full : {true, false}) {
                for (const std::size_t cooling_mask : {0x00u, 0xffu, 0x5au, 0xa5u}) {
                    SCOPED_TRACE(std::string(in.what) + ", group of " + std::to_string(m) +
                                 (full ? " full" : " partial") + " blocks, cooling lanes " +
                                 std::to_string(cooling_mask));
                    // Each block's stream is pre-positioned as the engine's
                    // are: the previous block's start, jumped.
                    std::vector<rng::Xoshiro256Plus> lane_rng, ref_rng;
                    std::vector<core::TermBatch> lane_out(m), ref_out(m);
                    std::vector<core::LaneBlock> group;
                    for (std::size_t l = 0; l < m; ++l) {
                        lane_rng.push_back(at);
                        at.jump_block();
                        lane_out[l].resize(full ? kB : partial[l], false);
                    }
                    ref_rng = lane_rng;
                    for (std::size_t l = 0; l < m; ++l) {
                        group.push_back({&lane_rng[l], ((cooling_mask >> l) & 1) != 0,
                                         &lane_out[l]});
                    }
                    lanes.decode(group);
                    for (std::size_t l = 0; l < m; ++l) {
                        SCOPED_TRACE("lane " + std::to_string(l));
                        const std::size_t n = lane_out[l].size();
                        const std::uint64_t invalid =
                            sampler.resolve_staged(lane_out[l], 0, n);
                        ref_out[l].resize(n, false);
                        const std::uint64_t ref_invalid = sampler.fill_batch_staged(
                            group[l].cooling_iter, ref_rng[l], 0, n, ref_out[l]);
                        const core::TermBatch& a = lane_out[l];
                        const core::TermBatch& b = ref_out[l];
                        EXPECT_EQ(invalid, ref_invalid);
                        EXPECT_EQ(a.node_i, b.node_i);
                        EXPECT_EQ(a.node_j, b.node_j);
                        EXPECT_EQ(a.end_i, b.end_i);
                        EXPECT_EQ(a.end_j, b.end_j);
                        EXPECT_EQ(a.d_ref, b.d_ref);
                        EXPECT_EQ(a.nudge, b.nudge);
                        EXPECT_EQ(a.valid, b.valid);
                        for (std::size_t k = 0; k < n; ++k) {
                            past_2_32 |= b.valid[k] && b.d_ref[k] >= 0x1.0p32;
                            // An unresolved one-step term keeps its record index.
                            one_step |= !b.valid[k] && (b.node_i[k] == 250 || b.node_i[k] == 251);
                        }
                    }
                }
            }
        }
        if (std::string(in.what) == "edge cases") {
            EXPECT_TRUE(past_2_32) << "no term spanned 2^32 nucleotides";
            EXPECT_TRUE(one_step) << "no term fell on a one-step path";
        }
    }

    // The nudge's zero fallback needs w3 bits 16..47 = 2^31 (p = 2^-32 per
    // term), so lane 3's stream is built backwards from the state that
    // draws that w3.
    const core::PairSampler sampler(inputs[0].g, core::LayoutConfig{});
    const core::LaneFiller lanes(sampler);
    std::uint64_t st[4] = {std::uint64_t{1} << 47, 0x243f6a8885a308d3ULL,
                           0x13198a2e03707344ULL, 0};
    for (int k = 0; k < 3; ++k) xoshiro_step_back(st);
    rng::Xoshiro256Plus probe(1);
    probe.set_state(st);
    for (int k = 0; k < 3; ++k) probe.next();
    ASSERT_EQ(core::nudge_from_word(probe.next()), 1e-4);
    std::vector<rng::Xoshiro256Plus> streams(4, rng::Xoshiro256Plus(77));
    streams[3].set_state(st);
    std::vector<core::TermBatch> out(4);
    std::vector<core::LaneBlock> group;
    for (std::size_t l = 0; l < 4; ++l) {
        out[l].resize(1 + l, false);
        group.push_back({&streams[l], false, &out[l]});
    }
    lanes.decode(group);
    sampler.resolve_staged(out[3], 0, 4);
    EXPECT_EQ(out[3].nudge[0], 1e-4);
    core::TermBatch ref;
    rng::Xoshiro256Plus ref_rng(1);
    ref_rng.set_state(st);
    sampler.fill_batch_staged(false, ref_rng, 4, ref);
    EXPECT_EQ(out[3].nudge, ref.nudge);
    EXPECT_EQ(out[3].end_i, ref.end_i);
    EXPECT_EQ(out[3].node_i, ref.node_i);
}

TEST(CanonicalDraw, CoolingHopsFollowTheZipfPmf) {
    // One long linear path of unit-length nodes: away from the ends no hop
    // reflects, so step_j - step_i is exactly the signed Zipf hop.
    const std::uint32_t n_nodes = 4000;
    std::vector<graph::Handle> walk;
    for (std::uint32_t i = 0; i < n_nodes; ++i) walk.push_back(graph::Handle::forward(i));
    const auto g = graph::LeanGraph::from_parts(
        std::vector<std::uint32_t>(n_nodes, 1), {walk});
    core::LayoutConfig cfg;
    cfg.zipf_space_max = 40;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(2024);

    const std::int64_t space = static_cast<std::int64_t>(cfg.zipf_space_max);
    std::vector<double> counts(space, 0.0);
    double forward = 0, total = 0;
    for (int k = 0; k < 400000; ++k) {
        const auto t = sampler.sample(true, rng);
        const std::int64_t i = t.step_i;
        if (i < space || i > static_cast<std::int64_t>(n_nodes) - 1 - space) continue;
        const std::int64_t hop = static_cast<std::int64_t>(t.step_j) - i;
        ASSERT_TRUE(hop != 0 && hop >= -space && hop <= space) << hop;
        counts[std::abs(hop) - 1] += 1;
        forward += hop > 0;
        total += 1;
    }
    double z = 0;
    for (std::int64_t h = 1; h <= space; ++h) z += std::pow(h, -core::kZipfTheta);
    double chi2 = 0;
    for (std::int64_t h = 1; h <= space; ++h) {
        const double expected = total * std::pow(h, -core::kZipfTheta) / z;
        chi2 += (counts[h - 1] - expected) * (counts[h - 1] - expected) / expected;
    }
    // df = 39: the 1e-6 tail starts near 96.
    EXPECT_LT(chi2, 96.0);
    EXPECT_NEAR(forward / total, 0.5, 5.0 / std::sqrt(total));
}

}  // namespace

// Tests for the pluggable update-kernel layer (core/kernels/): the
// KernelRegistry contract, the scalar reference kernel, and the SIMD
// kernel's byte-equivalence — including the lane-group conflict fallback,
// hole handling and all-invalid batches — plus the engine-level
// scalar-vs-simd byte-identity every CPU backend promises.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/term_batch.hpp"
#include "graph/lean_graph.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using core::End;
using core::TermBatch;
using core::TermSample;
using core::XYStore;

graph::LeanGraph small_graph(std::uint64_t backbone = 200, std::uint32_t paths = 4,
                             std::uint64_t seed = 5) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = seed;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

/// A random store over `nodes` nodes with coordinates in a plausible range.
XYStore random_store(std::uint32_t nodes, std::uint64_t seed) {
    core::Layout l;
    l.resize(nodes);
    rng::Xoshiro256Plus rng(seed);
    for (std::uint32_t i = 0; i < nodes; ++i) {
        l[i].sx = static_cast<float>(rng.next_double() * 1000.0);
        l[i].sy = static_cast<float>(rng.next_double() * 1000.0 - 500.0);
        l[i].ex = static_cast<float>(rng.next_double() * 1000.0);
        l[i].ey = static_cast<float>(rng.next_double() * 1000.0 - 500.0);
    }
    return XYStore(l);
}

/// Appends one hand-built valid term.
void push_term(TermBatch& b, std::uint32_t ni, End ei, std::uint32_t nj, End ej,
               double d_ref, double nudge) {
    TermSample t{};
    t.node_i = ni;
    t.node_j = nj;
    t.end_i = ei;
    t.end_j = ej;
    t.d_ref = d_ref;
    t.nudge = nudge;
    t.valid = true;
    b.append(t);
}

/// Appends one hole (valid == 0 slot) whose columns still hold in-bounds
/// node ids, as every fill path guarantees.
void push_hole(TermBatch& b, std::uint32_t stale_node = 0) {
    TermSample t{};
    t.node_i = stale_node;
    t.node_j = stale_node;
    t.valid = false;
    b.append(t);
}

void expect_stores_identical(const XYStore& a, const XYStore& b) {
    ASSERT_EQ(a.node_count(), b.node_count());
    // Byte comparison: -0.0 vs 0.0 or differently-rounded lanes must fail.
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.node_count() * sizeof(core::Segment)),
              0);
}

void expect_layouts_identical(const core::Layout& a, const core::Layout& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].sx, b[i].sx) << i;
        ASSERT_EQ(a[i].sy, b[i].sy) << i;
        ASSERT_EQ(a[i].ex, b[i].ex) << i;
        ASSERT_EQ(a[i].ey, b[i].ey) << i;
    }
}

// --- Registry ---

TEST(KernelRegistry, ListsBuiltinKernels) {
    const auto names = core::KernelRegistry::instance().names();
    const std::set<std::string> have(names.begin(), names.end());
    EXPECT_TRUE(have.count("scalar"));
    EXPECT_TRUE(have.count("simd"));
}

TEST(KernelRegistry, CreateReturnsKernelWithMatchingName) {
    for (const auto& name : core::KernelRegistry::instance().names()) {
        auto k = core::KernelRegistry::instance().create(name);
        ASSERT_NE(k, nullptr) << name;
        EXPECT_EQ(k->name(), name);
        EXPECT_FALSE(k->variant().empty()) << name;
    }
}

TEST(KernelRegistry, UnknownNameIsNullAndMakeKernelThrows) {
    EXPECT_EQ(core::KernelRegistry::instance().create("no-such-kernel"), nullptr);
    EXPECT_FALSE(core::KernelRegistry::instance().contains("no-such-kernel"));
    EXPECT_THROW(core::make_update_kernel("no-such-kernel"),
                 std::invalid_argument);
}

TEST(KernelRegistry, EveryEngineInitRejectsUnknownKernel) {
    const auto g = small_graph(50, 2);
    core::LayoutConfig cfg;
    cfg.kernel = "no-such-kernel";
    for (const auto& backend : core::EngineRegistry::instance().names()) {
        auto engine = core::make_engine(backend);
        EXPECT_THROW(engine->init(g, cfg), std::invalid_argument) << backend;
    }
}

// --- Scalar kernel is the reference loop ---

TEST(ScalarKernel, MatchesHandRolledChainedLoop) {
    const auto g = small_graph(150, 3);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(17);
    TermBatch b;
    sampler.fill_batch_staged(false, rng, 2000, b);

    auto store_a = random_store(static_cast<std::uint32_t>(g.node_count()), 1);
    auto store_b = store_a;

    const auto scalar = core::make_update_kernel("scalar");
    scalar->apply(b, 0.1, store_a);

    float* p = store_b.data();
    for (std::size_t k = 0; k < b.size(); ++k) {
        if (!b.valid[k]) continue;
        const std::size_t ii = XYStore::index(b.node_i[k], b.end_i_of(k));
        const std::size_t jj = XYStore::index(b.node_j[k], b.end_j_of(k));
        const float xi = p[ii], yi = p[ii + 1], xj = p[jj], yj = p[jj + 1];
        const auto d =
            core::sgd_term_update(xi, yi, xj, yj, b.d_ref[k], 0.1, b.nudge[k]);
        p[ii] = xi + d.dx_i;
        p[ii + 1] = yi + d.dy_i;
        p[jj] = xj + d.dx_j;
        p[jj + 1] = yj + d.dy_j;
    }
    expect_stores_identical(store_a, store_b);
}

// --- SIMD kernel byte-equivalence at the batch level ---

TEST(SimdKernel, LaneBoundCoversExactlyTheSigned32BitIndexRange) {
    // The AVX2 gathers read float index 4*node + 2*end + 1 as a signed
    // 32-bit lane; past 2^29 nodes it would go negative, so those stores
    // must take the scalar loop. Checked by value: no such graph is built.
    const std::size_t bound = std::size_t{1} << 29;
    EXPECT_TRUE(core::simd_lanes_fit(0));
    EXPECT_TRUE(core::simd_lanes_fit(bound));
    EXPECT_LE(XYStore::index(static_cast<std::uint32_t>(bound - 1), End::kEnd) + 1,
              std::size_t{0x7fffffff});
    EXPECT_FALSE(core::simd_lanes_fit(bound + 1));
    EXPECT_GT(XYStore::index(static_cast<std::uint32_t>(bound), End::kStart),
              std::size_t{0x7fffffff});
    EXPECT_FALSE(core::simd_lanes_fit(std::size_t{0x7fffffff}));  // pgg kMaxNodes
}

TEST(SimdKernel, MatchesScalarOnSampledBatches) {
    const auto g = small_graph(300, 5);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    const auto scalar = core::make_update_kernel("scalar");
    const auto simd = core::make_update_kernel("simd");

    rng::Xoshiro256Plus rng(23);
    // Sizes straddle the lane widths: remainders of 1..3 exercise the tail.
    for (const std::size_t n : {1u, 2u, 3u, 5u, 64u, 1021u, 4096u}) {
        TermBatch b;
        sampler.fill_batch_staged(true, rng, n, b);
        auto store_scalar = random_store(
            static_cast<std::uint32_t>(g.node_count()), 7 + n);
        auto store_simd = store_scalar;
        scalar->apply(b, 0.25, store_scalar);
        simd->apply(b, 0.25, store_simd);
        expect_stores_identical(store_scalar, store_simd);
    }
}

TEST(SimdKernel, ConflictGroupsFallBackToChainedOrder) {
    // Every slot touches node 3 or node 4: any lane grouping (2- or 4-wide)
    // has duplicate coordinates across different slots, so the vector path
    // must detect the conflict and chain — a wrong kernel that gathers
    // stale coordinates diverges immediately because the terms are designed
    // to move the same points repeatedly.
    TermBatch b;
    rng::Xoshiro256Plus rng(99);
    for (int k = 0; k < 257; ++k) {
        const std::uint32_t ni = 3 + (k % 2);
        const std::uint32_t nj = 3 + ((k + 1) % 2);
        push_term(b, ni, k % 4 < 2 ? End::kStart : End::kEnd, nj,
                  k % 3 ? End::kEnd : End::kStart, 1.0 + (k % 7),
                  core::draw_nudge(rng));
    }
    auto store_scalar = random_store(16, 2024);
    auto store_simd = store_scalar;
    core::make_update_kernel("scalar")->apply(b, 0.5, store_scalar);
    core::make_update_kernel("simd")->apply(b, 0.5, store_simd);
    expect_stores_identical(store_scalar, store_simd);
}

TEST(SimdKernel, IntraTermDuplicateEndpointNeedsNoFallback) {
    // One term may legally reference the same coordinate twice (two steps
    // of one node, same end — d_ref comes from path positions, not
    // coordinates). The second store must win, exactly as in the scalar
    // order. Interleave such terms with ordinary ones so vector groups mix
    // both shapes.
    TermBatch b;
    rng::Xoshiro256Plus rng(5);
    for (int k = 0; k < 64; ++k) {
        if (k % 3 == 0) {
            const std::uint32_t n = 10 + (k % 17);
            push_term(b, n, End::kStart, n, End::kStart, 5.0 + k,
                      core::draw_nudge(rng));
        } else {
            push_term(b, 40 + (k % 20), End::kEnd, 70 + (k % 25), End::kStart,
                      2.0 + k, core::draw_nudge(rng));
        }
    }
    auto store_scalar = random_store(128, 31);
    auto store_simd = store_scalar;
    core::make_update_kernel("scalar")->apply(b, 0.3, store_scalar);
    core::make_update_kernel("simd")->apply(b, 0.3, store_simd);
    expect_stores_identical(store_scalar, store_simd);
}

TEST(SimdKernel, CoincidentPointsTakeTheNudgeBranchIdentically) {
    // Terms whose endpoints start at identical coordinates hit the
    // mag < 1e-9 branch; the vector blend must reproduce the scalar's
    // nudge/abs arithmetic bit for bit (including negative nudges).
    core::Layout l;
    l.resize(32);
    for (std::uint32_t i = 0; i < 32; ++i) {
        l[i].sx = 100.0f;
        l[i].sy = -3.5f;
        l[i].ex = 100.0f;
        l[i].ey = -3.5f;
    }
    XYStore store_scalar(l);
    auto store_simd = store_scalar;

    TermBatch b;
    rng::Xoshiro256Plus rng(77);
    for (int k = 0; k < 33; ++k) {
        push_term(b, static_cast<std::uint32_t>(k % 16), End::kStart,
                  static_cast<std::uint32_t>(16 + k % 16), End::kEnd, 10.0,
                  core::draw_nudge(rng));
    }
    core::make_update_kernel("scalar")->apply(b, 2.0, store_scalar);
    core::make_update_kernel("simd")->apply(b, 2.0, store_simd);
    expect_stores_identical(store_scalar, store_simd);
}

TEST(SimdKernel, HolesAreSkippedUntouched) {
    TermBatch b;
    rng::Xoshiro256Plus rng(13);
    // Holes in every lane position, including a whole group of them.
    for (int k = 0; k < 97; ++k) {
        if (k % 4 == 1 || (k >= 40 && k < 48)) {
            push_hole(b, static_cast<std::uint32_t>(k % 50));
        } else {
            push_term(b, static_cast<std::uint32_t>(k % 50), End::kStart,
                      static_cast<std::uint32_t>(50 + k % 40), End::kEnd,
                      3.0 + (k % 11), core::draw_nudge(rng));
        }
    }
    EXPECT_GT(b.invalid_count(), 0u);
    auto store_scalar = random_store(128, 44);
    auto store_simd = store_scalar;
    core::make_update_kernel("scalar")->apply(b, 0.7, store_scalar);
    core::make_update_kernel("simd")->apply(b, 0.7, store_simd);
    expect_stores_identical(store_scalar, store_simd);
}

TEST(SimdKernel, AllInvalidBatchIsANoOp) {
    TermBatch b;
    for (int k = 0; k < 130; ++k) push_hole(b, static_cast<std::uint32_t>(k % 8));
    EXPECT_EQ(b.invalid_count(), 130u);
    const auto reference = random_store(16, 3);
    for (const char* name : {"scalar", "simd"}) {
        auto store = reference;
        core::make_update_kernel(name)->apply(b, 1.0, store);
        expect_stores_identical(store, reference);
    }
}

// --- TermBatch running invalid counter (O(1) invalid_count) ---

TEST(TermBatch, InvalidCountTracksAppendsAndClear) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(8);
    TermBatch b;
    std::uint64_t skipped = 0;
    for (int k = 0; k < 5000; ++k) {
        const TermSample t = sampler.sample(false, rng);
        skipped += !t.valid;
        b.append(t);
    }
    std::uint64_t recount = 0;
    for (std::size_t k = 0; k < b.size(); ++k) recount += b.valid[k] == 0;
    EXPECT_EQ(b.invalid_count(), recount);
    EXPECT_EQ(b.invalid_count(), skipped);
    b.clear();
    EXPECT_EQ(b.invalid_count(), 0u);
}

TEST(TermBatch, InvalidCountTracksStagedFills) {
    const auto g = small_graph(250, 4);
    core::LayoutConfig cfg;
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(9);
    TermBatch b;
    for (int round = 0; round < 3; ++round) {
        // Each staged fill resizes and remarks every slot; the counter must
        // reset per fill, not accumulate across reuses of the buffer.
        const std::uint64_t skipped =
            sampler.fill_batch_staged(round % 2 == 0, rng, 3000, b);
        std::uint64_t recount = 0;
        for (std::size_t k = 0; k < b.size(); ++k) recount += b.valid[k] == 0;
        EXPECT_EQ(b.invalid_count(), recount) << round;
        EXPECT_EQ(b.invalid_count(), skipped) << round;
    }
}

// --- Engine-level byte-identity: --kernel simd == --kernel scalar ---

TEST(KernelEquivalence, BatchedAndPipelinedEnginesAreByteIdenticalAcrossKernels) {
    // A deliberately tiny node set so SIMD lane groups regularly contain
    // duplicate nodes and the conflict path runs inside a real engine loop.
    const auto g = small_graph(40, 6, 11);
    const char* backend = "cpu-pipelined";
    for (const std::uint32_t threads : {1u, 4u}) {
        core::LayoutConfig cfg;
        cfg.iter_max = 5;
        cfg.steps_per_iter_factor = 3.0;
        cfg.threads = threads;
        cfg.seed = 321;

        cfg.kernel = "scalar";
        auto scalar_engine = core::make_engine(backend);
        scalar_engine->init(g, cfg);
        const auto scalar_run = scalar_engine->run();

        cfg.kernel = "simd";
        auto simd_engine = core::make_engine(backend);
        simd_engine->init(g, cfg);
        const auto simd_run = simd_engine->run();

        SCOPED_TRACE(std::string(backend) + " @ " +
                     std::to_string(threads) + " threads");
        expect_layouts_identical(scalar_run.layout, simd_run.layout);
        EXPECT_EQ(scalar_run.updates, simd_run.updates);
        EXPECT_EQ(scalar_run.skipped, simd_run.skipped);
    }
}

TEST(KernelEquivalence, GpusimHonorsKernelSelectionByteIdentically) {
    const auto g = small_graph(120, 3);
    core::LayoutConfig cfg;
    cfg.iter_max = 2;
    cfg.steps_per_iter_factor = 0.5;

    cfg.kernel = "scalar";
    auto scalar_engine = core::make_engine("gpusim-optimized");
    scalar_engine->init(g, cfg);
    const auto scalar_run = scalar_engine->run();

    cfg.kernel = "simd";
    auto simd_engine = core::make_engine("gpusim-optimized");
    simd_engine->init(g, cfg);
    const auto simd_run = simd_engine->run();

    expect_layouts_identical(scalar_run.layout, simd_run.layout);
}

}  // namespace

#include "core/cpu_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "core/kernels/update_kernel.hpp"
#include "core/node_alloc.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

namespace {

/// The per-term Hogwild loop: sample, update, repeat. Goes through the
/// store's relaxed-atomic accessors because with threads > 1 the workers
/// race on the coordinates by design.
std::uint64_t run_scalar_iter(const PairSampler& sampler, double eta,
                              bool cooling_iter, XYStore& store,
                              rng::Xoshiro256Plus& rng, std::uint64_t steps) {
    std::uint64_t skipped = 0;
    for (std::uint64_t s = 0; s < steps; ++s) {
        const TermSample t = sampler.sample(cooling_iter, rng);
        if (!t.valid) {
            ++skipped;
            continue;
        }
        const float xi = store.load_x(t.node_i, t.end_i);
        const float yi = store.load_y(t.node_i, t.end_i);
        const float xj = store.load_x(t.node_j, t.end_j);
        const float yj = store.load_y(t.node_j, t.end_j);
        const PointDelta d =
            sgd_term_update(xi, yi, xj, yj, t.d_ref, eta, t.nudge);
        store.store_x(t.node_i, t.end_i, xi + d.dx_i);
        store.store_y(t.node_i, t.end_i, yi + d.dy_i);
        store.store_x(t.node_j, t.end_j, xj + d.dx_j);
        store.store_y(t.node_j, t.end_j, yj + d.dy_j);
    }
    return skipped;
}

/// Every worker runs the whole schedule without barriers — one pool
/// dispatch covers the entire run, and a size-0 pool runs the single
/// worker inline (tid 0: the unjumped seed stream, the full share), which
/// is the deterministic one-thread run. The workers share no
/// synchronization point, but each marks iteration boundaries as it
/// crosses them, and the *last* worker past a boundary emits the aggregated
/// IterationStats — so progress reporting and telemetry see this backend
/// too. Emission is pure observation (no worker ever waits on another), and
/// boundary emissions are naturally serialized: iteration i+1 cannot
/// complete before the worker that completed iteration i last has moved
/// on. The hook therefore fires on a worker thread when the pool has
/// workers (see engine.hpp).
LayoutResult run_hogwild(const graph::LeanGraph& g, const LayoutConfig& cfg,
                         XYStore& store, const ProgressHook& hook,
                         ThreadPool& pool) {
    LayoutResult result;
    result.eta_schedule = make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    const PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint32_t n_threads = std::max<std::uint32_t>(1, pool.size());
    const rng::Xoshiro256Plus seeder(cfg.seed);

    std::unique_ptr<std::atomic<std::uint32_t>[]> arrivals;
    std::unique_ptr<std::atomic<std::uint64_t>[]> boundary_skipped;
    if (hook) {
        arrivals = std::make_unique<std::atomic<std::uint32_t>[]>(cfg.iter_max);
        boundary_skipped =
            std::make_unique<std::atomic<std::uint64_t>[]>(cfg.iter_max);
    }
    const auto emit = [&](std::uint32_t iter) {
        IterationStats s;
        s.iteration = iter;
        s.iter_max = cfg.iter_max;
        s.eta = result.eta_schedule[iter];
        s.updates = n_steps;
        s.skipped = boundary_skipped[iter].load(std::memory_order_relaxed);
        hook(s);
    };

    // Each worker adds its share per iteration it actually ran, so a
    // cancelled run reports the updates it performed.
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> skipped{0};
    const auto t0 = std::chrono::steady_clock::now();
    pool.run([&](std::uint32_t tid) {
        rng::Xoshiro256Plus rng = seeder;
        for (std::uint32_t j = 0; j < tid; ++j) rng.jump();
        const std::uint64_t share = shard_share(n_steps, n_threads, tid);
        std::uint64_t done = 0;
        std::uint64_t sk = 0;
        for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
            if (cfg.cancel_requested()) break;
            const std::uint64_t it_sk =
                run_scalar_iter(sampler, result.eta_schedule[iter],
                                cfg.cooling(iter), store, rng, share);
            done += share;
            sk += it_sk;
            if (hook) {
                boundary_skipped[iter].fetch_add(it_sk,
                                                 std::memory_order_relaxed);
                if (arrivals[iter].fetch_add(1, std::memory_order_acq_rel) +
                        1 == n_threads) {
                    emit(iter);
                }
            }
        }
        updates.fetch_add(done, std::memory_order_relaxed);
        skipped.fetch_add(sk, std::memory_order_relaxed);
    });
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.updates = updates.load();
    result.skipped = skipped.load();
    result.layout = store.snapshot();
    return result;
}

class CpuLayoutEngine final : public LayoutEngine {
public:
    std::string_view name() const noexcept override { return "cpu-soa"; }

protected:
    void do_init() override {
        // The per-term loop never drains a batch through a kernel, but it
        // still validates cfg.kernel up front like every CPU engine:
        // an unknown name throws before any work starts.
        // resolve_placement likewise validates cfg.numa.
        make_update_kernel(cfg_.kernel);
        // The pool outlives every run(): workers are spawned once per
        // init(), never inside the iteration loop. It is recreated when the
        // size *or* the placement plan changes — repinning live workers is
        // not supported.
        const std::uint32_t n = cfg_.threads > 1 ? cfg_.threads : 0;
        place_ = resolve_placement(cfg_, n);
        const std::string key = place_.key();
        if (!pool_ || pool_->size() != n || pool_key_ != key) {
            pool_ = std::make_unique<ThreadPool>(n, place_.plan);
            pool_key_ = key;
        }
    }

    LayoutResult do_run(const LayoutConfig& cfg) override {
        const Layout initial = make_initial_layout(*graph_, cfg);
        ProgressHook hook;
        if (has_progress_hook()) {
            hook = [this](const IterationStats& s) { emit_progress(s); };
        }
        XYStore store;
        if (place_.memory_active()) {
            NodeAllocator alloc(place_, *pool_);
            store.load(initial, alloc);
        } else {
            store.load(initial);
        }
        return run_hogwild(*graph_, cfg, store, hook, *pool_);
    }

private:
    std::unique_ptr<ThreadPool> pool_;
    PlacementContext place_;
    std::string pool_key_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_cpu_engine() {
    return std::make_unique<CpuLayoutEngine>();
}

}  // namespace pgl::core

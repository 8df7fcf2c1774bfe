// The ordered CPU engine ("cpu-pipelined"): PG-SGD with sampling and
// position updates overlapped. The paper's Sec. III observation is that the
// layout loop is sampling-bound — most of an update's cost is drawing the
// term (alias tables, Zipf hop, step lookups), not the arithmetic. The
// engine therefore splits the two halves of the loop across threads:
//
//   producers (max(1, threads) persistent pool workers)
//       each owns a jumped Xoshiro256+ stream (shard tid = seed stream
//       jumped tid times) and fills its shard's TermBatch for slice N+1
//       with PairSampler::fill_batch_staged;
//   consumer (the calling thread)
//       applies slice N's batches through the configured UpdateKernel
//       (cfg.kernel: "scalar" or the byte-identical "simd"), in fixed
//       shard order, while the producers sample ahead.
//
// Double buffering means neither side ever waits on a batch the other is
// touching; the pool's dispatch/wait edges order the hand-off. Because the
// consumer is the only thread that writes coordinates and applies batches
// in a deterministic order, a fixed (seed, threads) pair reproduces the
// layout byte-for-byte — unlike the Hogwild engine, whose result depends
// on scheduler interleaving.
//
// Every term takes exactly four words of its shard's stream — w0 the path,
// w1 step_i, w2 step_j or the Zipf hop, w3 the coins and the nudge
// (core/sampling.hpp) — so the slice size never changes which terms a
// shard draws. At one thread the single shard is the unjumped seed stream
// applied in draw order: the bytes of cpu-soa at one thread.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/node_alloc.hpp"
#include "core/schedule.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

namespace {

/// Adaptive slice sizing: at least 1024 terms (amortizes the pool
/// dispatch; keeps a slice's updates cache-hot), at most 64Ki terms
/// (bounds buffer memory at any thread count). Two slices per iteration is the minimum
/// that still overlaps — the producers fill the second half-iteration
/// while the consumer applies the first — and it keeps pool dispatches per
/// iteration constant, so the dispatch latency never grows with the
/// schedule.
constexpr std::size_t kMinSlice = 1024;
constexpr std::size_t kMaxSlice = std::size_t{1} << 16;
constexpr std::uint64_t kTargetSlicesPerIter = 2;

/// Per-producer skip counter, cache-line padded so producers on different
/// cores never false-share while sampling.
struct alignas(64) ShardCounter {
    std::uint64_t skipped = 0;
};

/// One shard per pool worker.
LayoutResult run_pipelined(const graph::LeanGraph& g, const LayoutConfig& cfg,
                           XYStore& store, const UpdateKernel& kern,
                           ThreadPool& pool, const ProgressHook& hook) {
    LayoutResult result;
    result.eta_schedule = make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    const PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint32_t n_shards = std::max<std::uint32_t>(1, pool.size());

    std::vector<std::uint64_t> shares(n_shards);
    for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
        shares[tid] = shard_share(n_steps, n_shards, tid);
    }
    // shard_share hands the remainder to the first shards, so shard 0 has
    // the largest share and bounds the slice count for everyone.
    const std::uint64_t max_share = shares[0];
    const std::size_t slice = std::clamp<std::size_t>(
        static_cast<std::size_t>(max_share / kTargetSlicesPerIter), kMinSlice,
        kMaxSlice);
    const std::uint64_t n_slices =
        (max_share + slice - 1) / static_cast<std::uint64_t>(slice);

    // Shard tid's share of slice s (trailing slices of small shards are 0).
    const auto take = [&](std::uint32_t tid, std::uint64_t s) -> std::size_t {
        const std::uint64_t begin =
            std::min<std::uint64_t>(s * slice, shares[tid]);
        const std::uint64_t end = std::min<std::uint64_t>(begin + slice, shares[tid]);
        return static_cast<std::size_t>(end - begin);
    };

    // Stream tid is the seed stream jumped tid times (stream 0 is cpu-soa's
    // one-thread stream).
    std::vector<rng::Xoshiro256Plus> rngs;
    rngs.reserve(n_shards);
    rng::Xoshiro256Plus seeder(cfg.seed);
    for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
        rngs.push_back(seeder);
        for (std::uint32_t j = 0; j < tid; ++j) rngs.back().jump();
    }

    // Double buffer: producers fill bufs[1 - cur] while the consumer
    // applies bufs[cur]. No reserve: the first fill sizes exactly the
    // apply columns (reserve() would also allocate the six replay columns
    // it never writes), and the capacity persists. Shard tid's buffers are only ever written by producer tid,
    // so with pinned workers first touch lands them on the producer's own
    // node — no explicit placement needed.
    std::vector<TermBatch> bufs[2];
    for (auto& side : bufs) side.resize(n_shards);
    std::vector<ShardCounter> fill_skipped(n_shards);

    std::uint64_t total_skipped = 0;
    std::uint32_t iters_done = cfg.iter_max;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        // Cooperative cancel, checked only at the iteration boundary where
        // no fill job is in flight (the slice loop below always wait()s
        // before its last apply), so the pool is quiescent when we bail.
        if (cfg.cancel_requested()) {
            iters_done = iter;
            break;
        }
        const double eta = result.eta_schedule[iter];
        const bool cooling_iter = cfg.cooling(iter);

        // Sampling depends on the iteration only through the cooling flag,
        // never on eta or the coordinates, so producers may run a full
        // slice ahead of the consumer within the iteration.
        const auto fill_job = [&](int buf, std::uint64_t s) {
            return [&, buf, s](std::uint32_t tid) {
                fill_skipped[tid].skipped += sampler.fill_batch_staged(
                    cooling_iter, rngs[tid], take(tid, s), bufs[buf][tid]);
            };
        };

        int cur = 0;
        pool.run(fill_job(cur, 0));
        for (std::uint64_t s = 0; s < n_slices; ++s) {
            const bool more = s + 1 < n_slices;
            if (more) pool.launch(fill_job(1 - cur, s + 1));
            for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
                kern.apply(bufs[cur][tid], eta, store);
            }
            if (more) pool.wait();
            cur = 1 - cur;
        }

        std::uint64_t iter_skipped = 0;
        for (auto& c : fill_skipped) {
            iter_skipped += c.skipped;
            c.skipped = 0;
        }
        total_skipped += iter_skipped;
        if (hook) {
            IterationStats s;
            s.iteration = iter;
            s.iter_max = cfg.iter_max;
            s.eta = eta;
            s.updates = n_steps;
            s.skipped = iter_skipped;
            hook(s);
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.updates = static_cast<std::uint64_t>(iters_done) * n_steps;
    result.skipped = total_skipped;
    result.layout = store.snapshot();
    return result;
}

class OrderedLayoutEngine final : public LayoutEngine {
public:
    std::string_view name() const noexcept override { return "cpu-pipelined"; }

protected:
    void do_init() override {
        // Resolving the kernel here also validates cfg.kernel up front
        // (resolve_placement does the same for cfg.numa).
        kernel_ = make_update_kernel(cfg_.kernel);
        // There is always at least one producer, so even a
        // single-threaded config overlaps sampling with the consumer's
        // updates. Workers persist across run() calls — nothing is spawned
        // in the iteration loop. The pool is recreated when the placement
        // plan changes, not just the size: live workers cannot be
        // repinned.
        const std::uint32_t n = std::max<std::uint32_t>(1, cfg_.threads);
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
        XYStore s;
        if (place_.memory_active()) {
            NodeAllocator alloc(place_, *pool_);
            s.load(initial, alloc);
        } else {
            s.load(initial);
        }
        return run_pipelined(*graph_, cfg, s, *kernel_, *pool_, hook);
    }

private:
    std::unique_ptr<const UpdateKernel> kernel_;
    std::unique_ptr<ThreadPool> pool_;
    PlacementContext place_;
    std::string pool_key_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_pipelined_engine() {
    return std::make_unique<OrderedLayoutEngine>();
}

}  // namespace pgl::core

// The ordered CPU engines ("cpu-batched" and "cpu-pipelined"): PG-SGD with
// sampling and position updates overlapped. The paper's Sec. III
// observation is that the layout loop is sampling-bound — most of an
// update's cost is drawing the term (alias table, Zipf hop, step lookups),
// not the arithmetic. Both engines therefore split the two halves of the
// loop across threads:
//
//   producers (persistent pool workers; inline on a size-0 pool)
//       each owns a jumped Xoshiro256+ stream (shard tid = seed stream
//       jumped tid times) and fills its shard's TermBatch for slice N+1;
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
// The two engines differ only in what is fixed per engine, never per term:
//
//   cpu-batched    the sequential PairSampler::fill_batch in slices of
//                  kBatchSliceTerms; one shard per thread and no pool
//                  thread at all for a single-threaded config, where it
//                  replays cpu-soa's PRNG stream bit for bit;
//   cpu-pipelined  the staged, prefetching fill_batch_staged in adaptive
//                  slices on max(1, threads) producers, so even one thread
//                  overlaps sampling with the updates.
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

/// Adaptive slice sizing (cpu-pipelined): at least the shared batch slice
/// (keeps a slice's updates cache-hot), at most 64Ki terms (bounds buffer
/// memory at any thread count). Two slices per iteration is the minimum
/// that still overlaps — the producers fill the second half-iteration
/// while the consumer applies the first — and it keeps pool dispatches per
/// iteration constant, so the dispatch latency never grows with the
/// schedule.
constexpr std::size_t kMinSlice = kBatchSliceTerms;
constexpr std::size_t kMaxSlice = std::size_t{1} << 16;
constexpr std::uint64_t kTargetSlicesPerIter = 2;

/// Per-producer skip counter, cache-line padded so producers on different
/// cores never false-share while sampling.
struct alignas(64) ShardCounter {
    std::uint64_t skipped = 0;
};

/// `staged` selects cpu-pipelined's sampler and slice size over
/// cpu-batched's (see the file header). One shard per pool worker; a
/// size-0 pool runs the single shard inline.
LayoutResult run_pipelined(const graph::LeanGraph& g, const LayoutConfig& cfg,
                           XYStore& store, const UpdateKernel& kern,
                           ThreadPool& pool, const ProgressHook& hook,
                           bool staged) {
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
    const std::size_t slice =
        staged ? std::clamp<std::size_t>(
                     static_cast<std::size_t>(max_share / kTargetSlicesPerIter),
                     kMinSlice, kMaxSlice)
               : kBatchSliceTerms;
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
    // applies bufs[cur]. No reserve: the first fill sizes the buffer (the
    // staged fill exactly the apply columns — reserve() would also
    // allocate the six replay columns it never writes), and the capacity
    // persists. Shard tid's buffers are only ever written by producer tid,
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
                TermBatch& batch = bufs[buf][tid];
                if (staged) {
                    fill_skipped[tid].skipped += sampler.fill_batch_staged(
                        cooling_iter, rngs[tid], take(tid, s), batch);
                } else {
                    batch.clear();
                    fill_skipped[tid].skipped += sampler.fill_batch(
                        cooling_iter, rngs[tid], take(tid, s), batch);
                }
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
    explicit OrderedLayoutEngine(bool staged) : staged_(staged) {}

    std::string_view name() const noexcept override {
        return staged_ ? "cpu-pipelined" : "cpu-batched";
    }

protected:
    void do_init() override {
        // Resolving the kernel here also validates cfg.kernel up front
        // (resolve_placement does the same for cfg.numa).
        kernel_ = make_update_kernel(cfg_.kernel);
        // cpu-pipelined always has at least one producer, so even a
        // single-threaded config overlaps sampling with the consumer's
        // updates; cpu-batched runs one thread inline. Workers persist
        // across run() calls — nothing is spawned in the iteration loop.
        // The pool is recreated when the placement plan changes, not just
        // the size: live workers cannot be repinned.
        const std::uint32_t n = staged_ ? std::max<std::uint32_t>(1, cfg_.threads)
                                        : (cfg_.threads > 1 ? cfg_.threads : 0);
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
        return run_pipelined(*graph_, cfg, s, *kernel_, *pool_, hook, staged_);
    }

private:
    bool staged_;
    std::unique_ptr<const UpdateKernel> kernel_;
    std::unique_ptr<ThreadPool> pool_;
    PlacementContext place_;
    std::string pool_key_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_batched_engine() {
    return std::make_unique<OrderedLayoutEngine>(/*staged=*/false);
}

std::unique_ptr<LayoutEngine> make_pipelined_engine() {
    return std::make_unique<OrderedLayoutEngine>(/*staged=*/true);
}

}  // namespace pgl::core

// The block CPU engine: PG-SGD with sampling spread over every engine
// thread. The paper's Sec. III observation is that the layout loop is
// sampling-bound — most of an update's cost is drawing the term (alias
// tables, Zipf hop, step lookups), not the arithmetic — and
// data-parallel. One loop serves both CPU registry names, and the name
// fixes how the sampled terms are applied (the apply policy):
//
//   shards (max(1, threads) of them)
//       shard tid draws from a jumped Xoshiro256+ stream (the seed stream
//       jumped tid times) into its own TermBatch per slice. A shard's slice
//       is cut into blocks of kBlock terms, and block b starts at the
//       slice's stream position jumped b times by jump_block() — the
//       paper's pre-positioned random states (Sec. V-B2) — so any thread
//       can fill any block with the slot-range PairSampler::fill_batch_staged;
//   samplers (the max(1, threads) persistent pool workers plus the caller)
//       claim the blocks of a slice from one atomic counter;
//   ordered ("cpu-pipelined", and "cpu-soa" at one thread)
//       the samplers fill slice N+1 while the calling thread applies slice
//       N's batches through the configured UpdateKernel (cfg.kernel:
//       "scalar" or the byte-identical "simd"), in fixed shard order, then
//       claims whatever blocks of slice N+1 are still left. Double
//       buffering means no batch is sampled while it is applied; the
//       pool's dispatch/wait edges order the hand-off. A term's words, its
//       slot and the apply order depend only on (seed, threads), never on
//       which thread filled its block, and the caller is the only thread
//       that writes coordinates, so a fixed (seed, threads) pair
//       reproduces the layout byte-for-byte;
//   hogwild ("cpu-soa" at threads >= 2: odgi's loop, paper Sec. III-A)
//       every sampler applies each block as soon as it has filled it, term
//       by term through the store's relaxed-atomic accessors, racing the
//       other samplers without locks — the graph's extreme sparsity makes
//       collisions harmless. The pool's wait at the end of each slice is
//       the only barrier, so all samplers apply a slice with one eta. The
//       bytes depend on scheduler interleaving. It is slower than ordered
//       on the whole-genome workload; it is kept as the paper's CPU
//       baseline, which bench_fig4_cpu_scaling scales over threads. The
//       counter pipelined.hogwild_blocks counts its blocks (0 under ordered).
//
// Every term takes exactly four words of its shard's stream — w0 the path,
// w1 step_i, w2 step_j or the Zipf hop, w3 the coins and the nudge
// (core/sampling.hpp) — so neither the slice nor the block size changes
// which terms a shard draws. At one thread the single shard is the
// unjumped seed stream applied in draw order, under either name.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/schedule.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro256.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::core {

namespace {

/// Adaptive slice sizing: at least 1024 terms (amortizes the pool
/// dispatch; keeps a slice's updates cache-hot), at most 64Ki terms
/// (bounds buffer memory at any thread count). Two slices per iteration is the minimum
/// that still overlaps — the samplers fill the second half-iteration
/// while the caller applies the first — and it keeps pool dispatches per
/// iteration constant, so the dispatch latency never grows with the
/// schedule.
constexpr std::size_t kMinSlice = 1024;
constexpr std::size_t kMaxSlice = std::size_t{1} << 16;
constexpr std::uint64_t kTargetSlicesPerIter = 2;

/// One block of a shard's slice: up to kBlock slots of the shard's batch
/// and a stream positioned at the block's first word. After the fill the
/// stream sits at the block's end and `skipped` holds its degenerate
/// terms. Cache-line aligned: blocks are filled by different threads.
struct alignas(64) Block {
    rng::Xoshiro256Plus rng;
    std::uint32_t shard = 0;
    std::size_t begin = 0, n = 0;
    std::uint64_t skipped = 0;
};

enum class ApplyPolicy { kOrdered, kHogwild };

/// The hogwild apply of one filled block: slots [begin, end) in slot order.
void apply_slots_relaxed(const TermBatch& b, std::size_t begin,
                         std::size_t end, double eta, XYStore& store) {
    for (std::size_t k = begin; k < end; ++k) {
        if (!b.valid[k]) continue;
        apply_term_relaxed(store, b.node_i[k], b.end_i_of(k), b.node_j[k],
                           b.end_j_of(k), b.d_ref[k], eta, b.nudge[k]);
    }
}

/// One shard per pool worker.
LayoutResult run_blocks(const graph::LeanGraph& g, const LayoutConfig& cfg,
                        XYStore& store, const UpdateKernel& kern,
                        ThreadPool& pool, ApplyPolicy policy,
                        const ProgressHook& hook) {
    LayoutResult result;
    result.eta_schedule = make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    const PairSampler sampler(g, cfg);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint32_t n_shards = std::max<std::uint32_t>(1, pool.size());
    // One shard has nothing to race with: hogwild at one thread is ordered.
    const bool hogwild = policy == ApplyPolicy::kHogwild && n_shards > 1;

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

    // rngs[tid] is shard tid's stream at the start of its next slice:
    // the seed stream jumped tid times.
    std::vector<rng::Xoshiro256Plus> rngs;
    rngs.reserve(n_shards);
    rng::Xoshiro256Plus seeder(cfg.seed);
    for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
        rngs.push_back(seeder);
        for (std::uint32_t j = 0; j < tid; ++j) rngs.back().jump();
    }

    // Double buffer: under ordered, the samplers fill slice g + 1 into
    // bufs[(g + 1) % 2] while the caller applies slice g from bufs[g % 2].
    // Hogwild applies each slice before the next is planned, so it uses one
    // side. Each shard's batches are sized once for its largest slice
    // (slice 0), so later resizes stay within the capacity. Only the apply
    // columns are sized (the six replay columns stay empty).
    const std::size_t n_sides = hogwild ? 1 : 2;
    std::vector<TermBatch> bufs[2];
    const auto side_of = [&](std::uint64_t g) -> std::vector<TermBatch>& {
        return bufs[g % n_sides];
    };
    for (std::size_t k = 0; k < n_sides; ++k) {
        bufs[k].resize(n_shards);
        for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
            bufs[k][tid].resize(take(tid, 0), false);
        }
    }

    // The blocks of the slice being sampled, and the counter that hands
    // them out.
    std::vector<Block> blocks;
    std::atomic<std::size_t> next_block{0};
    const auto plan = [&](std::vector<TermBatch>& side, std::uint64_t s) {
        blocks.clear();
        for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
            const std::size_t n = take(tid, s);
            side[tid].resize(n, false);
            rng::Xoshiro256Plus at = rngs[tid];
            for (std::size_t begin = 0; begin < n; begin += kBlock) {
                if (begin > 0) at.jump_block();
                Block& b = blocks.emplace_back();
                b.rng = at;
                b.shard = tid;
                b.begin = begin;
                b.n = std::min(kBlock, n - begin);
            }
        }
        next_block.store(0, std::memory_order_relaxed);
    };
    const telemetry::Counter hogwild_blocks =
        telemetry::Registry::instance().counter("pipelined.hogwild_blocks");
    // Fills blocks until none is left; returns how many this thread took.
    // Under hogwild the filler applies each block at once, with `eta`.
    const auto drain = [&](std::vector<TermBatch>& side, bool cooling_iter,
                           double eta) {
        std::size_t taken = 0;
        for (std::size_t k = next_block.fetch_add(1, std::memory_order_relaxed);
             k < blocks.size();
             k = next_block.fetch_add(1, std::memory_order_relaxed)) {
            Block& b = blocks[k];
            b.skipped = sampler.fill_batch_staged(cooling_iter, b.rng, b.begin,
                                                  b.n, side[b.shard]);
            if (hogwild) {
                apply_slots_relaxed(side[b.shard], b.begin, b.begin + b.n,
                                    eta, store);
            }
            ++taken;
        }
        if (hogwild) hogwild_blocks.add(taken);
        return taken;
    };
    // After every block is in: count the holes, and move each shard's
    // stream to the end of its last block.
    const auto harvest = [&](std::vector<TermBatch>& side) {
        std::uint64_t skipped = 0;
        for (const Block& b : blocks) {
            side[b.shard].add_invalid(b.skipped);
            skipped += b.skipped;
            rngs[b.shard] = b.rng;  // blocks are in stream order per shard
        }
        return skipped;
    };
    const telemetry::Counter consumer_blocks =
        telemetry::Registry::instance().counter("pipelined.consumer_blocks");

    // The run is one sequence of slices: slice g is slice g % n_slices of
    // iteration g / n_slices. Sampling reads the iteration only through
    // its cooling flag, never eta or the coordinates, so under ordered the
    // samplers run one slice ahead of the caller across iteration
    // boundaries too. Slice g + 1 is planned only once slice g is sampled:
    // its blocks start where slice g's streams ended.
    const std::uint64_t n_total = std::uint64_t{cfg.iter_max} * n_slices;
    std::vector<std::uint64_t> iter_skipped(cfg.iter_max, 0);
    const auto start_fill = [&](std::uint64_t g) {
        const auto iter = static_cast<std::uint32_t>(g / n_slices);
        plan(side_of(g), g % n_slices);
        const bool cooling_iter = cfg.cooling(iter);
        const double eta = result.eta_schedule[iter];
        pool.launch([&, g, cooling_iter, eta](std::uint32_t) {
            drain(side_of(g), cooling_iter, eta);
        });
    };
    const auto finish_fill = [&](std::uint64_t g) {
        const auto iter = static_cast<std::uint32_t>(g / n_slices);
        consumer_blocks.add(
            drain(side_of(g), cfg.cooling(iter), result.eta_schedule[iter]));
        pool.wait();
        iter_skipped[iter] += harvest(side_of(g));
    };

    std::uint32_t iters_done = cfg.iter_max;
    const auto t0 = std::chrono::steady_clock::now();
    if (n_total > 0 && !hogwild) {
        start_fill(0);
        finish_fill(0);
    }
    for (std::uint64_t g = 0; g < n_total; ++g) {
        const auto iter = static_cast<std::uint32_t>(g / n_slices);
        // Cooperative cancel at iteration boundaries. No fill is in flight
        // here (each slice's fill is finished before its apply), so the
        // pool is quiescent when we bail.
        if (g % n_slices == 0 && cfg.cancel_requested()) {
            iters_done = iter;
            break;
        }
        const double eta = result.eta_schedule[iter];
        if (hogwild) {
            // Fill and apply slice g; the pool's wait is the barrier.
            start_fill(g);
            finish_fill(g);
        } else {
            const bool more = g + 1 < n_total;
            if (more) start_fill(g + 1);
            for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
                kern.apply(side_of(g)[tid], eta, store);
            }
            if (more) finish_fill(g + 1);
        }

        if (hook && (g + 1) % n_slices == 0) {
            IterationStats s;
            s.iteration = iter;
            s.iter_max = cfg.iter_max;
            s.eta = eta;
            s.updates = n_steps;
            s.skipped = iter_skipped[iter];
            hook(s);
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    std::uint64_t total_skipped = 0;
    for (std::uint32_t iter = 0; iter < iters_done; ++iter) {
        total_skipped += iter_skipped[iter];
    }
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.updates = static_cast<std::uint64_t>(iters_done) * n_steps;
    result.skipped = total_skipped;
    result.layout = store.snapshot();
    return result;
}

class BlockLayoutEngine final : public LayoutEngine {
public:
    BlockLayoutEngine(std::string_view name, ApplyPolicy policy)
        : name_(name), policy_(policy) {}

    std::string_view name() const noexcept override { return name_; }

protected:
    void do_init() override {
        // Resolving the kernel here also validates cfg.kernel up front.
        kernel_ = make_update_kernel(cfg_.kernel);
        // There is always at least one pool worker, so even a
        // single-threaded config samples on two threads while the caller
        // also applies. Workers persist across run() calls — nothing is
        // spawned in the iteration loop — and the pool is rebuilt only when
        // its size changes.
        const std::uint32_t n = std::max<std::uint32_t>(1, cfg_.threads);
        if (!pool_ || pool_->size() != n) {
            pool_ = std::make_unique<ThreadPool>(n);
        }
    }

    LayoutResult do_run(const LayoutConfig& cfg) override {
        const Layout initial = make_initial_layout(*graph_, cfg);
        ProgressHook hook;
        if (has_progress_hook()) {
            hook = [this](const IterationStats& s) { emit_progress(s); };
        }
        XYStore s(initial);
        return run_blocks(*graph_, cfg, s, *kernel_, *pool_, policy_, hook);
    }

private:
    std::string_view name_;
    ApplyPolicy policy_;
    std::unique_ptr<const UpdateKernel> kernel_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_cpu_engine() {
    return std::make_unique<BlockLayoutEngine>("cpu-soa", ApplyPolicy::kHogwild);
}

std::unique_ptr<LayoutEngine> make_pipelined_engine() {
    return std::make_unique<BlockLayoutEngine>("cpu-pipelined",
                                               ApplyPolicy::kOrdered);
}

}  // namespace pgl::core

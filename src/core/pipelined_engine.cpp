// The block CPU engine: PG-SGD with sampling spread over every engine
// thread. The paper's Sec. III observation is that the layout loop is
// sampling-bound — most of an update's cost is drawing the term (alias
// tables, Zipf hop, step lookups), not the arithmetic — and
// data-parallel. This is the one CPU engine ("cpu-pipelined"): every
// thread samples, and the calling thread applies in a fixed order.
//
// A run is one stream of blocks of kBlock terms, in a fixed apply order:
// iteration by iteration, slice by slice, shard by shard, block by block.
//
//   shards (max(1, threads) of them)
//       shard tid draws from a jumped Xoshiro256+ stream (the seed stream
//       jumped tid times). Each iteration hands every shard its share of
//       the terms in slices; the slice size only fixes how the shards'
//       blocks interleave in the apply order. A block starts where the
//       shard's previous block ended: jump_block() past a full block — the
//       paper's pre-positioned random states (Sec. V-B2) — and at most
//       4092 next() calls past the partial block that ends a slice. So
//       any thread can fill any block, and a term's words depend only on
//       (seed, threads);
//   the ring
//       the calling thread positions each block's stream (plans it) and
//       publishes it into a ring of 16 x (shards + 1) slots, one kBlock
//       batch each, eight blocks at a time; slot k % R is planned again
//       only once block k is passed. One launch per run starts the
//       samplers — the max(1, threads) persistent pool workers — which
//       claim up to eight consecutive planned blocks at a time from one
//       counter with the caller, fill them and mark each slot ready as
//       soon as its block is filled. An idle thread polls briefly, then
//       blocks on an atomic wait;
//   the fillers
//       a claim of three or more blocks is filled by the lane filler
//       (core/lane_sampler.hpp) on a CPU with AVX-512F: one lane per
//       block's stream, the blocks of one claim may belong to different
//       iterations and differ in length. Any other claim, and every claim
//       on another CPU, is filled block by block through the slot-range
//       PairSampler::fill_batch_staged. Both write the same bytes, and
//       the counter pipelined.lane_blocks counts the lanes' blocks;
//   the apply
//       the caller applies block k through the configured UpdateKernel
//       (cfg.kernel: "scalar" or the byte-identical "simd") the moment its
//       slot is ready, and fills claimable blocks while it waits: at one
//       thread a claim as large as a sampler's, since it is one of the
//       two fillers; with more threads at most one block per wait, since
//       its applies are then the run's critical path.
//       The samplers run up to a ring ahead, across iteration boundaries
//       too (sampling reads the iteration only through its cooling flag).
//       The caller is the only thread that writes coordinates and the
//       apply order is fixed, so a fixed (seed, threads) pair reproduces
//       the layout byte-for-byte, whichever thread filled which block.
//       (The paper's CPU baseline, odgi's Hogwild loop of Sec. III-A,
//       lets every thread apply its own terms racily instead; that is
//       slower here on the whole-genome workload and its bytes depend on
//       scheduling, so this engine does not offer it.)
//
// Every term takes exactly four words of its shard's stream — w0 the path,
// w1 step_i, w2 step_j or the Zipf hop, w3 the coins and the nudge
// (core/sampling.hpp) — so neither the slice nor the block size changes
// which terms a shard draws. At one thread the single shard is the
// unjumped seed stream applied in draw order.
//
// Attribution counters, flushed once per iteration: engine.sample_ns (fill
// time summed over every sampler; a lane group's shared pass 1 is split
// evenly over its blocks), engine.apply_ns (the caller's applies),
// engine.stall_ns (the caller's wait for a block that is not ready yet),
// pipelined.consumer_blocks (blocks the caller filled) and
// pipelined.lane_blocks (blocks the lanes filled).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/lane_sampler.hpp"
#include "core/schedule.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro256.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::core {

namespace {

/// Adaptive slice sizing: at least 1024 terms, at most 64Ki, about two
/// slices per iteration. The slice no longer bounds any buffer; it is kept
/// because it fixes how the shards' blocks interleave in the apply order
/// at threads >= 2, which the golden digests pin.
constexpr std::size_t kMinSlice = 1024;
constexpr std::size_t kMaxSlice = std::size_t{1} << 16;
constexpr std::uint64_t kTargetSlicesPerIter = 2;

/// Ring slots per sampler: how far the samplers may run ahead of the
/// caller's apply.
constexpr std::size_t kSlotsPerSampler = 16;

/// Most blocks one claim takes: one lane filler group.
constexpr std::uint64_t kGroup = LaneFiller::kLanes;

/// Fewest claimed blocks worth the lanes: a group costs the same however
/// many of its lanes hold a block, so smaller claims take the scalar fill.
constexpr std::uint64_t kMinLaneGroup = 3;

/// How long a thread with nothing to do polls before it blocks. A block
/// takes tens of microseconds to fill, so a short poll catches the next
/// hand-off; a longer one would burn a core other jobs could use.
constexpr std::chrono::microseconds kIdleSpin{20};

/// Waits until `word` no longer holds `seen`: polls for kIdleSpin, then
/// blocks in atomic wait.
void idle_wait(const std::atomic<std::uint32_t>& word, std::uint32_t seen) {
    const auto until = std::chrono::steady_clock::now() + kIdleSpin;
    while (word.load(std::memory_order_acquire) == seen) {
        if (std::chrono::steady_clock::now() >= until) {
            word.wait(seen, std::memory_order_acquire);
            return;
        }
        std::this_thread::yield();
    }
}

/// One block of the apply order: its shard and its term count.
struct BlockShape {
    std::uint32_t shard;
    std::uint32_t n;
};

/// One ring slot. The planner writes the batch size, stream and iteration
/// before it publishes the block; the filler writes the terms, `skipped`
/// and `sample_ns`, then stores `ready`; the caller reads them after it
/// sees `ready`. Cache-line aligned: slots are filled by different threads.
struct alignas(64) Slot {
    TermBatch batch;
    rng::Xoshiro256Plus rng{0};  ///< at the block's first word
    std::uint32_t iter = 0;
    std::uint64_t skipped = 0;
    std::uint64_t sample_ns = 0;
    /// Low 32 bits of (block + 1) once the block is filled. The slot's
    /// previous block was R earlier, so the wrap never makes the two look
    /// alike.
    std::atomic<std::uint32_t> ready{0};
};

/// One shard per pool worker.
LayoutResult run_blocks(const graph::LeanGraph& g, const LayoutConfig& cfg,
                        XYStore& store, const UpdateKernel& kern,
                        ThreadPool& pool, const ProgressHook& hook) {
    LayoutResult result;
    result.eta_schedule = make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    const PairSampler sampler(g, cfg);
    std::optional<LaneFiller> lanes;
    if (LaneFiller::available()) lanes.emplace(sampler);
    const std::uint64_t n_steps = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint32_t n_shards = std::max<std::uint32_t>(1, pool.size());

    // One iteration's blocks in apply order. shard_share hands the
    // remainder to the first shards, so shard 0 has the largest share and
    // bounds the slice count for everyone; trailing slices of small shards
    // are empty.
    std::vector<BlockShape> shapes;
    {
        std::vector<std::uint64_t> shares(n_shards);
        for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
            shares[tid] = shard_share(n_steps, n_shards, tid);
        }
        const std::size_t slice = std::clamp<std::size_t>(
            static_cast<std::size_t>(shares[0] / kTargetSlicesPerIter), kMinSlice,
            kMaxSlice);
        for (std::uint64_t begin = 0; begin < shares[0]; begin += slice) {
            for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
                const std::uint64_t end = std::min<std::uint64_t>(begin + slice, shares[tid]);
                for (std::uint64_t b = begin; b < end; b += kBlock) {
                    shapes.push_back(
                        {tid, static_cast<std::uint32_t>(std::min<std::uint64_t>(kBlock, end - b))});
                }
            }
        }
    }
    const std::uint64_t per_iter = shapes.size();
    const std::uint64_t n_total = std::uint64_t{cfg.iter_max} * per_iter;

    // at[tid] is where shard tid's next block starts: the seed stream
    // jumped tid times, then advanced past every block planned so far.
    std::vector<rng::Xoshiro256Plus> at;
    at.reserve(n_shards);
    rng::Xoshiro256Plus seeder(cfg.seed);
    for (std::uint32_t tid = 0; tid < n_shards; ++tid) {
        at.push_back(seeder);
        for (std::uint32_t j = 0; j < tid; ++j) at.back().jump();
    }

    const std::size_t n_slots = kSlotsPerSampler * (n_shards + 1);
    std::vector<Slot> ring(n_slots);
    std::atomic<std::uint64_t> planned{0};  // blocks published
    std::atomic<std::uint64_t> claimed{0};  // blocks handed to a filler
    std::atomic<std::uint64_t> lane_filled{0};  // blocks the lanes filled
    std::atomic<std::uint32_t> wake{0};     // bumped per publish and at stop
    std::atomic<bool> stop{false};

    // Plans blocks [planned, limit) into their slots and publishes them.
    std::uint64_t n_planned = 0;
    const auto plan = [&](std::uint64_t limit) {
        if (n_planned >= limit) return;
        for (; n_planned < limit; ++n_planned) {
            const BlockShape shape = shapes[n_planned % per_iter];
            Slot& s = ring[n_planned % n_slots];
            rng::Xoshiro256Plus& stream = at[shape.shard];
            s.batch.resize(shape.n, false);
            s.rng = stream;
            s.iter = static_cast<std::uint32_t>(n_planned / per_iter);
            if (shape.n == kBlock) {
                stream.jump_block();
            } else {
                for (std::size_t w = 0; w < kTermWords * shape.n; ++w) stream.next();
            }
        }
        planned.store(n_planned, std::memory_order_release);
        wake.fetch_add(1);
        wake.notify_all();
    };
    // Claims up to `most` consecutive planned blocks from k on; returns
    // how many (0: none is claimable).
    const auto try_claim = [&](std::uint64_t& k, std::uint64_t most) -> std::uint64_t {
        k = claimed.load(std::memory_order_relaxed);
        for (std::uint64_t avail; k < (avail = planned.load(std::memory_order_acquire));) {
            const std::uint64_t m = std::min(most, avail - k);
            if (claimed.compare_exchange_weak(k, k + m, std::memory_order_relaxed)) {
                return m;
            }
        }
        return 0;
    };
    // Block k is filled: mark its slot ready.
    const auto finish = [&](std::uint64_t k, Slot& s) {
        // seq_cst, as the wake counter's increments: the new value is
        // globally visible before notify reads whether anyone waits.
        s.ready.store(static_cast<std::uint32_t>(k + 1));
        s.ready.notify_all();
    };
    // Fills blocks [k, k + m) in order, finishing each as soon as it is
    // filled: a group of kMinLaneGroup or more through the lanes, whose
    // shared pass 1 time is split evenly over its slots, else block by
    // block through fill_batch_staged.
    const auto fill = [&](std::uint64_t k, std::uint64_t m) {
        if (!lanes || m < kMinLaneGroup) {
            for (std::uint64_t b = k; b < k + m; ++b) {
                Slot& s = ring[b % n_slots];
                const std::uint64_t t0 = telemetry::now_ns();
                s.skipped = sampler.fill_batch_staged(cfg.cooling(s.iter), s.rng, 0,
                                                      s.batch.size(), s.batch);
                s.sample_ns = telemetry::now_ns() - t0;
                finish(b, s);
            }
            return;
        }
        LaneBlock group[kGroup];
        for (std::uint64_t l = 0; l < m; ++l) {
            Slot& s = ring[(k + l) % n_slots];
            group[l] = {&s.rng, cfg.cooling(s.iter), &s.batch};
        }
        const std::uint64_t t0 = telemetry::now_ns();
        lanes->decode({group, m});
        const std::uint64_t share = (telemetry::now_ns() - t0) / m;
        for (std::uint64_t l = 0; l < m; ++l) {
            Slot& s = ring[(k + l) % n_slots];
            const std::uint64_t t1 = telemetry::now_ns();
            s.skipped = sampler.resolve_staged(s.batch, 0, s.batch.size());
            s.sample_ns = share + (telemetry::now_ns() - t1);
            finish(k + l, s);
        }
        lane_filled.fetch_add(m, std::memory_order_relaxed);
    };
    // A pool worker's loop: claim and fill until the run stops.
    const auto sample = [&](std::uint32_t) {
        for (;;) {
            const std::uint32_t seen = wake.load(std::memory_order_acquire);
            if (stop.load(std::memory_order_acquire)) return;
            std::uint64_t k = 0;
            if (const std::uint64_t m = try_claim(k, kGroup)) {
                fill(k, m);
            } else {
                idle_wait(wake, seen);
            }
        }
    };
    // Ends the samplers' job on every exit, a throwing hook included.
    struct StopSamplers {
        std::atomic<bool>& stop;
        std::atomic<std::uint32_t>& wake;
        ThreadPool& pool;
        ~StopSamplers() {
            stop.store(true, std::memory_order_release);
            wake.fetch_add(1);
            wake.notify_all();
            pool.wait();
        }
    };

    auto& reg = telemetry::Registry::instance();
    const telemetry::Counter consumer_blocks = reg.counter("pipelined.consumer_blocks");
    const telemetry::Counter lane_blocks = reg.counter("pipelined.lane_blocks");
    const telemetry::Counter sample_ns = reg.counter("engine.sample_ns");
    const telemetry::Counter apply_ns = reg.counter("engine.apply_ns");
    const telemetry::Counter stall_ns = reg.counter("engine.stall_ns");
    std::uint64_t filled_here = 0, sampled = 0, applied = 0, stalled = 0;
    const auto flush = [&] {
        consumer_blocks.add(filled_here);
        sample_ns.add(sampled);
        apply_ns.add(applied);
        stall_ns.add(stalled);
        lane_blocks.add(lane_filled.exchange(0, std::memory_order_relaxed));
        filled_here = sampled = applied = stalled = 0;
    };

    // Waits until block k's slot is ready, filling claimable blocks
    // meanwhile. At one thread the caller is one of two fillers and takes
    // groups as the sampler does; with more samplers it is the critical
    // path, and helps with at most one block per wait.
    const bool caller_takes_groups = n_shards == 1;
    const auto await = [&](std::uint64_t k) -> Slot& {
        Slot& s = ring[k % n_slots];
        const auto want = static_cast<std::uint32_t>(k + 1);
        if (s.ready.load(std::memory_order_acquire) == want) return s;
        std::uint64_t t = telemetry::now_ns();
        bool helped = false;
        for (std::uint32_t seen; (seen = s.ready.load(std::memory_order_acquire)) != want;) {
            std::uint64_t c = 0;
            const std::uint64_t m =
                caller_takes_groups ? try_claim(c, kGroup) : helped ? 0 : try_claim(c, 1);
            if (m > 0) {
                stalled += telemetry::now_ns() - t;
                fill(c, m);
                filled_here += m;
                helped = true;
                t = telemetry::now_ns();
            } else {
                idle_wait(s.ready, seen);
            }
        }
        stalled += telemetry::now_ns() - t;
        return s;
    };

    std::uint32_t iters_done = cfg.iter_max;
    std::vector<std::uint64_t> iter_skipped(cfg.iter_max, 0);
    const auto t0 = std::chrono::steady_clock::now();
    if (n_total > 0) {
        pool.launch(sample);
        const StopSamplers stopper{stop, wake, pool};
        for (std::uint64_t k = 0; k < n_total; ++k) {
            const auto iter = static_cast<std::uint32_t>(k / per_iter);
            const bool last_of_iter = (k + 1) % per_iter == 0;
            // Cooperative cancel at iteration boundaries; the stopper ends
            // the samplers' job, abandoning blocks sampled ahead.
            if (k % per_iter == 0 && cfg.cancel_requested()) {
                iters_done = iter;
                break;
            }
            // Slot k % R is free for block k + R once block k is passed.
            // Blocks are published a group at a time, so a sampler woken
            // by a publish finds a whole group to claim.
            const std::uint64_t limit = std::min(k + n_slots, n_total);
            if (limit >= n_planned + kGroup || limit == n_total) plan(limit);
            Slot& s = await(k);
            const double eta = result.eta_schedule[iter];
            const std::uint64_t a = telemetry::now_ns();
            kern.apply(s.batch, eta, store);
            applied += telemetry::now_ns() - a;
            iter_skipped[iter] += s.skipped;
            sampled += s.sample_ns;
            if (!last_of_iter) continue;

            flush();
            if (hook) {
                IterationStats st;
                st.iteration = iter;
                st.iter_max = cfg.iter_max;
                st.eta = eta;
                st.updates = n_steps;
                st.skipped = iter_skipped[iter];
                hook(st);
            }
        }
    }
    flush();
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
    std::string_view name() const noexcept override { return "cpu-pipelined"; }

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
        return run_blocks(*graph_, cfg, s, *kernel_, *pool_, hook);
    }

private:
    std::unique_ptr<const UpdateKernel> kernel_;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<LayoutEngine> make_pipelined_engine() {
    return std::make_unique<BlockLayoutEngine>();
}

}  // namespace pgl::core

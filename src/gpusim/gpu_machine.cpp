#include "gpusim/gpu_machine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "core/term_batch.hpp"
#include "memsim/cache.hpp"
#include "rng/xorwow.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::gpusim {

namespace {

using core::End;
using core::TermSample;
using memsim::Cache;
using memsim::CacheConfig;

// Abstract GPU global-memory address space (one base per structure).
constexpr std::uint64_t kBaseRngStates = 0x0100'0000'0000ULL;
constexpr std::uint64_t kBaseRngField0 = 0x0200'0000'0000ULL;  // SoA fields
constexpr std::uint64_t kRngFieldStride = 0x0010'0000'0000ULL;
constexpr std::uint64_t kBaseAliasProb = 0x0300'0000'0000ULL;
constexpr std::uint64_t kBaseAliasAlias = 0x0400'0000'0000ULL;
constexpr std::uint64_t kBaseStepNode = 0x0500'0000'0000ULL;
constexpr std::uint64_t kBaseStepPos = 0x0600'0000'0000ULL;
constexpr std::uint64_t kBaseStepOrient = 0x0700'0000'0000ULL;
constexpr std::uint64_t kBaseStepRec = 0x0800'0000'0000ULL;
constexpr std::uint64_t kBaseCoordX = 0x0900'0000'0000ULL;
constexpr std::uint64_t kBaseCoordY = 0x0A00'0000'0000ULL;
constexpr std::uint64_t kBaseNodeLen = 0x0B00'0000'0000ULL;
constexpr std::uint64_t kBaseNodeRec = 0x0C00'0000'0000ULL;

constexpr std::uint32_t kXorwowStateBytes = 24;
using memsim::kNodeRecBytes;
constexpr std::uint32_t kStepRecBytes = 16;

// Instruction cost model (warp instructions per update step region).
constexpr double kInstrPre = 90;      // path selection + PRNG sequencing
constexpr double kInstrBranch = 150;  // node-pair selection inside the branch
constexpr double kInstrPost = 110;    // loads, FP math, stores
constexpr double kInstrWmOverhead = 4;   // control-lane broadcast
constexpr double kInstrPerReuse = 40;    // warp-shuffle + FP per DRF update
constexpr double kActivePredFraction = 0.875;  // baseline predication losses

// PRNG usage per update step: draws consumed, and how many of them happen
// inside the divergent branch region (hop / partner-step selection).
constexpr std::uint32_t kRngDrawsPerStep = 6;
constexpr std::uint32_t kRngDrawsInBranch = 3;
constexpr std::uint32_t kRngFieldAccessesPerDraw = 12;  // 6 reads + 6 writes

/// One simulated memory system: per-SM sectored L1s over a shared L2.
class GpuMemory {
public:
    GpuMemory(const GpuSpec& spec, double cache_scale)
        : sector_(spec.sector_bytes),
          l2_(CacheConfig{scale_capacity(spec.l2_bytes, cache_scale, spec),
                          spec.sector_bytes, 16}) {
        l1_.reserve(spec.sm_count);
        const CacheConfig l1cfg{
            scale_capacity(spec.l1_bytes_per_sm, cache_scale, spec),
            spec.sector_bytes, 4};
        for (std::uint32_t i = 0; i < spec.sm_count; ++i) l1_.emplace_back(l1cfg);
    }

    /// Issues one warp request: the lane addresses are coalesced into
    /// unique sectors which then probe the SM's L1 and the shared L2.
    void issue(std::uint32_t sm, const std::vector<std::uint64_t>& lane_addrs,
               std::uint32_t bytes_per_lane, GpuCounters& c) {
        sectors_.clear();
        for (const std::uint64_t a : lane_addrs) {
            const std::uint64_t first = a / sector_;
            const std::uint64_t last = (a + bytes_per_lane - 1) / sector_;
            for (std::uint64_t s = first; s <= last; ++s) sectors_.push_back(s);
        }
        std::sort(sectors_.begin(), sectors_.end());
        sectors_.erase(std::unique(sectors_.begin(), sectors_.end()),
                       sectors_.end());
        c.l1_requests += 1;
        c.l1_sectors += static_cast<double>(sectors_.size());
        for (const std::uint64_t s : sectors_) {
            if (!l1_[sm].access_line(s)) {
                c.l2_sectors += 1;
                if (!l2_.access_line(s)) c.dram_sectors += 1;
            }
        }
    }

private:
    static std::uint64_t scale_capacity(std::uint64_t bytes, double scale,
                                        const GpuSpec& spec) {
        double v = static_cast<double>(bytes) * scale;
        const double floor_bytes = 64.0 * spec.sector_bytes;
        if (v < floor_bytes) v = floor_bytes;
        std::uint64_t p = 1;
        while (static_cast<double>(p) * 2.0 <= v) p *= 2;
        return p;
    }

    std::uint32_t sector_;
    std::vector<Cache> l1_;
    Cache l2_;
    std::vector<std::uint64_t> sectors_;  // scratch
};

}  // namespace

double model_time_seconds(const GpuCounters& c, const GpuSpec& spec) {
    // Additive throughput-cost model: every simulated sector touch costs a
    // level-specific number of amortized device cycles (already discounted
    // by typical memory-level parallelism and spread over the device via
    // effective_parallel_lanes); the instruction stream issues at an
    // achieved (not peak) IPC. Coefficients were fitted so that the paper's
    // per-optimization run-time ratios (Tables IX-XI) emerge from the
    // simulated counter deltas — see EXPERIMENTS.md for the calibration.
    const double mem_cycles = (c.l1_sectors * spec.lat_l1 +
                               c.l2_sectors * spec.lat_l2 +
                               c.dram_sectors * spec.lat_dram) /
                              spec.effective_parallel_lanes;
    const double inst_cycles = c.executed_warp_instructions /
                               (static_cast<double>(spec.sm_count) * spec.ipc_per_sm);
    return (mem_cycles + inst_cycles) / (spec.core_clock_ghz * 1e9) +
           static_cast<double>(c.kernel_launches) * spec.launch_overhead_us * 1e-6;
}

GpuSimResult simulate_gpu_layout(const graph::LeanGraph& g,
                                 const core::LayoutConfig& cfg,
                                 const KernelConfig& kernel, const GpuSpec& spec,
                                 const SimOptions& opt) {
    const auto host_t0 = std::chrono::steady_clock::now();

    GpuSimResult out;
    GpuCounters& c = out.counters;
    const core::PairSampler sampler(g, cfg);
    const auto etas = core::make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    // Initial layout (identical scheme to the CPU engine, including the
    // warm-start override).
    const core::Layout initial = core::make_initial_layout(g, cfg);
    core::XYStore store(initial);  // functional storage
    // The warp's per-step batch drains through the same pluggable update
    // kernel as the CPU backends (cfg.kernel; validated here).
    const auto update_kernel = core::make_update_kernel(cfg.kernel);

    GpuMemory mem(spec, opt.cache_scale);

    const std::uint32_t warp_size = spec.warp_size;
    const std::uint32_t resident_warps = spec.sm_count * spec.warps_per_sm;
    std::vector<rng::XorwowState> states(
        static_cast<std::size_t>(resident_warps) * warp_size);
    for (std::size_t i = 0; i < states.size(); ++i) {
        states[i] = rng::xorwow_init(cfg.seed, i);
    }

    const std::uint32_t drf = std::max<std::uint32_t>(1, kernel.data_reuse_factor);
    const double srf = std::max(1.0, kernel.step_reduction_factor);
    const std::uint64_t lane_steps_per_iter = static_cast<std::uint64_t>(
        static_cast<double>(cfg.steps_per_iteration(g.total_path_steps())) / srf);
    const std::uint64_t warp_steps_per_iter =
        (lane_steps_per_iter + warp_size - 1) / warp_size;

    // One TermBatch per warp step, one slot per lane: the same batched term
    // representation every other backend consumes. Invalid terms keep their
    // slot so lane indexing (including the DRF cross-lane pairing) is
    // preserved.
    core::TermBatch batch;
    batch.reserve(warp_size);
    std::vector<std::uint64_t> addrs(warp_size);
    const std::uint32_t period = std::max<std::uint32_t>(1, opt.counter_sample_period);

    // One kernel launch per iteration plus one initialization launch
    // (Sec. V-A: "a total of 31 CUDA kernels are launched").
    c.kernel_launches = cfg.iter_max + 1;

    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        if (cfg.cancel_requested()) break;  // cooperative cancel (serve)
        const double eta = etas.empty() ? 0.0 : etas[iter];
        const bool cooling_iter = cfg.cooling(iter);
        const std::uint64_t iter_updates0 = c.lane_updates;
        const std::uint64_t iter_skipped0 = c.skipped_terms;

        for (std::uint64_t ws = 0; ws < warp_steps_per_iter; ++ws) {
            const std::uint32_t warp =
                static_cast<std::uint32_t>(ws % resident_warps);
            const std::uint32_t sm = warp % spec.sm_count;
            const bool modeled = (ws % period) == 0;

            // --- Branch selection + per-lane term sampling (functional) ---
            bool warp_branch = cooling_iter;
            if (kernel.warp_merge && !cooling_iter) {
                rng::XorwowRng control(states[std::size_t(warp) * warp_size]);
                warp_branch = control.flip_coin();
            }
            std::uint32_t cooling_lanes = 0;
            batch.clear();
            for (std::uint32_t l = 0; l < warp_size; ++l) {
                const std::uint64_t gl = std::uint64_t(warp) * warp_size + l;
                rng::XorwowRng rng(states[gl]);
                TermSample t = kernel.warp_merge
                                   ? sampler.sample_branch(warp_branch, rng)
                                   : sampler.sample(cooling_iter, rng);
                cooling_lanes += t.took_cooling ? 1 : 0;
                if (!t.valid) ++c.skipped_terms;
                batch.append(t);
            }

            // --- Functional updates (DRF extra updates reuse warp data) ---
            // The first round is exactly "apply the warp's batch in lane
            // order", so it drains through the pluggable update kernel,
            // each term with the nudge its own four words fixed.
            update_kernel->apply(batch, eta, store);
            c.lane_updates += warp_size - batch.invalid_count();
            for (std::uint32_t r = 1; r < drf; ++r) {
                for (std::uint32_t l = 0; l < warp_size; ++l) {
                    if (!batch.valid[l]) continue;
                    const std::uint32_t ni = batch.node_i[l];
                    const End ei = batch.end_i_of(l);
                    // Warp-shuffle reuse: pair this lane's first node
                    // with a partner lane's second node. Positions are
                    // path-relative, so cross-lane d_ref is only
                    // approximate — the quality cost the Fig. 17 DSE
                    // measures.
                    const std::uint32_t p = (l + r * 7) % warp_size;
                    if (!batch.valid[p]) continue;
                    const std::uint32_t nj = batch.node_j[p];
                    const End ej = batch.end_j_of(p);
                    const std::uint64_t dd =
                        batch.pos_i[l] > batch.pos_j[p]
                            ? batch.pos_i[l] - batch.pos_j[p]
                            : batch.pos_j[p] - batch.pos_i[l];
                    if (dd == 0) continue;
                    rng::XorwowRng rng(
                        states[std::uint64_t(warp) * warp_size + l]);
                    core::apply_term(store.data(),
                                     core::XYStore::index(ni, ei),
                                     core::XYStore::index(nj, ej),
                                     static_cast<double>(dd), eta,
                                     core::draw_nudge(rng));
                    ++c.lane_updates;
                }
            }
            ++c.warp_steps;

            if (!modeled) continue;

            // --- Performance modelling for this warp step ---
            const bool divergent =
                !kernel.warp_merge && cooling_lanes > 0 && cooling_lanes < warp_size;

            // Instructions + active-thread accounting (Table XI).
            double instr = kInstrPre + kInstrPost +
                           (divergent ? 2.0 * kInstrBranch : kInstrBranch) +
                           (kernel.warp_merge ? kInstrWmOverhead : 0.0) +
                           static_cast<double>(drf - 1) * kInstrPerReuse;
            double active =
                kInstrPre * warp_size + kInstrPost * warp_size +
                kInstrBranch * warp_size +  // both sides together cover 32 lanes
                (kernel.warp_merge ? kInstrWmOverhead * warp_size : 0.0) +
                static_cast<double>(drf - 1) * kInstrPerReuse * warp_size;
            c.executed_warp_instructions += instr * period;
            c.active_thread_instruction_sum +=
                active * kActivePredFraction * period;

            // PRNG state traffic (Table X). Each draw touches the state's
            // six fields (read + write); field requests issue once per warp,
            // or once per branch side when divergent.
            const std::uint32_t rng_issue_mult = divergent ? 2 : 1;
            for (std::uint32_t draw = 0; draw < kRngDrawsPerStep; ++draw) {
                const bool in_branch = draw >= (kRngDrawsPerStep - kRngDrawsInBranch);
                const std::uint32_t mult = in_branch ? rng_issue_mult : 1;
                for (std::uint32_t fa = 0; fa < kRngFieldAccessesPerDraw; ++fa) {
                    const std::uint32_t field = fa % 6;
                    for (std::uint32_t rep = 0; rep < mult; ++rep) {
                        addrs.clear();
                        for (std::uint32_t l = 0; l < warp_size; ++l) {
                            const std::uint64_t gl =
                                std::uint64_t(warp) * warp_size + l;
                            addrs.push_back(
                                kernel.coalesced_rng
                                    // Field arrays are skewed by a prime
                                    // sector count: real allocations are not
                                    // cache-set aligned, and unskewed bases
                                    // would alias all six arrays onto the
                                    // same L1 sets.
                                    ? kBaseRngField0 + field * kRngFieldStride +
                                          field * 13ULL * 32ULL + gl * 4
                                    : kBaseRngStates + gl * kXorwowStateBytes +
                                          field * 4);
                        }
                        mem.issue(sm, addrs, 4, c);
                    }
                }
            }

            // Path-selection alias-table lookups.
            addrs.clear();
            for (std::uint32_t l = 0; l < warp_size; ++l) {
                addrs.push_back(kBaseAliasProb + std::uint64_t(batch.path[l]) * 8);
            }
            mem.issue(sm, addrs, 8, c);
            addrs.clear();
            for (std::uint32_t l = 0; l < warp_size; ++l) {
                addrs.push_back(kBaseAliasAlias + std::uint64_t(batch.path[l]) * 4);
            }
            mem.issue(sm, addrs, 4, c);

            // Step records for both chosen steps (CDL: one packed record;
            // original: three separate arrays — Fig. 9).
            const auto issue_step = [&](bool second) {
                if (kernel.cache_friendly_layout) {
                    addrs.clear();
                    for (std::uint32_t l = 0; l < warp_size; ++l) {
                        if (!batch.valid[l]) continue;
                        const std::uint64_t flat = g.flat_step_index(
                            batch.path[l],
                            second ? batch.step_j[l] : batch.step_i[l]);
                        addrs.push_back(kBaseStepRec + flat * kStepRecBytes);
                    }
                    if (!addrs.empty()) mem.issue(sm, addrs, kStepRecBytes, c);
                    return;
                }
                static constexpr std::uint64_t bases[3] = {
                    kBaseStepNode, kBaseStepPos, kBaseStepOrient};
                static constexpr std::uint32_t sizes[3] = {4, 8, 1};
                for (int part = 0; part < 3; ++part) {
                    addrs.clear();
                    for (std::uint32_t l = 0; l < warp_size; ++l) {
                        if (!batch.valid[l]) continue;
                        const std::uint64_t flat = g.flat_step_index(
                            batch.path[l],
                            second ? batch.step_j[l] : batch.step_i[l]);
                        addrs.push_back(bases[part] + flat * sizes[part]);
                    }
                    if (!addrs.empty()) mem.issue(sm, addrs, sizes[part], c);
                }
            };
            issue_step(false);
            issue_step(true);

            // Coordinate loads + stores for both nodes (CDL: one packed
            // record read + write; original: X array, Y array and the
            // length array separately — Fig. 9a).
            const auto issue_coords = [&](bool second) {
                if (kernel.cache_friendly_layout) {
                    for (int rw = 0; rw < 2; ++rw) {
                        addrs.clear();
                        for (std::uint32_t l = 0; l < warp_size; ++l) {
                            if (!batch.valid[l]) continue;
                            const std::uint32_t n =
                                second ? batch.node_j[l] : batch.node_i[l];
                            addrs.push_back(kBaseNodeRec +
                                            std::uint64_t(n) * kNodeRecBytes);
                        }
                        if (!addrs.empty()) mem.issue(sm, addrs, kNodeRecBytes, c);
                    }
                    return;
                }
                // reads: x, y, len; writes: x, y
                for (int part = 0; part < 5; ++part) {
                    addrs.clear();
                    for (std::uint32_t l = 0; l < warp_size; ++l) {
                        if (!batch.valid[l]) continue;
                        const std::uint32_t n =
                            second ? batch.node_j[l] : batch.node_i[l];
                        const End e =
                            second ? batch.end_j_of(l) : batch.end_i_of(l);
                        const std::uint64_t idx =
                            2 * std::uint64_t(n) + static_cast<std::uint64_t>(e);
                        switch (part) {
                            case 0:
                            case 3:
                                addrs.push_back(kBaseCoordX + idx * 4);
                                break;
                            case 1:
                            case 4:
                                addrs.push_back(kBaseCoordY + idx * 4);
                                break;
                            default:
                                addrs.push_back(kBaseNodeLen + std::uint64_t(n) * 4);
                        }
                    }
                    if (!addrs.empty()) mem.issue(sm, addrs, 4, c);
                }
            };
            issue_coords(false);
            issue_coords(true);
        }

        if (opt.progress) {
            core::IterationStats s;
            s.iteration = iter;
            s.iter_max = cfg.iter_max;
            s.eta = eta;
            s.updates = c.lane_updates - iter_updates0;
            s.skipped = c.skipped_terms - iter_skipped0;
            opt.progress(s);
        }
    }

    // Scale the sampled memory counters back to the full step count.
    // (Instruction counters were already scaled at accumulation time;
    // memory counters accumulate raw per modeled step.)
    c.l1_requests *= period;
    c.l1_sectors *= period;
    c.l2_sectors *= period;
    c.dram_sectors *= period;

    out.layout = store.snapshot();
    out.eta_schedule = etas;
    out.modeled_seconds = model_time_seconds(c, spec);
    out.sim_wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
            .count();
    return out;
}

namespace {

class GpuSimEngine final : public core::LayoutEngine {
public:
    GpuSimEngine(const KernelConfig& kernel, const GpuSpec& spec,
                 const SimOptions& opt)
        : kernel_(kernel), spec_(spec), opt_(opt) {
        const bool optimized = kernel.cache_friendly_layout &&
                               kernel.coalesced_rng && kernel.warp_merge;
        const bool base = !kernel.cache_friendly_layout &&
                          !kernel.coalesced_rng && !kernel.warp_merge;
        name_ = optimized ? "gpusim-optimized"
                          : (base ? "gpusim-base" : "gpusim-custom");
    }

    std::string_view name() const noexcept override { return name_; }

protected:
    void do_init() override {
        // Reject an unknown cfg.kernel at init(), like every other engine;
        // simulate_gpu_layout re-resolves the (stateless) kernel per run.
        core::make_update_kernel(cfg_.kernel);
    }

    core::LayoutResult do_run(const core::LayoutConfig& cfg) override {
        SimOptions opt = opt_;
        if (has_progress_hook()) {
            opt.progress = [this](const core::IterationStats& s) {
                emit_progress(s);
            };
        }
        GpuSimResult r = simulate_gpu_layout(*graph_, cfg, kernel_, spec_, opt);
        core::LayoutResult out;
        out.layout = std::move(r.layout);
        out.seconds = r.modeled_seconds;
        out.updates = r.counters.lane_updates + r.counters.skipped_terms;
        out.skipped = r.counters.skipped_terms;
        out.eta_schedule = std::move(r.eta_schedule);
        return out;
    }

private:
    KernelConfig kernel_;
    GpuSpec spec_;
    SimOptions opt_;
    std::string name_;
};

}  // namespace

std::unique_ptr<core::LayoutEngine> make_gpusim_engine(const KernelConfig& kernel,
                                                       const GpuSpec& spec,
                                                       const SimOptions& opt) {
    return std::make_unique<GpuSimEngine>(kernel, spec, opt);
}

}  // namespace pgl::gpusim

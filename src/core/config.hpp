#pragma once
// Tunables of the PG-SGD layout algorithm (Alg. 1). Defaults follow
// odgi-layout's defaults as described in the paper: 30 iterations, cooling
// in the second half, N_steps = 10 x (sum of path step counts) per
// iteration.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace pgl::core {

struct Segment;  // core/layout.hpp
using Layout = std::vector<Segment>;

struct LayoutConfig {
    /// Total SGD iterations (N_iters in Alg. 1); odgi default is 30.
    std::uint32_t iter_max = 30;

    /// Iteration count the annealing schedule is computed over; 0 means
    /// iter_max. Setting this larger than iter_max yields a truncated
    /// ("stopped early") run of a longer schedule — used to produce
    /// partially-converged layouts for quality studies (Fig. 12).
    std::uint32_t schedule_iter_max = 0;

    /// Updates per iteration are `steps_per_iter_factor x total_path_steps`
    /// (Alg. 1 line 1 uses factor 10).
    double steps_per_iter_factor = 10.0;

    /// Final learning rate of the annealing schedule.
    double eps = 0.01;

    /// Explicit annealing ceiling. 0 (the default) derives eta_max from the
    /// graph as max_dref^2; a positive value restarts the schedule at that
    /// temperature instead — how a multilevel refinement pass resumes the
    /// anneal where the flat schedule would have been, rather than from the
    /// top. Clamped so eps <= eta_max (see core::make_eta_schedule).
    double eta_max = 0.0;

    /// Fraction of iterations after which every step takes the cooling
    /// (Zipf-local) branch; before that the branch is a coin flip
    /// (Alg. 1 line 6).
    double cooling_start = 0.5;

    /// Largest hop distance the cooling branch may draw. 0 means "path
    /// length" (unbounded); odgi quantizes the space similarly.
    std::uint64_t zipf_space_max = 1000;

    /// CPU threads. For cpu-pipelined this is also the
    /// shard count, which fixes the output bytes.
    std::uint32_t threads = 1;

    /// PRNG seed; every run with the same seed and 1 thread is bit-exact.
    std::uint64_t seed = 9'399'220'614'123'047ULL;

    /// Update kernel (KernelRegistry name) the batch-draining engines apply
    /// terms with: "scalar" (reference) or "simd" (vectorized,
    /// byte-identical). Engines resolve — and validate — the name at
    /// init().
    std::string kernel = "scalar";

    /// Warm start: when set, engines begin from this layout instead of the
    /// linear initial layout (it must hold exactly node_count() segments —
    /// engines throw otherwise). Shared, never mutated: a multilevel
    /// refinement pass hands every engine the interpolated positions this
    /// way.
    std::shared_ptr<const Layout> initial_layout;

    /// Cooperative cancellation token (the serve daemon's cancel path).
    /// When set and flipped true, iteration-synchronous engines stop at
    /// the next iteration boundary and return the coordinates they have —
    /// a partial layout the caller must treat as abandoned, never publish.
    /// The token is shared_ptr so one flag flows unchanged through config
    /// copies into partition component engines and multilevel passes.
    /// Not a request field (core/request.hpp): it selects no bytes of a
    /// *completed* run.
    std::shared_ptr<const std::atomic<bool>> cancel;

    bool cancel_requested() const noexcept {
        return cancel && cancel->load(std::memory_order_relaxed);
    }

    std::uint32_t schedule_length() const noexcept {
        return schedule_iter_max ? schedule_iter_max : iter_max;
    }

    /// The product is clamped into the uint32_t range before it converts,
    /// so no cooling_start is an undefined cast (NaN cools from the start).
    bool cooling(std::uint32_t iter) const noexcept {
        constexpr double kMax = std::numeric_limits<std::uint32_t>::max();
        const double at = cooling_start * schedule_length();
        return iter >= static_cast<std::uint32_t>(at > 0.0 ? std::min(at, kMax)
                                                           : 0.0);
    }

    /// Engines check at init() that the product is below 2^64.
    std::uint64_t steps_per_iteration(std::uint64_t total_path_steps) const noexcept {
        const double s = steps_per_iter_factor * static_cast<double>(total_path_steps);
        return s < 1.0 ? 1 : static_cast<std::uint64_t>(s);
    }
};

}  // namespace pgl::core

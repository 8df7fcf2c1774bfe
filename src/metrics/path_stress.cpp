#include "metrics/path_stress.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

#include "core/sampling.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::metrics {

namespace {

using core::End;
using core::Layout;
using graph::LeanGraph;

struct Accum {
    double sum = 0.0;
    double sum_sq = 0.0;
    std::uint64_t n = 0;

    void add(double v) noexcept {
        sum += v;
        sum_sq += v * v;
        ++n;
    }
    void merge(const Accum& o) noexcept {
        sum += o.sum;
        sum_sq += o.sum_sq;
        n += o.n;
    }
};

/// Stress of one endpoint pair; returns false for degenerate d_ref == 0.
inline bool endpoint_stress(const LeanGraph& g, const Layout& l,
                            std::uint32_t p, std::uint32_t si, std::uint32_t sj,
                            End ei, End ej, double& out) noexcept {
    const std::uint32_t ni = g.step_node(p, si);
    const std::uint32_t nj = g.step_node(p, sj);
    const std::uint64_t pi = core::endpoint_path_position(
        g.step_position(p, si), g.node_length(ni), g.step_is_reverse(p, si), ei);
    const std::uint64_t pj = core::endpoint_path_position(
        g.step_position(p, sj), g.node_length(nj), g.step_is_reverse(p, sj), ej);
    const std::uint64_t d = pi > pj ? pi - pj : pj - pi;
    if (d == 0) return false;
    const double d_ref = static_cast<double>(d);
    const double dx = static_cast<double>(l[ni].x(ei)) - l[nj].x(ej);
    const double dy = static_cast<double>(l[ni].y(ei)) - l[nj].y(ej);
    const double mag = std::sqrt(dx * dx + dy * dy);
    const double residual = (mag - d_ref) / d_ref;
    out = residual * residual;
    return true;
}

/// Average stress over the four endpoint combinations of a step pair
/// (the stress(n_i, n_j) of Eq. 1).
inline bool pair_stress(const LeanGraph& g, const Layout& l, std::uint32_t p,
                        std::uint32_t si, std::uint32_t sj, double& out) noexcept {
    static constexpr End kEnds[2] = {End::kStart, End::kEnd};
    double total = 0.0;
    int combos = 0;
    for (End ei : kEnds) {
        for (End ej : kEnds) {
            double s;
            if (endpoint_stress(g, l, p, si, sj, ei, ej, s)) {
                total += s;
                ++combos;
            }
        }
    }
    if (combos == 0) return false;
    out = total / combos;
    return true;
}

template <typename Fn>
void parallel_over_paths(const LeanGraph& g, std::uint32_t threads, Fn&& fn) {
    const std::uint32_t n_paths = g.path_count();
    if (threads <= 1 || n_paths <= 1) {
        for (std::uint32_t p = 0; p < n_paths; ++p) fn(p);
        return;
    }
    // Work-stealing over paths on the shared pool abstraction (path sizes
    // are wildly skewed, so static shares would straggle).
    std::atomic<std::uint32_t> next{0};
    core::ThreadPool pool(std::min(threads, n_paths));
    pool.run([&](std::uint32_t) {
        for (;;) {
            const std::uint32_t p = next.fetch_add(1);
            if (p >= n_paths) return;
            fn(p);
        }
    });
}

}  // namespace

StressResult path_stress(const graph::LeanGraph& g, const core::Layout& l,
                         std::uint32_t threads) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Accum> per_path(g.path_count());
    parallel_over_paths(g, threads, [&](std::uint32_t p) {
        Accum acc;
        const std::uint32_t n = g.path_step_count(p);
        for (std::uint32_t i = 0; i < n; ++i) {
            for (std::uint32_t j = i + 1; j < n; ++j) {
                double s;
                if (pair_stress(g, l, p, i, j, s)) acc.add(s);
            }
        }
        per_path[p] = acc;
    });
    Accum total;
    for (const Accum& a : per_path) total.merge(a);

    StressResult r;
    r.terms = total.n;
    r.value = total.n ? total.sum / static_cast<double>(total.n) : 0.0;
    r.ci_low = r.ci_high = r.value;
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
}

StressResult sampled_path_stress(const graph::LeanGraph& g, const core::Layout& l,
                                 double samples_per_step, std::uint64_t seed,
                                 std::uint32_t threads) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Accum> per_path(g.path_count());
    parallel_over_paths(g, threads, [&](std::uint32_t p) {
        rng::Xoshiro256Plus rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
        Accum acc;
        const std::uint32_t n = g.path_step_count(p);
        if (n < 2) return;
        const std::uint64_t n_samples = static_cast<std::uint64_t>(
            samples_per_step * static_cast<double>(n));
        static constexpr End kEnds[2] = {End::kStart, End::kEnd};
        for (std::uint64_t s = 0; s < n_samples; ++s) {
            const std::uint32_t i = static_cast<std::uint32_t>(rng.next_bounded(n));
            const std::uint32_t j = static_cast<std::uint32_t>(rng.next_bounded(n));
            if (i == j) continue;
            const End ei = kEnds[rng.flip_coin()];
            const End ej = kEnds[rng.flip_coin()];
            double v;
            if (endpoint_stress(g, l, p, i, j, ei, ej, v)) acc.add(v);
        }
        per_path[p] = acc;
    });
    Accum total;
    for (const Accum& a : per_path) total.merge(a);

    StressResult r;
    r.terms = total.n;
    if (total.n > 0) {
        const double n = static_cast<double>(total.n);
        r.value = total.sum / n;
        const double var = std::max(0.0, total.sum_sq / n - r.value * r.value);
        const double half = 1.96 * std::sqrt(var / n);
        r.ci_low = r.value - half;
        r.ci_high = r.value + half;
    }
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
    return r;
}

}  // namespace pgl::metrics

#include "tensor/torch_layout.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/term_batch.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::tensor {

namespace {

using core::End;

/// Index of a node endpoint in the X and Y coordinate tensors, which keep
/// PyTorch's one-tensor-per-axis shape: element 2*node + end
/// ([sx0, ex0, sx1, ...] in X, the same for y in Y).
std::uint32_t coord_index(std::uint32_t node, End e) {
    return 2 * node + static_cast<std::uint32_t>(e);
}

}  // namespace

TorchLayoutResult layout_torch(const graph::LeanGraph& g,
                               const core::LayoutConfig& cfg,
                               std::uint64_t batch_size,
                               KernelProfiler::CostModel cost,
                               const core::ProgressHook& progress) {
    TorchLayoutResult out;
    out.profiler = KernelProfiler(cost);
    KernelProfiler& prof = out.profiler;
    prof.set_gather_footprint(
        2.0 * 2.0 * static_cast<double>(g.node_count()) * sizeof(float));

    const core::PairSampler sampler(g, cfg);
    const auto etas = core::make_engine_schedule(
        cfg, static_cast<double>(g.max_path_nuc_length()));

    core::Layout initial = core::make_initial_layout(g, cfg);

    // Coordinates live in two flat tensors ("the adjustable weights"),
    // filled from the initial layout and finally written back into it.
    const std::size_t n = initial.size();
    std::vector<float> xs(2 * n), ys(2 * n);
    for (std::uint32_t i = 0; i < n; ++i) {
        xs[coord_index(i, End::kStart)] = initial[i].sx;
        xs[coord_index(i, End::kEnd)] = initial[i].ex;
        ys[coord_index(i, End::kStart)] = initial[i].sy;
        ys[coord_index(i, End::kEnd)] = initial[i].ey;
    }
    Tensor X(std::move(xs));
    Tensor Y(std::move(ys));

    rng::Xoshiro256Plus rng(cfg.seed);
    const std::uint64_t steps_per_iter = cfg.steps_per_iteration(g.total_path_steps());
    const std::uint64_t batch = std::max<std::uint64_t>(1, batch_size);

    core::TermBatch terms;
    std::vector<std::uint32_t> idx_i, idx_j;
    std::vector<float> dref_host;
    std::uint64_t total_skipped = 0;

    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        if (cfg.cancel_requested()) break;  // cooperative cancel (serve)
        const double eta = etas.empty() ? 0.0 : etas[iter];
        const bool cooling_iter = cfg.cooling(iter);
        std::uint64_t remaining = steps_per_iter;
        std::uint64_t iter_skipped = 0;

        while (remaining > 0) {
            const std::uint64_t b = std::min(batch, remaining);
            remaining -= b;

            // Host-side batch assembly (the "dataloader"): one shared
            // TermBatch per device batch. The tensor path never uses the
            // coincident-point nudge (mag is clamped instead).
            iter_skipped += sampler.fill_batch_staged(
                cooling_iter, rng, static_cast<std::size_t>(b), terms);
            idx_i.clear();
            idx_j.clear();
            dref_host.clear();
            for (std::size_t k = 0; k < terms.size(); ++k) {
                if (!terms.valid[k]) continue;
                idx_i.push_back(coord_index(terms.node_i[k], terms.end_i_of(k)));
                idx_j.push_back(coord_index(terms.node_j[k], terms.end_j_of(k)));
                dref_host.push_back(static_cast<float>(terms.d_ref[k]));
            }
            if (idx_i.empty()) continue;
            Tensor dref(dref_host);

            // --- Gather (index kernels) ---
            const Tensor xi = index_select(X, idx_i, prof);
            const Tensor yi = index_select(Y, idx_i, prof);
            const Tensor xj = index_select(X, idx_j, prof);
            const Tensor yj = index_select(Y, idx_j, prof);

            // --- Stress gradient ---
            const Tensor dx = sub(xi, xj, prof);
            const Tensor dy = sub(yi, yj, prof);
            const Tensor mag0 = sqrt(add(pow2(dx, prof), pow2(dy, prof), prof), prof);
            const Tensor mag = clamp_min(mag0, 1e-9f, prof);

            // mu = clamp(eta / dref^2, 1)
            const Tensor d2 = pow2(dref, prof);
            const Tensor eta_t(dref.size(), static_cast<float>(eta));
            const Tensor mu = clamp_max(div(eta_t, d2, prof), 1.0f, prof);

            const Tensor residual = sub(mag, dref, prof);
            const Tensor delta = mul_scalar(mul(mu, residual, prof), 0.5f, prof);
            const Tensor r = div(delta, mag, prof);
            const Tensor rx = mul(r, dx, prof);
            const Tensor ry = mul(r, dy, prof);

            // --- Scatter updates (index kernels, index_put_ semantics) ---
            index_put(X, idx_i, sub(xi, rx, prof), prof);
            index_put(Y, idx_i, sub(yi, ry, prof), prof);
            index_put(X, idx_j, add(xj, rx, prof), prof);
            index_put(Y, idx_j, add(yj, ry, prof), prof);

            ++out.batches;
        }

        total_skipped += iter_skipped;
        if (progress) {
            core::IterationStats s;
            s.iteration = iter;
            s.iter_max = cfg.iter_max;
            s.eta = eta;
            s.updates = steps_per_iter;
            s.skipped = iter_skipped;
            progress(s);
        }
    }
    out.skipped = total_skipped;
    out.eta_schedule = etas;

    out.layout = std::move(initial);
    for (std::uint32_t i = 0; i < n; ++i) {
        core::Segment& seg = out.layout[i];
        seg.sx = X[coord_index(i, End::kStart)];
        seg.ex = X[coord_index(i, End::kEnd)];
        seg.sy = Y[coord_index(i, End::kStart)];
        seg.ey = Y[coord_index(i, End::kEnd)];
    }
    out.kernel_launches = prof.total_launches();
    out.kernel_seconds = prof.kernel_seconds();
    out.api_seconds = prof.api_seconds() +
                      static_cast<double>(out.batches) * cost.host_per_batch_us * 1e-6;
    out.modeled_seconds = out.kernel_seconds + out.api_seconds;
    out.api_time_fraction =
        out.modeled_seconds > 0 ? out.api_seconds / out.modeled_seconds : 0.0;
    return out;
}

namespace {

class TorchLayoutEngine final : public core::LayoutEngine {
public:
    TorchLayoutEngine(std::uint64_t batch_size, KernelProfiler::CostModel cost)
        : batch_size_(batch_size), cost_(cost) {}

    std::string_view name() const noexcept override { return "torch"; }

protected:
    void do_init() override {
        // The tensor path models its own gather/scatter kernels and never
        // drains a batch through an UpdateKernel, but it honors the
        // engine-wide contract of rejecting an unknown cfg.kernel at
        // init().
        core::make_update_kernel(cfg_.kernel);
    }

    core::LayoutResult do_run(const core::LayoutConfig& cfg) override {
        core::ProgressHook hook;
        if (has_progress_hook()) {
            hook = [this](const core::IterationStats& s) { emit_progress(s); };
        }
        TorchLayoutResult r = layout_torch(*graph_, cfg, batch_size_, cost_, hook);
        core::LayoutResult out;
        out.layout = std::move(r.layout);
        out.seconds = r.modeled_seconds;
        out.updates = static_cast<std::uint64_t>(cfg.iter_max) *
                      cfg.steps_per_iteration(graph_->total_path_steps());
        out.skipped = r.skipped;
        out.eta_schedule = std::move(r.eta_schedule);
        return out;
    }

private:
    std::uint64_t batch_size_;
    KernelProfiler::CostModel cost_;
};

}  // namespace

std::unique_ptr<core::LayoutEngine> make_torch_engine(
    std::uint64_t batch_size, KernelProfiler::CostModel cost) {
    return std::make_unique<TorchLayoutEngine>(batch_size, cost);
}

}  // namespace pgl::tensor

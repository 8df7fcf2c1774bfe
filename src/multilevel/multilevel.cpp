#include "multilevel/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/layout.hpp"
#include "multilevel/interpolate.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::multilevel {

namespace {

std::uint32_t refine_iters(const core::LayoutConfig& cfg,
                           const MultilevelOptions& opt) noexcept {
    if (opt.refine_iters > 0) return opt.refine_iters;
    return std::max<std::uint32_t>(2, cfg.schedule_length() / 2);
}

}  // namespace

double refine_eta_max(double max_dref, double eps, std::uint32_t iter_max,
                      std::uint32_t refine_iters) noexcept {
    // Mirror make_eta_schedule's clamps so the tail identity holds bit for
    // bit: eta_max = d^2 with d >= 1, eps clamped into (0, eta_max].
    const double d = std::max(1.0, max_dref);
    const double emax = std::max(d * d, 1e-30);
    const double emin = std::min(std::max(eps, 1e-30), emax);
    if (refine_iters >= iter_max || iter_max <= 1) return emax;
    const double lambda =
        std::log(emax / emin) / static_cast<double>(iter_max - 1);
    return emax * std::exp(-lambda * static_cast<double>(iter_max - refine_iters));
}

double adaptive_refine_eta(const graph::LeanGraph& coarse) {
    std::vector<std::uint32_t> lens(coarse.node_lengths().begin(),
                                    coarse.node_lengths().end());
    if (lens.empty()) return 0.0;
    const std::size_t k =
        std::min(lens.size() - 1,
                 static_cast<std::size_t>(static_cast<double>(lens.size()) * 0.95));
    std::nth_element(lens.begin(), lens.begin() + static_cast<std::ptrdiff_t>(k),
                     lens.end());
    const double p95 = static_cast<double>(lens[k]);
    return (p95 / 8.0) * (p95 / 8.0);
}

core::LayoutConfig coarse_pass_config(const core::LayoutConfig& cfg) {
    const std::uint32_t iters = cfg.schedule_length();
    const std::uint32_t hot = std::max<std::uint32_t>(2, (5 * iters + 2) / 6);
    core::LayoutConfig c = cfg;
    c.iter_max = std::min(hot, iters);
    c.schedule_iter_max = iters;
    c.eta_max = 0.0;
    return c;
}

core::LayoutConfig refine_pass_config(const core::LayoutConfig& cfg,
                                      const MultilevelOptions& opt,
                                      const graph::LeanGraph& fine,
                                      const graph::LeanGraph& first_coarse,
                                      core::Layout warm) {
    core::LayoutConfig c = cfg;
    c.iter_max = refine_iters(cfg, opt);
    c.schedule_iter_max = 0;
    if (opt.exact_tail) {
        c.eta_max = refine_eta_max(
            static_cast<double>(fine.max_path_nuc_length()), cfg.eps,
            cfg.schedule_length(), c.iter_max);
    } else {
        c.eta_max = adaptive_refine_eta(first_coarse);
        // Adaptive restart: also raise the schedule floor to the
        // nucleotide scale — cooling below it wastes the short tail.
        c.eps = std::max(cfg.eps, kRefineEtaFloor);
    }
    // The tail of the flat anneal is entirely inside the cooling phase; a
    // warm-started refinement stays there.
    c.cooling_start = 0.0;
    c.initial_layout = std::make_shared<const core::Layout>(std::move(warm));
    return c;
}

std::string describe(const core::LayoutConfig& cfg,
                     const MultilevelOptions& opt) {
    const core::LayoutConfig coarse = coarse_pass_config(cfg);
    std::ostringstream out;
    for (std::uint32_t l = 0; l < opt.levels; ++l) {
        out << "coarsen L" << l << "->L" << l + 1 << "; ";
    }
    out << "layout L" << opt.levels << " x" << coarse.iter_max;
    if (coarse.schedule_iter_max != coarse.iter_max) {
        out << "/" << coarse.schedule_iter_max;
    }
    for (std::uint32_t l = opt.levels; l > 0; --l) {
        out << "; interpolate L" << l << "->L" << l - 1;
    }
    out << "; refine L0 x" << refine_iters(cfg, opt);
    return out.str();
}

MultilevelResult run_multilevel(const graph::LeanGraph& fine,
                                core::LayoutEngine& engine,
                                const core::LayoutConfig& cfg,
                                const MultilevelOptions& opt) {
    if (opt.levels == 0) {
        throw std::invalid_argument(
            "multilevel: levels must be >= 1 (0 would be a flat run)");
    }
    MultilevelResult out;
    const auto pass = [&](const graph::LeanGraph& g,
                          const core::LayoutConfig& pass_cfg) {
        engine.init(g, pass_cfg);
        core::LayoutResult r = engine.run();
        out.updates += r.updates;
        out.skipped += r.skipped;
        out.seconds += r.seconds;
        return std::move(r.layout);
    };

    // levels[l] maps level l (level 0 is `fine`) to level l + 1. One stage
    // span per pass: `span.coarsen` / `span.layout` / `span.interpolate` /
    // `span.refine` aggregate across components under --partition, and the
    // trace shows each pass nested inside its component/job span.
    std::vector<CoarseLevel> levels;
    out.level_nodes.push_back(fine.node_count());
    for (std::uint32_t l = 0; l < opt.levels; ++l) {
        telemetry::StageSpan span("coarsen", "multilevel");
        levels.push_back(coarsen(l == 0 ? fine : levels.back().graph));
        out.level_nodes.push_back(levels.back().graph.node_count());
    }
    core::Layout current;
    {
        telemetry::StageSpan span("layout", "multilevel");
        current = pass(levels.back().graph, coarse_pass_config(cfg));
    }
    for (std::uint32_t l = opt.levels; l > 0; --l) {
        telemetry::StageSpan span("interpolate", "multilevel");
        current = interpolate(levels[l - 1].map, current,
                              l == 1 ? fine : levels[l - 2].graph);
    }
    telemetry::StageSpan span("refine", "multilevel");
    out.layout = pass(fine, refine_pass_config(cfg, opt, fine,
                                               levels.front().graph,
                                               std::move(current)));
    return out;
}

MultilevelResult layout_graph(const graph::LeanGraph& g,
                              core::LayoutEngine& engine,
                              const core::LayoutConfig& cfg,
                              const MultilevelOptions* ml) {
    if (auto done = core::empty_objective_result(g, cfg)) {
        return {std::move(*done), {g.node_count()}};
    }
    if (ml != nullptr) return run_multilevel(g, engine, cfg, *ml);
    engine.init(g, cfg);
    return {engine.run(), {g.node_count()}};
}

}  // namespace pgl::multilevel

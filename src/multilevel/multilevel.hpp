#pragma once
// Multilevel layout, schedule layer: run_multilevel is one straight-line
// function over the V-shaped schedule the paper's multigrid framing
// suggests,
//
//   coarsen x L  ->  layout (hot anneal prefix, coarsest graph)
//     ->  interpolate x L  ->  refine (short anneal tail, full resolution)
//
// and layout_graph is the one step every flat or multilevel run goes
// through (the driver's unpartitioned run, and every partition component
// in-process or in a worker process).
//
// The default schedule splits the flat run's single cooling curve across
// resolutions. The coarse layout pass walks the *same* I-iteration eta
// curve a flat run would (coarsening preserves every path's nucleotide
// length, so the graph-derived eta ceiling is identical) but stops after
// the hot five-sixths — by then eta has swept the whole inter-run band,
// and relative run placement, the only geometry the coarse graph can
// represent, is converged. Interpolation lifts the layout, leaving only
// intra-run curvature: a sub-run-wavelength residual the straight-segment
// interpolator cannot draw. The refine pass anneals exactly that band at
// full resolution, restarting at (p95 run nucleotide length / 8)^2 — the
// measured optimum on the whole-genome workload, flat across a wide
// plateau (roughly /4 to /16 of the half-run temperature) but distinctly
// worse when restarted a full run-scale hot, which wastes the short tail
// re-shaking converged runs — and cooling to the one-nucleotide scale
// (kRefineEtaFloor), the smallest distance the nucleotide-unit layout can
// resolve. Cooling further (e.g. to the flat run's 0.01 default) spends
// the tail on moves too small to fix anything and measurably stalls
// short of flat-final quality. The conservative alternative
// (MultilevelOptions::exact_tail) instead picks refine_eta_max so the
// R-iteration refine schedule reproduces — to the last bit — the final R
// entries of the flat schedule's anneal.
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "graph/lean_graph.hpp"
#include "multilevel/coarsen.hpp"

namespace pgl::multilevel {

struct MultilevelOptions {
    /// Coarsening levels (>= 1).
    std::uint32_t levels = 1;
    /// Full-resolution refinement iterations; 0 means the default tail of
    /// max(2, iter_max / 2) — half the flat schedule at full resolution,
    /// the shortest tail that reliably reaches flat-final quality.
    std::uint32_t refine_iters = 0;
    /// Replaces the adaptive restart temperature, (p95 nucleotide length
    /// of the first coarse level / 8)^2, with the flat schedule's own: the
    /// refine schedule becomes the last R entries of the flat I-iteration
    /// anneal, bit for bit (see refine_eta_max).
    bool exact_tail = false;
};

/// Restart temperature for an R-iteration refinement tail of a flat
/// I-iteration schedule over (max_dref, eps): the eta the flat schedule
/// would reach at iteration I - R, so the refine schedule equals the flat
/// schedule's last R entries exactly. Returns the full eta_max when
/// R >= I (the tail is the whole schedule).
double refine_eta_max(double max_dref, double eps, std::uint32_t iter_max,
                      std::uint32_t refine_iters) noexcept;

/// The adaptive refine restart temperature: (p95 nucleotide length of
/// `coarse`'s nodes / 8)^2. After the five-sixths coarse prefix, run
/// placement is converged and the interpolation residual is intra-run
/// curvature at sub-run wavelength; p95 (not max) keeps one pathological
/// run from overheating the whole pass. Returns 0 for an empty graph.
double adaptive_refine_eta(const graph::LeanGraph& coarse);

/// The adaptive refine schedule floor: the one-nucleotide scale (eta has
/// squared-length units, so 1.0). The layout's unit is the nucleotide, so
/// no inter-node distance error smaller than one exists; cooling below it
/// spends the short refine tail on moves too small to improve anything
/// and stalls short of flat-final quality.
inline constexpr double kRefineEtaFloor = 1.0;

/// The coarse anneal's config: `cfg` on the full I-iteration eta curve
/// (schedule_iter_max = I, eta_max derived from the graph), run for only
/// its hot prefix of max(2, (5I + 2) / 6) iterations — the five-sixths
/// that cools from the graph-scale eta ceiling through the whole inter-run
/// band, where coarse-node geometry stops improving.
core::LayoutConfig coarse_pass_config(const core::LayoutConfig& cfg);

/// The refine pass's config: `cfg` for opt.refine_iters or max(2, I / 2)
/// iterations, warm-started from `warm` (cfg.initial_layout marks the
/// pass as the refine) and entirely in the cooling phase. The restart
/// temperature is refine_eta_max over `fine`'s longest path under
/// exact_tail, else adaptive_refine_eta(first_coarse) with the floor
/// raised to kRefineEtaFloor.
core::LayoutConfig refine_pass_config(const core::LayoutConfig& cfg,
                                      const MultilevelOptions& opt,
                                      const graph::LeanGraph& fine,
                                      const graph::LeanGraph& first_coarse,
                                      core::Layout warm);

/// The schedule `opt` resolves to under `cfg`, one clause per pass, e.g.
/// "coarsen L0->L1; layout L1 x25/30; interpolate L1->L0; refine L0 x15".
std::string describe(const core::LayoutConfig& cfg,
                     const MultilevelOptions& opt);

/// A layout result plus the node count of every level, fine first (one
/// entry for a flat run). `seconds` sums the engine passes (modeled for
/// gpusim/torch).
struct MultilevelResult : core::LayoutResult {
    std::vector<std::uint32_t> level_nodes;
};

/// Coarsens `fine` opt.levels times, anneals the coarsest graph, then
/// interpolates back to full resolution and refines. `engine` runs both
/// passes (init() then a full run() each; it must outlive the call and is
/// left bound to `fine`). Each pass is a telemetry stage span: coarsen,
/// layout, interpolate, refine. Throws std::invalid_argument when
/// opt.levels == 0 or `fine` has no path steps (see layout_graph).
MultilevelResult run_multilevel(const graph::LeanGraph& fine,
                                core::LayoutEngine& engine,
                                const core::LayoutConfig& cfg,
                                const MultilevelOptions& opt);

/// The one layout step of every run: a graph with no path steps gets
/// core::empty_objective_result; otherwise `engine` runs flat (`ml` null)
/// or through run_multilevel(*ml).
MultilevelResult layout_graph(const graph::LeanGraph& g,
                              core::LayoutEngine& engine,
                              const core::LayoutConfig& cfg,
                              const MultilevelOptions* ml);

}  // namespace pgl::multilevel

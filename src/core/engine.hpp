#pragma once
// The pluggable layout-engine interface. The paper's central comparison is
// one algorithm (PG-SGD, Alg. 1) executed by several machines — the
// multithreaded CPU baseline (odgi's Hogwild loop in the paper; an
// ordered, reproducible block engine here), a PyTorch-style batched
// implementation and the optimized CUDA kernel (simulated here). Every
// backend implements this interface (init -> run(iterations) ->
// LayoutResult) and is created by name through the EngineRegistry, so
// tools, benches and cross-backend experiments drive all of them through
// one seam.
//
// Built-in registry names:
//   "cpu-pipelined"     block CPU engine (the default): every thread
//                       samples blocks ahead through a bounded ring,
//                       the caller applies each in a fixed order as soon
//                       as it is filled (deterministic per seed+threads)
//   "gpusim-base"       simulated CUDA kernel, no optimizations
//   "gpusim-optimized"  simulated CUDA kernel, CDL + CRS + WM
//   "torch"             PyTorch-style batched tensor implementation
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/registry.hpp"
#include "graph/lean_graph.hpp"

namespace pgl::core {

struct LayoutResult {
    Layout layout;
    double seconds = 0.0;             ///< wall-clock of the SGD loop (modeled
                                      ///< device time for gpusim/torch)
    std::uint64_t updates = 0;        ///< terms processed (including skipped)
    std::uint64_t skipped = 0;        ///< degenerate terms (d_ref == 0 etc.)
    std::vector<double> eta_schedule; ///< learning rate used per iteration
};

/// The degenerate-graph rule: a graph with zero sampleable path terms has
/// an empty SGD objective (the alias table cannot even be built), so the
/// seeded initial layout IS the final layout. Returns an engaged
/// zero-update result for such graphs and nullopt when there is work to
/// do. multilevel::layout_graph, the one step every flat, multilevel and
/// partition-component run goes through, applies it before any engine
/// sees the graph; engines themselves reject such a graph at init().
inline std::optional<LayoutResult> empty_objective_result(
    const graph::LeanGraph& g, const LayoutConfig& cfg) {
    if (g.total_path_steps() != 0) return std::nullopt;
    LayoutResult r;
    r.layout = make_initial_layout(g, cfg);
    return r;
}

/// Per-iteration progress snapshot passed to the progress hook.
struct IterationStats {
    std::uint32_t iteration = 0;      ///< 0-based iteration just finished
    std::uint32_t iter_max = 0;       ///< iterations in this run
    double eta = 0.0;                 ///< learning rate of the iteration
    std::uint64_t updates = 0;        ///< terms processed this iteration
    std::uint64_t skipped = 0;        ///< degenerate terms this iteration
};

using ProgressHook = std::function<void(const IterationStats&)>;

/// Abstract PG-SGD execution machine. Usage:
///
///   auto eng = core::make_engine("cpu-pipelined");
///   eng->init(graph, cfg);
///   eng->set_progress_hook([](const auto& s) { ... });  // optional
///   auto result = eng->run();          // full schedule (cfg.iter_max)
///   auto probe  = eng->run(3);         // or a truncated run
///
/// Every backend reports per-iteration progress: the hook runs on the
/// thread that called run(), once after each iteration.
///
/// run() also feeds the telemetry layer (src/telemetry/): an `engine.run`
/// stage span, per-iteration `engine.iteration_ns` histogram samples, and
/// `engine.{runs,iterations,updates,skipped}` counters — all compiled out
/// under -DPGL_TELEMETRY=OFF.
class LayoutEngine {
public:
    virtual ~LayoutEngine() = default;

    virtual std::string_view name() const noexcept = 0;

    /// Binds the engine to a graph and configuration. Must be called before
    /// run(); may be called again to re-target the engine. Throws
    /// std::invalid_argument when `g` has no path steps: there is nothing
    /// to sample (see empty_objective_result).
    void init(const graph::LeanGraph& g, const LayoutConfig& cfg);

    /// Executes the schedule and returns the final layout. `iterations`
    /// overrides cfg.iter_max when nonzero (a truncated run of the same
    /// annealing schedule). Throws std::logic_error if init() was not
    /// called.
    LayoutResult run(std::uint32_t iterations = 0);

    void set_progress_hook(ProgressHook hook) { hook_ = std::move(hook); }

protected:
    virtual void do_init() {}
    virtual LayoutResult do_run(const LayoutConfig& cfg) = 0;

    void emit_progress(const IterationStats& stats) const {
        if (hook_) hook_(stats);
    }
    bool has_progress_hook() const noexcept { return static_cast<bool>(hook_); }

    const graph::LeanGraph* graph_ = nullptr;
    LayoutConfig cfg_{};

private:
    ProgressHook hook_;
};

/// String-keyed factory registry of layout engines (the shared
/// FactoryRegistry behaviour: add-or-replace, contains, create, sorted
/// names). The built-in backends are registered on first use; additional
/// engines (future: real CUDA, sharded, async) can be registered at
/// startup by name.
class EngineRegistry : public FactoryRegistry<LayoutEngine> {
public:
    /// The process-wide registry, with all built-in engines registered.
    static EngineRegistry& instance();

private:
    EngineRegistry() = default;
};

/// Convenience: creates a registered engine or throws std::invalid_argument
/// listing the available names.
std::unique_ptr<LayoutEngine> make_engine(const std::string& name);

}  // namespace pgl::core

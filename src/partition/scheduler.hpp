#pragma once
// Per-component layout orchestration — layer 2 of the partition subsystem.
//
// Components are independent layout problems, so the scheduler runs one
// LayoutEngine per component and spreads the runs across core::ThreadPool
// workers, largest component first (classic LPT ordering: the big
// chromosomes dominate wall-clock, so they must start first).
//
// Determinism contract: every component gets its own engine instance seeded
// with component_seed(cfg.seed, component_id) — a SplitMix64 mix, so
// component streams never overlap — and engines are deterministic for a
// fixed (seed, threads). Results land in slots indexed by component id.
// Consequently a partitioned run is byte-reproducible for a fixed
// (seed, backend, engine threads) regardless of how many scheduler workers
// raced over the queue or which finished first.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "partition/components.hpp"

namespace pgl::partition {

/// Deterministic per-component seed: one SplitMix64 step over the base
/// seed XOR the component id, so neighbouring components get uncorrelated
/// engine streams.
std::uint64_t component_seed(std::uint64_t base_seed,
                             std::uint32_t component) noexcept;

/// Aggregated progress snapshot, emitted once per finished component.
struct ComponentProgress {
    std::uint32_t component = 0;  ///< component that just finished
    std::uint32_t completed = 0;  ///< components finished so far (including this)
    std::uint32_t total = 0;      ///< components in the decomposition
    std::uint64_t nodes = 0;      ///< node count of the finished component
    std::uint64_t updates = 0;    ///< engine updates spent on it
    double seconds = 0.0;         ///< engine wall-clock for it
};

using ComponentHook = std::function<void(const ComponentProgress&)>;

/// A layout request as the scheduler runs it: `config.seed` is the base
/// seed mixed per component, `component_workers` the "thread" executor's
/// concurrency, `processes` the "process" executor's (see
/// partition/executor.hpp), and `multilevel`/`ml` lay each component out
/// through the multilevel pass plan instead of a flat run — the plan is
/// derived per component from the same mixed-seed config, so the
/// determinism contract holds unchanged.
struct SchedulerOptions : core::LayoutRequest {
    /// Worker binary override for the "process" executor. Empty resolves
    /// PGL_LAYOUT_WORKER, then the pgl_layout next to /proc/self/exe.
    std::string worker_binary;
};

/// Lays out one component exactly as the scheduler would: a fresh engine of
/// `opt.backend`, seeded with component_seed(opt.config.seed, component_id).
/// A component whose lean graph has no sampleable path terms short-circuits
/// through core::empty_objective_result — the one definition of the
/// degenerate-graph rule, shared with the multilevel plan interpreter and
/// both executors. Exposed so tests can produce the standalone
/// per-component runs the partitioned result must match byte-for-byte.
///
/// Each call runs under a telemetry `component` stage span (category
/// "c<id>"), so multilevel pass seconds aggregate process-wide in the
/// `span.coarsen` / `span.layout` / `span.interpolate` / `span.refine`
/// histograms — the source `pgl_layout --timing` now reads instead of the
/// retired StageSeconds out-parameter.
core::LayoutResult run_component(const ComponentSubgraph& component,
                                 std::uint32_t component_id,
                                 const SchedulerOptions& opt);

/// Policy layer over the pluggable executors (partition/executor.hpp):
/// validates the backend/kernel/executor names up front, counts the
/// components into telemetry, then hands the decomposition to the
/// configured Executor ("thread" or "process") for the actual runs.
class ComponentScheduler {
public:
    explicit ComponentScheduler(SchedulerOptions opt) : opt_(std::move(opt)) {}

    void set_progress_hook(ComponentHook hook) { hook_ = std::move(hook); }

    const SchedulerOptions& options() const noexcept { return opt_; }

    /// Returns one LayoutResult per component, indexed by component id.
    std::vector<core::LayoutResult> run(const Decomposition& d) const;

private:
    SchedulerOptions opt_;
    ComponentHook hook_;
};

}  // namespace pgl::partition

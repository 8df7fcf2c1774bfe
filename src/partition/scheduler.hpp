#pragma once
// The component loop — layer 2 of the partition subsystem.
//
// Components are independent layout problems, so run_components lays out
// each with its own engine and spreads them across one core::ThreadPool,
// largest component first (classic LPT ordering: the big chromosomes
// dominate wall-clock, so they must start first). The worker that takes a
// component builds its subgraph (component_graph) right before the step and
// drops it when the step returns, so the source graph is held once and at
// most one subgraph per worker is alive. It is the one loop for both
// execution modes; only the one-component step differs:
//
//   "thread"   run_component, in this process, on the pool worker;
//   "process"  the worker step of partition/executor.hpp: write the
//              component's .pgg, fork/exec `pgl_layout --component-worker`,
//              read back its .lay and status frames.
//
// A component that throws fails alone: the loop records
// `component <id>: <what>`, lays out the rest, and then throws one
// std::runtime_error listing every failure.
//
// Determinism contract: every component gets its own engine instance seeded
// with component_seed(cfg.seed, component_id) — a SplitMix64 mix, so
// component streams never overlap — and engines are deterministic for a
// fixed (seed, threads). Results land in slots indexed by component id.
// Consequently a partitioned run is byte-reproducible for a fixed
// (seed, backend, engine threads) regardless of the mode, how many workers
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

/// The executor names, "process" and "thread": the one list core::validate
/// and run_components check `executor` against. Throws
/// std::invalid_argument (`unknown partition executor "<name>"; available:
/// process thread`) for any other name.
void check_executor(const std::string& name);

/// The "thread" mode's one-component step: a fresh engine of `req.backend`
/// over the component's subgraph, seeded with
/// component_seed(req.config.seed, component_id). A component whose lean
/// graph has no sampleable path terms gets its initial layout
/// from multilevel::layout_graph, the step every flat or multilevel run
/// shares. Exposed so tests can produce the standalone per-component runs
/// the partitioned result must match byte-for-byte.
///
/// Each call runs under a telemetry `component` stage span (category
/// "c<id>"), so multilevel pass seconds aggregate process-wide in the
/// `span.coarsen` / `span.layout` / `span.interpolate` / `span.refine`
/// histograms — the source `pgl_layout --timing` reads.
core::LayoutResult run_component(const graph::LeanGraph& component,
                                 std::uint32_t component_id,
                                 const core::LayoutRequest& req);

/// Lays out every component of `d` (the remap tables of `g`; any subgraphs
/// it holds are not read) under `req` and returns one LayoutResult per
/// component, indexed by component id. `req.config.seed` is the base seed,
/// mixed per component; `req.executor` picks the one-component step; and
/// `req.multilevel`/`req.ml` lay each component out through
/// multilevel::run_multilevel instead of a flat run, its passes configured
/// from the same mixed-seed config, so the determinism contract holds
/// unchanged. Components run on at most
/// min(req.component_workers, components, allowed CPUs) pool threads; under
/// the "process" executor each thread runs one child at a time. Each
/// component's subgraph is built under a telemetry `subgraph` span on its
/// worker; the `partition.subgraphs_live` histogram records how many are
/// alive as each build begins, counting that one. `hook` (may be empty) is
/// called once per finished component, serialized, on the thread that ran
/// it. Throws std::invalid_argument for an unknown executor before any
/// component runs, and std::runtime_error naming each failed component
/// after the rest have run.
std::vector<core::LayoutResult> run_components(const graph::LeanGraph& g,
                                               const Decomposition& d,
                                               const core::LayoutRequest& req,
                                               const ComponentHook& hook);

}  // namespace pgl::partition

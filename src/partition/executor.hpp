#pragma once
// Pluggable component-executor layer — how a partitioned run actually
// spends its parallelism. The ComponentScheduler owns policy (validation,
// largest-first order, id-indexed result slots, progress aggregation
// inputs); an Executor owns mechanism: given the decomposition and the
// scheduler options, produce one LayoutResult per component. Two
// implementations are registered:
//
//   "thread"   components run on a core::ThreadPool inside this process —
//              the historical behaviour, byte for byte.
//   "process"  components are farmed to child `pgl_layout
//              --component-worker` processes (fork/exec) over the existing
//              .pgg/.lay file formats plus a length-prefixed status pipe;
//              the child's request is a worker spec generated from the
//              request field table (core/request.hpp). Same largest-first
//              admission, bounded by SchedulerOptions::processes; a crashed
//              child fails only its component. See process_executor.cpp
//              for the protocol.

// Determinism contract (both executors, enforced by ctest): for a fixed
// (seed, backend, engine threads) the per-component byte streams are
// identical regardless of executor, worker/process count, or completion
// order — every component is laid out by run_component_graph with the same
// mixed seed, in-process or in a child.
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/request.hpp"
#include "partition/components.hpp"
#include "partition/scheduler.hpp"

namespace pgl::partition {

/// The one per-component layout leaf both executors (and the worker
/// process) execute: pathless graphs short-circuit through
/// core::empty_objective_result, otherwise a fresh `opt.backend` engine
/// runs flat or through the multilevel plan. `opt.config.seed` must
/// already be the *mixed* per-component seed (component_seed) — this
/// function does no mixing, which is exactly what makes a worker process
/// reproduce the in-process bytes: the parent mixes, the leaf is shared.
core::LayoutResult run_component_graph(const graph::LeanGraph& g,
                                       const SchedulerOptions& opt);

/// The worker-spec codec, generated from the request field table.
using core::encode_worker_spec;
using core::parse_worker_spec;

/// Body of `pgl_layout --component-worker`: loads the component's .pgg,
/// runs run_component_graph on parse_worker_spec(spec), writes the layout
/// atomically to `out_path`, and reports over `status_fd` (when >= 0) as
/// length-prefixed frames — "result <updates> <skipped> <seconds>" then
/// "telemetry\n<snapshot_wire>". Returns the process exit code (0 on
/// success); failures print to stderr and return 1 so the parent sees a
/// clean nonzero exit rather than an aborted pipe.
int run_component_worker(const std::string& graph_path,
                         const std::string& out_path, const std::string& spec,
                         int status_fd);

/// Execution mechanism for one decomposition. Implementations must honour
/// the scheduler's contract: results indexed by component id, hook called
/// once per finished component (serialized), largest-first admission.
class Executor {
public:
    virtual ~Executor() = default;

    virtual std::string_view name() const noexcept = 0;

    /// Lays out every component of `d` under `opt`. Throws
    /// std::runtime_error if any component fails (after running the rest,
    /// for the process executor). `hook` may be empty.
    virtual std::vector<core::LayoutResult> run(
        const Decomposition& d, const SchedulerOptions& opt,
        const ComponentHook& hook) const = 0;
};

/// String-keyed executor factory (the shared FactoryRegistry behaviour).
/// "thread" and "process" are registered on first use; tests register
/// doubles the same way engines do.
class ExecutorRegistry : public core::FactoryRegistry<Executor> {
public:
    static ExecutorRegistry& instance();

private:
    ExecutorRegistry() = default;
};

/// Creates a registered executor or throws std::invalid_argument listing
/// the available names.
std::unique_ptr<Executor> make_executor(const std::string& name);

namespace detail {
std::unique_ptr<Executor> make_thread_executor();
std::unique_ptr<Executor> make_process_executor();
}  // namespace detail

}  // namespace pgl::partition

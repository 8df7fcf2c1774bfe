#pragma once
// The two one-component steps of the component loop (run_components in
// partition/scheduler.hpp). The loop owns everything else — largest-first
// order, the queues, the pool, progress and failure collection — and
// `executor` only picks the step:
//
//   "thread"   run_component: the component runs in this process, on the
//              pool worker that took it.
//   "process"  make_worker_step: the component is farmed to a child
//              `pgl_layout --component-worker` process (fork/exec) over
//              the existing .pgg/.lay file formats plus a length-prefixed
//              status pipe; the child's request is a worker spec generated
//              from the request field table (core/request.hpp). A crashed
//              child fails only its component. See process_executor.cpp
//              for the protocol.
//
// Determinism contract (both steps, enforced by ctest): for a fixed
// (seed, backend, engine threads) the per-component byte streams are
// identical regardless of executor, worker/process count, or completion
// order — every component is laid out by run_component_graph with the same
// mixed seed, in-process or in a child.
#include <cstdint>
#include <functional>
#include <string>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "partition/components.hpp"
#include "partition/scheduler.hpp"

namespace pgl::partition {

/// The one per-component layout leaf both steps (and the worker process)
/// execute: multilevel::layout_graph on a fresh `req.backend` engine, flat
/// or through run_multilevel (pathless graphs get the initial layout
/// there, as in an unpartitioned run). `req.config.seed` must already be
/// the *mixed* per-component seed (component_seed) — this function does no
/// mixing, which is exactly what makes a worker process reproduce the
/// in-process bytes: the parent mixes, the leaf is shared.
core::LayoutResult run_component_graph(const graph::LeanGraph& g,
                                       const core::LayoutRequest& req);

/// One component laid out: the signature run_component has, and the one
/// every step of the loop shares. Throws on failure.
using ComponentStep = std::function<core::LayoutResult(
    const graph::LeanGraph&, std::uint32_t, const core::LayoutRequest&)>;

/// The "process" mode's step. Resolves the worker binary — the
/// PGL_LAYOUT_WORKER environment variable, else the pgl_layout beside this
/// executable; throws std::runtime_error if neither names one — and makes
/// a scratch directory for the per-component .pgg/.lay files, removed with
/// the last copy of the step. Each call spawns one worker and throws
/// std::runtime_error with its diagnostic (signal, exit status, missing
/// result) if it fails, or std::invalid_argument if the request holds a
/// setting no worker spec carries (encode_worker_spec).
ComponentStep make_worker_step();

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

}  // namespace pgl::partition

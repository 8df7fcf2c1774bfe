#pragma once
// The layout driver — one facade over the full pipeline that pgl_layout,
// the serve daemon's job runner, and tests all call instead of each
// wiring load -> decompose -> execute -> publish by hand:
//
//   RunRequest req;            // graph source + config + outputs + hooks
//   req.graph_path = "g.gfa";
//   req.out_path = "g.lay";
//   driver::RunOutcome out = driver::run_layout(req);
//
// The driver owns orchestration only: loading (GFA or .pgg, or adopting a
// caller-cached LeanIngest), the optional graph-cache write, choosing the
// flat / multilevel / partitioned execution path (partition runs through
// the pluggable executor layer — in-process threads or child worker
// processes), atomic .lay/.svg/.ppm publication, the stress metric, and
// the stage spans --timing/--trace read. Presentation stays with the
// caller: the driver narrates through RunRequest::log (one line per
// event, exactly the lines the CLI historically printed) and never
// touches std::cout/cerr itself, so the daemon runs the same code path
// silently.
//
// `pgl_layout --component-worker` also routes through run_layout: a
// request with component_worker set dispatches to the worker entry point
// (partition/executor.hpp) and returns its exit code, keeping the tool's
// main() at "parse flags, call run_layout" for every mode.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "graph/gfa_stream.hpp"
#include "metrics/path_stress.hpp"
#include "partition/partition.hpp"

namespace pgl::driver {

/// Everything a layout run needs. Exactly one graph source must be set:
/// `graph_path` (loaded by the driver) or `ingest` (adopted as-is — the
/// serve daemon's fingerprint-keyed graph cache hands its shared entry in
/// here; the driver copies the component labels it needs and never
/// mutates the ingest).
/// The layout knobs (backend, config, partition, multilevel) come from the
/// LayoutRequest base.
struct RunRequest : core::LayoutRequest {
    // --- graph source -----------------------------------------------------
    std::string graph_path;  ///< .gfa or .pgg, detected by extension
    bool force_pgg = false;  ///< read graph_path as .pgg regardless
    std::shared_ptr<const graph::LeanIngest> ingest;  ///< pre-loaded graph

    // --- execution --------------------------------------------------------
    /// Optional engine override for the flat path (how `--gpu=a100`
    /// constructs a non-registry machine spec). Ignored with partition.
    std::function<std::unique_ptr<core::LayoutEngine>()> engine_factory;
    std::string worker_binary;  ///< "process" executor override

    // --- outputs ----------------------------------------------------------
    std::string out_path;         ///< final .lay (atomic); may be empty when
                                  ///< the caller publishes the layout itself
    std::string save_graph_path;  ///< write the .pgg cache after loading;
                                  ///< with no out_path: convert and stop
    std::string per_component_dir;  ///< dump component_<k>.lay per component
    std::string svg_path;
    std::string ppm_path;
    bool compute_stress = false;  ///< fill RunOutcome::stress

    // --- observers --------------------------------------------------------
    core::ProgressHook iteration_progress;          ///< flat/multilevel runs
    partition::ComponentHook component_progress;    ///< partitioned runs
    /// One line per pipeline event ("loaded ...", "wrote ...", run
    /// summaries), newline-free. Unset = silent.
    std::function<void(const std::string&)> log;

    // --- component-worker mode (pgl_layout --component-worker) ------------
    bool component_worker = false;
    std::string worker_spec;  ///< encode_worker_spec payload
    int status_fd = -1;       ///< status-frame pipe; -1 = no reporting
};

struct RunOutcome {
    /// component_worker mode: the process exit code; every other field is
    /// untouched (the worker reports through its own files/pipe).
    int worker_exit_code = 0;

    /// save-graph-only request: the cache was written, no layout was run.
    bool convert_only = false;

    core::Layout layout;  ///< the published layout (stitched canvas when
                          ///< partitioned)

    // Graph shape, for callers that report it.
    std::uint64_t nodes = 0;
    std::uint64_t paths = 0;
    std::uint64_t steps = 0;
    std::uint32_t components = 0;

    bool partitioned = false;
    partition::PartitionResult partition;  ///< partitioned runs only

    std::vector<std::uint32_t> level_nodes;  ///< multilevel runs only

    std::string engine_name;  ///< resolved engine (flat/multilevel runs)
    std::uint64_t updates = 0;
    std::uint64_t skipped = 0;
    double engine_seconds = 0.0;

    bool stress_computed = false;
    metrics::StressResult stress;
};

/// Runs the whole pipeline described by `req`. Throws (std::runtime_error
/// / std::invalid_argument) on load, validation, or execution failure —
/// after the partition executors have drained in-flight components, so no
/// partial output file is ever published.
RunOutcome run_layout(const RunRequest& req);

}  // namespace pgl::driver

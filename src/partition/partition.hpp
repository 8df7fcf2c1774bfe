#pragma once
// The partition facade: remap -> schedule per-component engines (each
// building its component's subgraph just in time) -> stitch, in one call.
// This is the explode/squeeze workflow the odgi
// pipeline wraps around the paper's PG-SGD artifact, turned into a library
// entry point: feed it an ingested (possibly multi-component) whole-genome
// graph with its component labels and get back one canvas-level
// core::Layout that flows unchanged into lay_io, path_stress and the
// SVG/PPM renderers.
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/request.hpp"
#include "partition/components.hpp"
#include "partition/scheduler.hpp"
#include "partition/stitch.hpp"

namespace pgl::partition {

struct PartitionResult {
    Decomposition decomposition;  ///< remap tables only; no subgraph is kept
    std::vector<core::LayoutResult> component_results;  ///< by component id
    StitchResult stitched;
    std::uint64_t updates = 0;  ///< summed over components
    std::uint64_t skipped = 0;
    double engine_seconds = 0.0;  ///< summed engine wall-clock (CPU work)
    double seconds = 0.0;         ///< wall-clock of the whole pipeline
    double stitch_seconds = 0.0;  ///< wall-clock of the stitch pass
};

/// Remaps a lean graph with the labels its ingest computed (take_labels),
/// then lays out (run_components under `req`, calling `progress`, which
/// may be empty, once per finished component) and stitches. `g` must
/// outlive the call; the subgraphs are built from it one component at a
/// time.
PartitionResult partition_layout(const graph::LeanGraph& g,
                                 ComponentLabels labels,
                                 const core::LayoutRequest& req,
                                 const ComponentHook& progress);

}  // namespace pgl::partition

#include "partition/partition.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace pgl::partition {

PartitionResult partition_layout(const graph::LeanGraph& g,
                                 ComponentLabels labels,
                                 const core::LayoutRequest& req,
                                 const ComponentHook& progress) {
    const auto t0 = std::chrono::steady_clock::now();
    PartitionResult out;
    out.decomposition = remap(g, std::move(labels));

    {
        // The flat scheduling phase is this pipeline's "layout" stage; a
        // multilevel run gets its layout stage from the per-pass spans in
        // run_multilevel instead, so the span here only carries the trace
        // name.
        const char* span_name = req.multilevel ? "schedule" : "layout";
        telemetry::StageSpan span(span_name, "partition");
        out.component_results =
            run_components(g, out.decomposition, req, progress);
    }

    for (const core::LayoutResult& r : out.component_results) {
        out.updates += r.updates;
        out.skipped += r.skipped;
        out.engine_seconds += r.seconds;
    }
    const auto t_stitch = std::chrono::steady_clock::now();
    {
        telemetry::StageSpan span("stitch", "partition");
        out.stitched = stitch(out.decomposition, out.component_results);
    }
    out.stitch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_stitch)
            .count();

    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
}

}  // namespace pgl::partition

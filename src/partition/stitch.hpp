#pragma once
// Canvas stitching — layer 3 of the partition subsystem.
//
// Each component's layout lives in its own coordinate frame; stitching
// translates every frame onto one shared canvas with a deterministic shelf
// packing (largest bounding-box area first, shelves filled left to right).
// Components are only ever translated — never scaled or rotated — so all
// within-component geometry is preserved: per-path metrics such as path
// stress are component-local and therefore unaffected up to float rounding
// of the single translation add.
//
// The packing is a pure function of the per-component bounding boxes: it
// does not depend on scheduling order, worker count or wall-clock, so a
// stitched canvas is byte-reproducible whenever the component layouts are.
#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/layout.hpp"
#include "partition/components.hpp"

namespace pgl::partition {

/// Where one component landed on the canvas.
struct ComponentPlacement {
    float dx = 0.0f, dy = 0.0f;  ///< translation applied to every coordinate
    float min_x = 0.0f, min_y = 0.0f;  ///< source bounding box (pre-translation)
    float max_x = 0.0f, max_y = 0.0f;
};

struct StitchResult {
    core::Layout layout;  ///< the stitched canvas, indexed by global node id
    std::vector<ComponentPlacement> placements;  ///< per component id
    double width = 0.0, height = 0.0;  ///< extent of the packed canvas
};

/// Packs the per-component layouts (the scheduler's results, indexed by
/// component id, local node order) onto one canvas of aspect ratio about
/// 1, with a gap of 5% of the mean component extent between neighbours.
/// Throws std::invalid_argument when the result count or a layout's size
/// does not match the decomposition.
StitchResult stitch(const Decomposition& d,
                    const std::vector<core::LayoutResult>& component_results);

}  // namespace pgl::partition

#pragma once
// SVG rendering of pangenome layouts — the `odgi draw` equivalent used for
// the paper's visual-inspection figures (Figs. 2, 6, 14). Each node is a
// line segment; optionally one highlighted path is overdrawn in color.
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/layout.hpp"
#include "graph/lean_graph.hpp"

namespace pgl::draw {

struct SvgOptions {
    double width_px = 1200.0;
    double height_px = 800.0;
    double stroke_width = 1.0;
    std::string node_color = "#30507a";
    /// Path to overdraw in a highlight color; -1 disables.
    std::int64_t highlight_path = -1;
    std::string highlight_color = "#d0342c";
    double margin_px = 16.0;
};

/// Writes an SVG of the layout; coordinates are auto-fitted to the canvas.
void write_svg(const graph::LeanGraph& g, const core::Layout& l,
               std::ostream& out, const SvgOptions& opt = {});

/// write_svg to `path` through io::atomic_write_file: published whole or
/// not at all, and any write error throws std::runtime_error.
void write_svg_file(const graph::LeanGraph& g, const core::Layout& l,
                    const std::string& path, const SvgOptions& opt = {});

}  // namespace pgl::draw

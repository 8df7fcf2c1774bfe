#include "partition/stitch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace pgl::partition {

namespace {

/// Gap between neighbouring components, as a fraction of the mean
/// component extent (max of width/height, averaged over components).
constexpr double kMarginFrac = 0.05;
/// Canvas aspect ratio (width / height) the shelf width aims for.
constexpr double kAspect = 1.0;

void bounding_box(const core::Layout& l, ComponentPlacement& p) {
    p.min_x = p.min_y = std::numeric_limits<float>::max();
    p.max_x = p.max_y = std::numeric_limits<float>::lowest();
    for (const core::Segment& s : l) {
        p.min_x = std::min({p.min_x, s.sx, s.ex});
        p.max_x = std::max({p.max_x, s.sx, s.ex});
        p.min_y = std::min({p.min_y, s.sy, s.ey});
        p.max_y = std::max({p.max_y, s.sy, s.ey});
    }
    if (l.size() == 0) {
        p.min_x = p.min_y = p.max_x = p.max_y = 0.0f;
    }
}

}  // namespace

StitchResult stitch(const Decomposition& d,
                    const std::vector<core::LayoutResult>& component_results) {
    if (component_results.size() != d.components.size()) {
        throw std::invalid_argument("stitch: layout count != component count");
    }
    const std::size_t n = component_results.size();
    StitchResult out;
    out.placements.resize(n);
    out.layout.resize(d.global_node_count());
    if (n == 0) return out;

    double sum_extent = 0.0, total_area = 0.0, max_w = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        if (component_results[c].layout.size() !=
            d.components[c].global_node.size()) {
            throw std::invalid_argument("stitch: layout size != component size");
        }
        bounding_box(component_results[c].layout, out.placements[c]);
        const auto& p = out.placements[c];
        const double w = double(p.max_x) - p.min_x;
        const double h = double(p.max_y) - p.min_y;
        sum_extent += std::max(w, h);
        total_area += w * h;
        max_w = std::max(max_w, w);
    }
    double margin = kMarginFrac * sum_extent / static_cast<double>(n);
    if (margin <= 0.0) margin = 1.0;  // degenerate boxes still get separated

    // Shelf (next-fit decreasing-area) packing. The target width balances
    // total area against the aspect; the widest component always
    // fits on a shelf of its own.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         const auto& pa = out.placements[a];
                         const auto& pb = out.placements[b];
                         const double area_a = (double(pa.max_x) - pa.min_x) *
                                               (double(pa.max_y) - pa.min_y);
                         const double area_b = (double(pb.max_x) - pb.min_x) *
                                               (double(pb.max_y) - pb.min_y);
                         return area_a > area_b;
                     });
    const double target_w =
        std::max(max_w, std::sqrt(std::max(total_area, margin * margin) *
                                  kAspect));

    double cursor_x = 0.0, shelf_y = 0.0, shelf_h = 0.0;
    for (const std::uint32_t c : order) {
        ComponentPlacement& p = out.placements[c];
        const double w = double(p.max_x) - p.min_x;
        const double h = double(p.max_y) - p.min_y;
        if (cursor_x > 0.0 && cursor_x + w > target_w) {
            shelf_y += shelf_h + margin;
            cursor_x = 0.0;
            shelf_h = 0.0;
        }
        p.dx = static_cast<float>(cursor_x - p.min_x);
        p.dy = static_cast<float>(shelf_y - p.min_y);
        cursor_x += w + margin;
        shelf_h = std::max(shelf_h, h);
        out.width = std::max(out.width, cursor_x - margin);
        out.height = std::max(out.height, shelf_y + h);
    }

    // Translate every component into its slot. Single float add per
    // coordinate — the "modulo deterministic stitch translation" of the
    // equivalence contract.
    for (std::size_t c = 0; c < n; ++c) {
        const core::Layout& src = component_results[c].layout;
        const ComponentPlacement& p = out.placements[c];
        const auto& global = d.components[c].global_node;
        for (std::size_t i = 0; i < src.size(); ++i) {
            const core::Segment& s = src[i];
            out.layout[global[i]] = {s.sx + p.dx, s.sy + p.dy, s.ex + p.dx,
                                     s.ey + p.dy};
        }
    }
    return out;
}

}  // namespace pgl::partition

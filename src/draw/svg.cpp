#include "draw/svg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "io/atomic_file.hpp"

namespace pgl::draw {

namespace {

struct Bounds {
    float min_x = std::numeric_limits<float>::max();
    float min_y = std::numeric_limits<float>::max();
    float max_x = std::numeric_limits<float>::lowest();
    float max_y = std::numeric_limits<float>::lowest();

    void include(float x, float y) {
        min_x = std::min(min_x, x);
        min_y = std::min(min_y, y);
        max_x = std::max(max_x, x);
        max_y = std::max(max_y, y);
    }
};

}  // namespace

void write_svg(const graph::LeanGraph& g, const core::Layout& l,
               std::ostream& out, const SvgOptions& opt) {
    Bounds b;
    for (const core::Segment& s : l) {
        b.include(s.sx, s.sy);
        b.include(s.ex, s.ey);
    }
    if (l.size() == 0) {
        b = Bounds{0, 0, 1, 1};
    }
    const double span_x = std::max(1e-9, double(b.max_x) - b.min_x);
    const double span_y = std::max(1e-9, double(b.max_y) - b.min_y);
    const double usable_w = opt.width_px - 2 * opt.margin_px;
    const double usable_h = opt.height_px - 2 * opt.margin_px;
    const double s = std::min(usable_w / span_x, usable_h / span_y);

    const auto px = [&](float x) { return opt.margin_px + (x - b.min_x) * s; };
    const auto py = [&](float y) { return opt.margin_px + (y - b.min_y) * s; };

    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << opt.width_px
        << "\" height=\"" << opt.height_px << "\">\n";
    out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
    out << "<g stroke=\"" << opt.node_color << "\" stroke-width=\""
        << opt.stroke_width << "\" stroke-linecap=\"round\">\n";
    for (const core::Segment& s : l) {
        out << "<line x1=\"" << px(s.sx) << "\" y1=\"" << py(s.sy)
            << "\" x2=\"" << px(s.ex) << "\" y2=\"" << py(s.ey) << "\"/>\n";
    }
    out << "</g>\n";

    if (opt.highlight_path >= 0 &&
        opt.highlight_path < static_cast<std::int64_t>(g.path_count())) {
        const auto p = static_cast<std::uint32_t>(opt.highlight_path);
        out << "<g stroke=\"" << opt.highlight_color << "\" stroke-width=\""
            << opt.stroke_width * 1.5 << "\" fill=\"none\">\n<polyline points=\"";
        for (std::uint32_t i = 0; i < g.path_step_count(p); ++i) {
            const std::uint32_t node = g.step_node(p, i);
            const bool rev = g.step_is_reverse(p, i);
            const core::End from = rev ? core::End::kEnd : core::End::kStart;
            const core::End to = rev ? core::End::kStart : core::End::kEnd;
            const float x0 = l[node].x(from), y0 = l[node].y(from);
            const float x1 = l[node].x(to), y1 = l[node].y(to);
            out << px(x0) << ',' << py(y0) << ' ' << px(x1) << ',' << py(y1) << ' ';
        }
        out << "\"/>\n</g>\n";
    }
    out << "</svg>\n";
}

void write_svg_file(const graph::LeanGraph& g, const core::Layout& l,
                    const std::string& path, const SvgOptions& opt) {
    io::atomic_write_file(path, [&](std::ostream& out) { write_svg(g, l, out, opt); });
}

}  // namespace pgl::draw

#include "draw/ppm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "io/atomic_file.hpp"

namespace pgl::draw {

void Image::draw_line(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                      std::int64_t y1, std::uint8_t r, std::uint8_t g,
                      std::uint8_t b) {
    const std::int64_t dx = std::abs(x1 - x0);
    const std::int64_t dy = -std::abs(y1 - y0);
    const std::int64_t sx = x0 < x1 ? 1 : -1;
    const std::int64_t sy = y0 < y1 ? 1 : -1;
    std::int64_t err = dx + dy;
    for (;;) {
        if (x0 >= 0 && y0 >= 0) {
            set(static_cast<std::uint32_t>(x0), static_cast<std::uint32_t>(y0), r,
                g, b);
        }
        if (x0 == x1 && y0 == y1) break;
        const std::int64_t e2 = 2 * err;
        if (e2 >= dy) {
            err += dy;
            x0 += sx;
        }
        if (e2 <= dx) {
            err += dx;
            y0 += sy;
        }
    }
}

void Image::write_ppm(std::ostream& out) const {
    out << "P6\n" << w_ << ' ' << h_ << "\n255\n";
    out.write(reinterpret_cast<const char*>(pixels_.data()),
              static_cast<std::streamsize>(pixels_.size()));
}

void write_ppm(const core::Layout& l, std::ostream& out, const PpmOptions& opt) {
    Image img(opt.width, opt.height);
    if (l.size() > 0) {
        float min_x = std::numeric_limits<float>::max(), min_y = min_x;
        float max_x = std::numeric_limits<float>::lowest(), max_y = max_x;
        for (const core::Segment& s : l) {
            min_x = std::min({min_x, s.sx, s.ex});
            max_x = std::max({max_x, s.sx, s.ex});
            min_y = std::min({min_y, s.sy, s.ey});
            max_y = std::max({max_y, s.sy, s.ey});
        }
        const double span_x = std::max(1e-9, double(max_x) - min_x);
        const double span_y = std::max(1e-9, double(max_y) - min_y);
        const double s = std::min((opt.width - 2.0 * opt.margin) / span_x,
                                  (opt.height - 2.0 * opt.margin) / span_y);
        const auto px = [&](float x) {
            return static_cast<std::int64_t>(opt.margin + (x - min_x) * s);
        };
        const auto py = [&](float y) {
            return static_cast<std::int64_t>(opt.margin + (y - min_y) * s);
        };
        for (const core::Segment& s : l) {
            img.draw_line(px(s.sx), py(s.sy), px(s.ex), py(s.ey), opt.r, opt.g,
                          opt.b);
        }
    }
    img.write_ppm(out);
}

void write_ppm_file(const core::Layout& l, const std::string& path,
                    const PpmOptions& opt) {
    io::atomic_write_file(path, [&](std::ostream& out) { write_ppm(l, out, opt); });
}

}  // namespace pgl::draw

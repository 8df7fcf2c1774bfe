#pragma once
// Minimal raster renderer (binary PPM, P6) — the bitmap analog of the
// paper's `odgi draw` PNG output, for environments without an SVG viewer.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/layout.hpp"

namespace pgl::draw {

struct PpmOptions {
    std::uint32_t width = 1024;
    std::uint32_t height = 768;
    std::uint8_t r = 0x30, g = 0x50, b = 0x7a;  ///< stroke color
    std::uint32_t margin = 12;
};

/// An RGB raster image.
class Image {
public:
    Image(std::uint32_t w, std::uint32_t h)
        : w_(w), h_(h), pixels_(static_cast<std::size_t>(w) * h * 3, 0xff) {}

    std::uint32_t width() const noexcept { return w_; }
    std::uint32_t height() const noexcept { return h_; }

    void set(std::uint32_t x, std::uint32_t y, std::uint8_t r, std::uint8_t g,
             std::uint8_t b) {
        if (x >= w_ || y >= h_) return;
        const std::size_t i = (static_cast<std::size_t>(y) * w_ + x) * 3;
        pixels_[i] = r;
        pixels_[i + 1] = g;
        pixels_[i + 2] = b;
    }

    bool is_background(std::uint32_t x, std::uint32_t y) const {
        const std::size_t i = (static_cast<std::size_t>(y) * w_ + x) * 3;
        return pixels_[i] == 0xff && pixels_[i + 1] == 0xff && pixels_[i + 2] == 0xff;
    }

    /// Bresenham line.
    void draw_line(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                   std::int64_t y1, std::uint8_t r, std::uint8_t g,
                   std::uint8_t b);

    void write_ppm(std::ostream& out) const;

private:
    std::uint32_t w_, h_;
    std::vector<std::uint8_t> pixels_;
};

/// Rasterizes a layout (one segment per node) and writes binary PPM.
void write_ppm(const core::Layout& l, std::ostream& out, const PpmOptions& opt = {});

/// write_ppm to `path` through io::atomic_write_file: published whole or
/// not at all, and any write error throws std::runtime_error.
void write_ppm_file(const core::Layout& l, const std::string& path,
                    const PpmOptions& opt = {});

}  // namespace pgl::draw

// Tests for the PPM rasterizer.
#include <gtest/gtest.h>

#include <sstream>

#include "core/layout.hpp"
#include "draw/ppm.hpp"

namespace {

using namespace pgl;

TEST(Image, StartsWhite) {
    draw::Image img(8, 8);
    for (std::uint32_t y = 0; y < 8; ++y) {
        for (std::uint32_t x = 0; x < 8; ++x) {
            EXPECT_TRUE(img.is_background(x, y));
        }
    }
}

TEST(Image, SetAndLineBounds) {
    draw::Image img(16, 16);
    img.set(3, 4, 0, 0, 0);
    EXPECT_FALSE(img.is_background(3, 4));
    // Out-of-bounds writes are ignored, not UB.
    img.set(100, 100, 0, 0, 0);
    img.draw_line(-5, -5, 20, 20, 10, 10, 10);
    EXPECT_FALSE(img.is_background(0, 0));
    EXPECT_FALSE(img.is_background(15, 15));
}

TEST(Image, DiagonalLineIsContinuous) {
    draw::Image img(10, 10);
    img.draw_line(0, 0, 9, 9, 0, 0, 0);
    for (std::uint32_t i = 0; i < 10; ++i) {
        EXPECT_FALSE(img.is_background(i, i)) << i;
    }
}

TEST(Ppm, HeaderAndSize) {
    const core::Layout l = {{0, 0, 1, 1}};
    draw::PpmOptions opt;
    opt.width = 32;
    opt.height = 16;
    std::stringstream ss;
    draw::write_ppm(l, ss, opt);
    const std::string out = ss.str();
    const std::string header = "P6\n32 16\n255\n";
    EXPECT_EQ(out.rfind(header, 0), 0u);
    EXPECT_EQ(out.size(), header.size() + 32u * 16u * 3u);
}

TEST(Ppm, DrawsSomething) {
    // {sx, sy, ex, ey} per node.
    const core::Layout l = {{0, 0, 5, 5}, {5, 5, 10, 0}};
    std::stringstream ss;
    draw::write_ppm(l, ss);
    const std::string out = ss.str();
    // At least one non-white pixel in the payload.
    bool painted = false;
    for (std::size_t i = 16; i + 2 < out.size(); i += 3) {
        if (static_cast<unsigned char>(out[i]) != 0xff) {
            painted = true;
            break;
        }
    }
    EXPECT_TRUE(painted);
}

TEST(Ppm, EmptyLayoutStillValid) {
    core::Layout l;
    std::stringstream ss;
    draw::write_ppm(l, ss);
    EXPECT_EQ(ss.str().rfind("P6\n", 0), 0u);
}

}  // namespace

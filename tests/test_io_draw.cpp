// Tests for layout serialization (.lay) and SVG rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "core/layout.hpp"
#include "draw/svg.hpp"
#include "graph/lean_graph.hpp"
#include "io/lay_io.hpp"
#include "partition/partition.hpp"
#include "rng/xoshiro256.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

graph::LeanGraph io_graph() {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = 120;
    spec.n_paths = 3;
    spec.seed = 8;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

core::Layout io_layout(const graph::LeanGraph& g) {
    rng::Xoshiro256Plus rng(9);
    return core::make_linear_initial_layout(g, rng);
}

TEST(LayIo, RoundTripIsExact) {
    const auto g = io_graph();
    const auto l = io_layout(g);
    std::stringstream ss;
    io::write_layout(l, ss);
    const auto l2 = io::read_layout(ss);
    ASSERT_EQ(l2.size(), l.size());
    for (std::size_t i = 0; i < l.size(); ++i) {
        EXPECT_EQ(l2.start_x[i], l.start_x[i]);
        EXPECT_EQ(l2.start_y[i], l.start_y[i]);
        EXPECT_EQ(l2.end_x[i], l.end_x[i]);
        EXPECT_EQ(l2.end_y[i], l.end_y[i]);
    }
}

TEST(LayIo, EmptyLayoutRoundTrips) {
    core::Layout l;
    std::stringstream ss;
    io::write_layout(l, ss);
    EXPECT_EQ(io::read_layout(ss).size(), 0u);
}

TEST(LayIo, RejectsBadMagic) {
    std::stringstream ss("not a layout file at all");
    EXPECT_THROW(io::read_layout(ss), std::runtime_error);
}

TEST(LayIo, RejectsTruncatedFile) {
    const auto g = io_graph();
    const auto l = io_layout(g);
    std::stringstream ss;
    io::write_layout(l, ss);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(io::read_layout(cut), std::runtime_error);
}

TEST(LayIo, FileRoundTrip) {
    const auto g = io_graph();
    const auto l = io_layout(g);
    const std::string path = ::testing::TempDir() + "/pgl_test.lay";
    io::write_layout_file(l, path);
    const auto l2 = io::read_layout_file(path);
    EXPECT_EQ(l2.size(), l.size());
}

TEST(LayIo, MissingFileThrows) {
    EXPECT_THROW(io::read_layout_file("/nonexistent/nowhere.lay"),
                 std::runtime_error);
}

TEST(LayIo, RejectsTruncatedHeader) {
    const auto l = io_layout(io_graph());
    std::stringstream ss;
    io::write_layout(l, ss);
    // Cut inside the u64 node count, right after the 8-byte magic.
    std::stringstream cut(ss.str().substr(0, 12));
    EXPECT_THROW(io::read_layout(cut), std::runtime_error);
}

TEST(LayIo, RejectsPayloadShortByOneFloat) {
    const auto l = io_layout(io_graph());
    std::stringstream ss;
    io::write_layout(l, ss);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() - sizeof(float)));
    EXPECT_THROW(io::read_layout(cut), std::runtime_error);
}

TEST(LayIo, ZeroNodeFileRoundTrips) {
    const std::string path = ::testing::TempDir() + "/pgl_zero.lay";
    io::write_layout_file(core::Layout{}, path);
    EXPECT_EQ(io::read_layout_file(path).size(), 0u);
}

TEST(LayIo, PartitionStitchedRoundTripIsBitwise) {
    // A stitched multi-component canvas must survive the .lay round trip
    // bit-for-bit, exactly like a single-component layout.
    auto ing = workloads::to_ingest(workloads::generate_whole_genome(
        workloads::whole_genome_spec(2, 0.0002, 11)));
    partition::PartitionOptions popt;
    popt.schedule.config.iter_max = 2;
    popt.schedule.config.steps_per_iter_factor = 0.2;
    const auto part =
        partition::partition_layout(ing.graph, partition::take_labels(ing), popt);
    const std::string path = ::testing::TempDir() + "/pgl_partition.lay";
    io::write_layout_file(part.stitched.layout, path);
    const auto back = io::read_layout_file(path);
    ASSERT_EQ(back.size(), part.stitched.layout.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back.start_x[i], part.stitched.layout.start_x[i]);
        EXPECT_EQ(back.start_y[i], part.stitched.layout.start_y[i]);
        EXPECT_EQ(back.end_x[i], part.stitched.layout.end_x[i]);
        EXPECT_EQ(back.end_y[i], part.stitched.layout.end_y[i]);
    }
}

TEST(Svg, ContainsOneLinePerNode) {
    const auto g = io_graph();
    const auto l = io_layout(g);
    std::stringstream ss;
    draw::write_svg(g, l, ss);
    const std::string svg = ss.str();
    std::size_t lines = 0, pos = 0;
    while ((pos = svg.find("<line ", pos)) != std::string::npos) {
        ++lines;
        pos += 6;
    }
    EXPECT_EQ(lines, g.node_count());
    EXPECT_NE(svg.find("<svg "), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, HighlightAddsPolyline) {
    const auto g = io_graph();
    const auto l = io_layout(g);
    draw::SvgOptions opt;
    opt.highlight_path = 0;
    std::stringstream ss;
    draw::write_svg(g, l, ss, opt);
    EXPECT_NE(ss.str().find("<polyline"), std::string::npos);
}

TEST(Svg, CoordinatesStayOnCanvas) {
    const auto g = io_graph();
    auto l = io_layout(g);
    // Extreme coordinates must still be fitted inside the viewport.
    l.start_x[0] = -1e6;
    l.end_x[1] = 1e6;
    draw::SvgOptions opt;
    opt.width_px = 400;
    opt.height_px = 300;
    std::stringstream ss;
    draw::write_svg(g, l, ss, opt);
    // Parse every x1= attribute and check bounds.
    const std::string svg = ss.str();
    std::size_t pos = 0;
    while ((pos = svg.find("x1=\"", pos)) != std::string::npos) {
        pos += 4;
        const double v = std::stod(svg.substr(pos));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 400.0);
    }
}

TEST(Svg, EmptyLayoutStillValidSvg) {
    graph::VariationGraph vg;
    const auto g = workloads::to_ingest(vg).graph;
    core::Layout l;
    std::stringstream ss;
    draw::write_svg(g, l, ss);
    EXPECT_NE(ss.str().find("</svg>"), std::string::npos);
}

}  // namespace

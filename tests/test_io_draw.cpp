// Tests for layout serialization (.lay) and SVG rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

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
        EXPECT_EQ(l2[i].sx, l[i].sx);
        EXPECT_EQ(l2[i].sy, l[i].sy);
        EXPECT_EQ(l2[i].ex, l[i].ex);
        EXPECT_EQ(l2[i].ey, l[i].ey);
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

TEST(LayIo, RejectsHugeNodeCountHeader) {
    // A hostile or bit-flipped node count must fail as a typed parse error
    // while reading, not as bad_alloc/length_error from sizing the layout
    // up front (the daemon's artifact cache parses every cached file).
    for (const std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
        std::string bytes("PGLAY001");
        bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
        bytes.append(16 * sizeof(float), '\0');  // far short of n nodes
        std::stringstream ss(bytes);
        EXPECT_THROW(io::read_layout(ss), std::runtime_error) << "n = " << n;
    }
}

TEST(LayIo, WritesWholeColumnsInSxSyExEyOrder) {
    // In memory a node is one {sx, sy, ex, ey} record; on disk the file
    // holds whole columns. Pin the exact bytes so a transposition between
    // the two orders fails here by name, not only as a golden digest.
    const core::Layout l = {{1.0f, 2.0f, 3.0f, 4.0f}, {5.0f, 6.0f, 7.0f, 8.0f}};
    std::stringstream ss;
    io::write_layout(l, ss);
    const std::string out = ss.str();
    ASSERT_EQ(out.size(), 8u + sizeof(std::uint64_t) + 8 * sizeof(float));
    EXPECT_EQ(out.substr(0, 8), "PGLAY001");
    std::uint64_t n = 0;
    std::memcpy(&n, out.data() + 8, sizeof n);
    EXPECT_EQ(n, 2u);
    const char* const names[8] = {"sx0", "sx1", "sy0", "sy1",
                                  "ex0", "ex1", "ey0", "ey1"};
    const float want[8] = {1.0f, 5.0f, 2.0f, 6.0f, 3.0f, 7.0f, 4.0f, 8.0f};
    for (std::size_t k = 0; k < 8; ++k) {
        float v = 0.0f;
        std::memcpy(&v, out.data() + 16 + k * sizeof(float), sizeof v);
        EXPECT_EQ(v, want[k]) << "payload float " << k << " should be "
                              << names[k];
    }
    EXPECT_EQ(io::read_layout(ss), l);
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
    core::LayoutRequest req;
    req.config.iter_max = 2;
    req.config.steps_per_iter_factor = 0.2;
    const auto part = partition::partition_layout(
        ing.graph, partition::take_labels(ing), req, {});
    const std::string path = ::testing::TempDir() + "/pgl_partition.lay";
    io::write_layout_file(part.stitched.layout, path);
    const auto back = io::read_layout_file(path);
    ASSERT_EQ(back.size(), part.stitched.layout.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].sx, part.stitched.layout[i].sx);
        EXPECT_EQ(back[i].sy, part.stitched.layout[i].sy);
        EXPECT_EQ(back[i].ex, part.stitched.layout[i].ex);
        EXPECT_EQ(back[i].ey, part.stitched.layout[i].ey);
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
    l[0].sx = -1e6;
    l[1].ex = 1e6;
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

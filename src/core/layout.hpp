#pragma once
// Layout state for PG-SGD. Each node is drawn as a line segment with a
// start and an end visualization point (paper Sec. II-C); the layout is the
// collection of those 2n points.
//
// Every coordinate lives in one record per node, core::Segment
// {sx, sy, ex, ey}: the paper's cache-friendly data layout (CDL, Sec. V-B1,
// Fig. 9b), so one term touches one 16-byte record per endpoint instead of
// an x line and a y line. core::Layout is a plain vector of them (metrics,
// IO, rendering, stitching); XYStore holds the same records for the engines
// in one heap vector, exposed as a raw float array for the update kernels
// (core/kernels/). Loading and snapshotting a store are one byte copy each. The structure-of-arrays
// order survives only as the .lay on-disk format (io/lay_io.cpp).
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "graph/lean_graph.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

/// Endpoint selector for a node's line segment.
enum class End : std::uint8_t { kStart = 0, kEnd = 1 };

/// One node's segment: the start point (sx, sy) and the end point (ex, ey),
/// packed so a node's coordinates share one 16-byte record. Trivial, so a
/// Layout converts to and from the engines' float store by byte copies.
struct Segment {
    float sx, sy, ex, ey;

    // Looked up rather than branched on: callers pass random ends, which a
    // branch would mispredict half the time.
    float x(End e) const noexcept {
        static constexpr float Segment::*kX[2] = {&Segment::sx, &Segment::ex};
        return this->*kX[static_cast<std::size_t>(e)];
    }
    float y(End e) const noexcept {
        static constexpr float Segment::*kY[2] = {&Segment::sy, &Segment::ey};
        return this->*kY[static_cast<std::size_t>(e)];
    }

    friend bool operator==(const Segment&, const Segment&) = default;
};

static_assert(std::is_trivial_v<Segment> && sizeof(Segment) == 4 * sizeof(float));

/// A storage-agnostic snapshot of a layout (used by metrics, IO and
/// rendering). Index i holds the segment of node i.
using Layout = std::vector<Segment>;

/// Initializes a layout the way odgi-layout does: nodes are unrolled along
/// one axis by cumulative nucleotide offset (so the initial picture is the
/// linear genome), with small uniform jitter on the other axis to break the
/// 1-D symmetry of the gradient, one mean node length wide.
template <typename Rng>
Layout make_linear_initial_layout(const graph::LeanGraph& g, Rng& rng) {
    Layout l;
    l.resize(g.node_count());
    double x = 0.0;
    double mean_len = 0.0;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) mean_len += g.node_length(i);
    mean_len = g.node_count() ? mean_len / g.node_count() : 1.0;
    for (std::uint32_t i = 0; i < g.node_count(); ++i) {
        l[i].sx = static_cast<float>(x);
        x += g.node_length(i);
        l[i].ex = static_cast<float>(x);
        l[i].sy = static_cast<float>((rng.next_double() - 0.5) * mean_len);
        l[i].ey = static_cast<float>((rng.next_double() - 0.5) * mean_len);
    }
    return l;
}

/// The layout an engine starts a run from: cfg.initial_layout when set (a
/// warm start — validated against the graph's node count), otherwise the
/// seeded linear initial layout. Every backend goes through this one
/// function so a warm-started refinement pass means the same thing on all
/// of them, and the init-jitter RNG stream stays identical to the
/// historical per-engine code (seed XOR'd with a fixed salt).
inline Layout make_initial_layout(const graph::LeanGraph& g,
                                  const LayoutConfig& cfg) {
    if (cfg.initial_layout) {
        if (cfg.initial_layout->size() != g.node_count()) {
            throw std::invalid_argument(
                "LayoutConfig::initial_layout holds " +
                std::to_string(cfg.initial_layout->size()) +
                " segments for a graph of " + std::to_string(g.node_count()) +
                " nodes");
        }
        return *cfg.initial_layout;
    }
    rng::Xoshiro256Plus init_rng(cfg.seed ^ 0xa02bdbf7bb3c0a7ULL);
    return make_linear_initial_layout(g, init_rng);
}

/// The engines' coordinate store: one array of Segment records, element
/// 4*node + 2*end holding an endpoint's x and the next element its y
/// ([sx0, sy0, ex0, ey0, sx1, ...]). data() is that raw contiguous float
/// array, which the update kernels and every other single-writer apply
/// read and write with plain loads and stores.
///
/// Storage is one heap vector, so copying and moving a store are the
/// vector's own.
class XYStore {
public:
    XYStore() = default;
    explicit XYStore(const Layout& init) : xy_(4 * init.size()) {
        if (!init.empty()) {
            std::memcpy(xy_.data(), init.data(), init.size() * sizeof(Segment));
        }
    }

    std::size_t node_count() const noexcept { return xy_.size() / 4; }

    /// Float index of an endpoint's x; its y is the next float.
    static std::size_t index(std::uint32_t node, End e) noexcept {
        return 4 * static_cast<std::size_t>(node) +
               2 * static_cast<std::size_t>(e);
    }

    float* data() noexcept { return xy_.data(); }
    const float* data() const noexcept { return xy_.data(); }

    Layout snapshot() const {
        Layout l(node_count());
        if (!l.empty()) {
            std::memcpy(l.data(), xy_.data(), l.size() * sizeof(Segment));
        }
        return l;
    }

private:
    // The records are kept as a plain float array and converted to and
    // from Layout's Segments by byte copies, so the kernels' float
    // indexing never walks a pointer across struct members.
    std::vector<float> xy_;
};

}  // namespace pgl::core

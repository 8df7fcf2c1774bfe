#include "multilevel/interpolate.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pgl::multilevel {

namespace {

/// Endpoint-exact lerp: t == 0 returns a bit-exactly, t == 1 returns b
/// bit-exactly (the arithmetic below is exact for those parameters in
/// double, and the float round-trip of a float is the identity).
inline float lerp(float a, float b, double t) {
    return static_cast<float>((1.0 - t) * static_cast<double>(a) +
                              t * static_cast<double>(b));
}

}  // namespace

core::Layout interpolate(const CoarseMap& map, const core::Layout& coarse,
                         const graph::LeanGraph& fine) {
    if (coarse.size() != map.coarse_count()) {
        throw std::invalid_argument(
            "multilevel::interpolate: coarse layout holds " +
            std::to_string(coarse.size()) + " segments for " +
            std::to_string(map.coarse_count()) + " coarse nodes");
    }
    if (fine.node_count() != map.fine_count()) {
        throw std::invalid_argument(
            "multilevel::interpolate: fine graph holds " +
            std::to_string(fine.node_count()) + " nodes but the map covers " +
            std::to_string(map.fine_count()));
    }

    core::Layout out;
    out.resize(fine.node_count());
    for (std::uint32_t v = 0; v < fine.node_count(); ++v) {
        const std::uint32_t c = map.coarse_of[v];
        const double len = static_cast<double>(map.run_length[c]);
        const double off = static_cast<double>(map.offset_of[v]);
        const double t_entry = len > 0.0 ? off / len : 0.0;
        const double t_exit =
            len > 0.0 ? (off + static_cast<double>(fine.node_length(v))) / len
                      : 0.0;
        // The run crosses v from its start endpoint when v lies forward in
        // the run, from its end endpoint when flipped.
        const double t_start = map.flipped[v] ? t_exit : t_entry;
        const double t_end = map.flipped[v] ? t_entry : t_exit;
        const core::Segment& s = coarse[c];
        out[v] = {lerp(s.sx, s.ex, t_start), lerp(s.sy, s.ey, t_start),
                  lerp(s.sx, s.ex, t_end), lerp(s.sy, s.ey, t_end)};
    }
    return out;
}

}  // namespace pgl::multilevel

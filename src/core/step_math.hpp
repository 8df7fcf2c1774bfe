#pragma once
// The arithmetic heart of one PG-SGD update (Alg. 1 lines 14-15): given the
// two selected visualization points and their reference distance, move both
// points against the gradient of stress = ((|vi - vj| - d_ref)/d_ref)^2.
// Shared verbatim by the CPU engine, the GPU simulator and the tensor
// implementation so all backends optimize the identical objective.
#include <cmath>
#include <cstdint>

namespace pgl::core {

struct PointDelta {
    float dx_i, dy_i;  // displacement applied to v_i
    float dx_j, dy_j;  // displacement applied to v_j
    double stress;     // the term's stress value before the update
};

/// The small nonzero coincident-point separation passed to
/// sgd_term_update, from the 32 middle bits (16..47) of one PRNG word. A
/// sampled term takes it from w3, the fourth of its four words
/// (core/sampling.hpp), whose top four bits are the term's coins; the low
/// bits of Xoshiro256+ are weak and are never read. Every engine therefore
/// applies a term with the nudge its own words fixed, drawn whether or not
/// the term turns out valid.
inline double nudge_from_word(std::uint64_t w) noexcept {
    const double u = static_cast<double>((w >> 16) & 0xffffffffu) * 0x1.0p-32;
    const double n = (u - 0.5) * 1e-3;
    return n == 0.0 ? 1e-4 : n;
}

/// A nudge for an update that is not a sampled term (the GPU simulator's
/// data-reuse updates): one fresh word through nudge_from_word.
template <typename Rng>
double draw_nudge(Rng& rng) noexcept {
    return nudge_from_word(rng.next());
}

/// Computes the update for one term.
/// `eta` is the current learning rate; the per-term weight is 1/d_ref^2 and
/// the combined step size mu = eta * w is clamped to 1 as in Zheng et al.
/// `nudge` must be a small nonzero value used to separate coincident points
/// (callers draw it from their PRNG so behaviour stays deterministic).
inline PointDelta sgd_term_update(float xi, float yi, float xj, float yj,
                                  double d_ref, double eta,
                                  double nudge) noexcept {
    const double dx0 = static_cast<double>(xi) - xj;
    const double dy0 = static_cast<double>(yi) - yj;
    double dx = dx0;
    double dy = dy0;
    double mag = std::sqrt(dx * dx + dy * dy);
    if (mag < 1e-9) {
        // Coincident points: pick an arbitrary tiny separation so the
        // gradient is defined (odgi does the same with a random direction).
        dx = nudge;
        dy = 0.0;
        mag = std::abs(nudge);
    }

    const double w = 1.0 / (d_ref * d_ref);
    double mu = eta * w;
    if (mu > 1.0) mu = 1.0;

    const double residual = (mag - d_ref) / d_ref;
    const double delta = mu * (mag - d_ref) / 2.0;
    const double r = delta / mag;
    const double rx = r * dx;
    const double ry = r * dy;

    PointDelta out;
    out.dx_i = static_cast<float>(-rx);
    out.dy_i = static_cast<float>(-ry);
    out.dx_j = static_cast<float>(rx);
    out.dy_j = static_cast<float>(ry);
    out.stress = residual * residual;
    return out;
}

}  // namespace pgl::core

#pragma once
// XORWOW (Marsaglia, 2003) — the default generator of NVIDIA cuRAND. The
// paper (Sec. V-B2) notes each cuRAND state is "a structure consisting of six
// 32-bit fields"; we keep exactly that shape so the AoS-vs-SoA coalescing
// experiment (coalesced random states) is faithful.
#include <cstdint>

#include "rng/splitmix64.hpp"

namespace pgl::rng {

/// Plain-old-data XORWOW state: five xorshift words plus a Weyl counter.
/// Layout matters: sizeof(XorwowState) == 24 bytes, six 32-bit fields.
struct XorwowState {
    std::uint32_t v[5];
    std::uint32_t d;
};

static_assert(sizeof(XorwowState) == 24, "cuRAND-compatible state is 6 x u32");

/// Seed a state the way curand_init seeds sequence `seq` of seed `seed`.
inline XorwowState xorwow_init(std::uint64_t seed, std::uint64_t sequence) noexcept {
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (sequence + 1)));
    XorwowState st;
    for (auto& w : st.v) {
        w = static_cast<std::uint32_t>(sm.next() >> 32);
        if (w == 0) w = 0x6c078965u;  // never an all-zero xorshift register
    }
    st.d = static_cast<std::uint32_t>(sm.next());
    return st;
}

/// One XORWOW step: returns a 32-bit variate and advances the state.
inline std::uint32_t xorwow_next(XorwowState& st) noexcept {
    const std::uint32_t t = st.v[0] ^ (st.v[0] >> 2);
    st.v[0] = st.v[1];
    st.v[1] = st.v[2];
    st.v[2] = st.v[3];
    st.v[3] = st.v[4];
    st.v[4] = (st.v[4] ^ (st.v[4] << 4)) ^ (t ^ (t << 1));
    st.d += 362437u;
    return st.v[4] + st.d;
}

/// Uniform float in [0, 1) from one XORWOW draw (curand_uniform semantics).
inline float xorwow_uniform(XorwowState& st) noexcept {
    return static_cast<float>(xorwow_next(st) >> 8) * 0x1.0p-24f;
}

/// Uniform integer in [0, bound).
inline std::uint32_t xorwow_bounded(XorwowState& st, std::uint32_t bound) noexcept {
    const std::uint64_t m = static_cast<std::uint64_t>(xorwow_next(st)) * bound;
    return static_cast<std::uint32_t>(m >> 32);
}

/// Adapter giving a XORWOW state the generator interface the sampler
/// expects: next() is one 64-bit word from two 32-bit draws, so a term's
/// four words are eight draws of the lane's state. flip_coin() is the
/// warp-merging kernel's once-per-warp branch coin. Holds a reference:
/// the state array itself lives wherever the caller keeps it (e.g. the
/// GPU simulator's per-lane state buffers).
class XorwowRng {
public:
    explicit XorwowRng(XorwowState& st) noexcept : st_(&st) {}

    std::uint64_t next() noexcept {
        const std::uint64_t hi = xorwow_next(*st_);
        return (hi << 32) | xorwow_next(*st_);
    }

    bool flip_coin() noexcept { return (xorwow_next(*st_) >> 31) != 0; }

private:
    XorwowState* st_;
};

}  // namespace pgl::rng

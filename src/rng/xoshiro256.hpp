#pragma once
// Xoshiro256+ (Blackman & Vigna, 2021) — the LFSR-class PRNG used by the
// odgi-layout CPU baseline (paper Sec. III-B). Low computational cost, which
// is precisely why the layout workload is memory- rather than compute-bound.
#include <cstdint>

#include "rng/splitmix64.hpp"

namespace pgl::rng {

class Xoshiro256Plus {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256Plus(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
        SplitMix64 sm(seed);
        for (auto& w : s_) w = sm.next();
    }

    std::uint64_t next() noexcept {
        const std::uint64_t result = s_[0] + s_[3];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    std::uint64_t operator()() noexcept { return next(); }

    /// The four state words, for code that steps several streams in SIMD
    /// lanes; set_state() replaces them.
    const std::uint64_t* state() const noexcept { return s_; }
    void set_state(const std::uint64_t* s) noexcept {
        for (int i = 0; i < 4; ++i) s_[i] = s[i];
    }

    /// Uniform double in [0, 1).
    double next_double() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform integer in [0, bound) via Lemire's multiply-shift reduction.
    std::uint64_t next_bounded(std::uint64_t bound) noexcept {
        const unsigned __int128 m =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    bool flip_coin() noexcept { return (next() >> 63) != 0; }

    /// Words one jump_block() skips: 1024 terms of four words each.
    static constexpr std::uint64_t kBlockWords = 4096;

    /// Jump function: equivalent to 2^128 calls of next(); used to give each
    /// worker thread a disjoint subsequence.
    void jump() noexcept {
        static constexpr std::uint64_t kJump[] = {
            0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
            0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
        apply_jump(kJump);
    }

    /// Equivalent to kBlockWords calls of next(): positions a stream at the
    /// next fixed block of words without drawing them (paper Sec. V-B2's
    /// pre-positioned random states). The constant is x^kBlockWords mod
    /// P(x), where P is the generator's characteristic polynomial, found
    /// by Berlekamp-Massey over the sequence of one state bit; the same
    /// derivation reproduces kJump as x^(2^128) mod P.
    void jump_block() noexcept {
        static constexpr std::uint64_t kJumpBlock[] = {
            0xd7f4e8da7e228b85ULL, 0xd638d47ec5bcf595ULL,
            0xaa6eb691cbf9ce10ULL, 0x0f41cce3698fad39ULL};
        apply_jump(kJumpBlock);
    }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~0ULL; }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    /// Replaces the state with p(T)·s, where p is the jump polynomial
    /// (bit b of word i is the coefficient of x^(64i+b)) and T is next().
    void apply_jump(const std::uint64_t (&poly)[4]) noexcept {
        std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::uint64_t word : poly) {
            for (int b = 0; b < 64; ++b) {
                if (word & (1ULL << b)) {
                    s0 ^= s_[0];
                    s1 ^= s_[1];
                    s2 ^= s_[2];
                    s3 ^= s_[3];
                }
                next();
            }
        }
        s_[0] = s0;
        s_[1] = s1;
        s_[2] = s2;
        s_[3] = s3;
    }

    std::uint64_t s_[4];
};

}  // namespace pgl::rng

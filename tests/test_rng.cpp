// Tests for the RNG substrate: SplitMix64, Xoshiro256+, XORWOW and the
// single-draw alias table behind path selection and the Zipf hop.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/config.hpp"
#include "core/sampling.hpp"
#include "rng/alias_table.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xorwow.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using namespace pgl::rng;

TEST(SplitMix64, KnownSequenceFromSeedZero) {
    // Reference values from the canonical splitmix64.c (Vigna).
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DistinctSeedsDiverge) {
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256Plus, DeterministicForSeed) {
    Xoshiro256Plus a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256Plus, DoubleInUnitInterval) {
    Xoshiro256Plus rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Xoshiro256Plus, DoubleMeanNearHalf) {
    Xoshiro256Plus rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro256Plus, BoundedStaysInRange) {
    Xoshiro256Plus rng(13);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_bounded(bound), bound);
        }
    }
}

TEST(Xoshiro256Plus, BoundedIsRoughlyUniform) {
    Xoshiro256Plus rng(17);
    constexpr std::uint64_t kBound = 10;
    std::array<int, kBound> counts{};
    const int n = 100000;
    for (int i = 0; i < n; ++i) counts[rng.next_bounded(kBound)]++;
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
    }
}

TEST(Xoshiro256Plus, FlipCoinIsFair) {
    Xoshiro256Plus rng(19);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) heads += rng.flip_coin();
    EXPECT_NEAR(heads, n / 2.0, n * 0.01);
}

TEST(Xoshiro256Plus, JumpProducesDisjointStream) {
    Xoshiro256Plus a(23);
    Xoshiro256Plus b = a;
    b.jump();
    // Streams should not collide over a short horizon.
    std::vector<std::uint64_t> av, bv;
    for (int i = 0; i < 100; ++i) {
        av.push_back(a.next());
        bv.push_back(b.next());
    }
    EXPECT_NE(av, bv);
}

/// The next `n` outputs: equal runs of outputs mean equal states.
template <typename Rng>
std::vector<std::uint64_t> outputs(Rng rng, int n = 8) {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < n; ++i) out.push_back(rng.next());
    return out;
}

/// xoshiro256plus.c as published (Blackman & Vigna), seeded like
/// Xoshiro256Plus: four SplitMix64 words.
struct PublishedXoshiro256Plus {
    std::uint64_t s[4];

    explicit PublishedXoshiro256Plus(std::uint64_t seed) {
        SplitMix64 sm(seed);
        for (auto& w : s) w = sm.next();
    }

    static std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t next() {
        const std::uint64_t result = s[0] + s[3];
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    void jump() {
        static const std::uint64_t JUMP[] = {
            0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa,
            0x39abdc4529b1661c};
        std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::uint64_t word : JUMP) {
            for (int b = 0; b < 64; b++) {
                if (word & (UINT64_C(1) << b)) {
                    s0 ^= s[0];
                    s1 ^= s[1];
                    s2 ^= s[2];
                    s3 ^= s[3];
                }
                next();
            }
        }
        s[0] = s0;
        s[1] = s1;
        s[2] = s2;
        s[3] = s3;
    }
};

/// The states the jump tests start from: 64 SplitMix-seeded states and
/// the engine's default seed state.
std::vector<std::uint64_t> jump_seeds() {
    std::vector<std::uint64_t> seeds;
    SplitMix64 sm(0x5eed);
    for (int i = 0; i < 64; ++i) seeds.push_back(sm.next());
    seeds.push_back(pgl::core::LayoutConfig{}.seed);
    return seeds;
}

TEST(Xoshiro256Plus, JumpMatchesThePublishedJump) {
    for (const std::uint64_t seed : jump_seeds()) {
        Xoshiro256Plus ours(seed);
        PublishedXoshiro256Plus ref(seed);
        ASSERT_EQ(outputs(ours), outputs(ref)) << seed;
        for (int jumps = 1; jumps <= 2; ++jumps) {
            ours.jump();
            ref.jump();
            EXPECT_EQ(outputs(ours), outputs(ref)) << seed << " x" << jumps;
        }
    }
}

TEST(Xoshiro256Plus, JumpBlockSkipsExactlyOneBlockOfWords) {
    static_assert(Xoshiro256Plus::kBlockWords ==
                  pgl::core::kTermWords * pgl::core::kBlock);
    for (const std::uint64_t seed : jump_seeds()) {
        Xoshiro256Plus jumped(seed), stepped(seed);
        for (int block = 1; block <= 3; ++block) {
            jumped.jump_block();
            for (std::uint64_t i = 0; i < Xoshiro256Plus::kBlockWords; ++i) {
                stepped.next();
            }
            ASSERT_EQ(outputs(jumped), outputs(stepped))
                << "seed " << seed << ", block " << block;
        }
    }
}

TEST(Xorwow, StateIsSixWords) {
    EXPECT_EQ(sizeof(XorwowState), 24u);
}

TEST(Xorwow, DeterministicPerSequence) {
    XorwowState a = xorwow_init(99, 5);
    XorwowState b = xorwow_init(99, 5);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(xorwow_next(a), xorwow_next(b));
}

TEST(Xorwow, SequencesAreDecorrelated) {
    XorwowState a = xorwow_init(99, 0);
    XorwowState b = xorwow_init(99, 1);
    int equal = 0;
    for (int i = 0; i < 1000; ++i) equal += (xorwow_next(a) == xorwow_next(b));
    EXPECT_LT(equal, 5);
}

TEST(Xorwow, UniformInUnitInterval) {
    XorwowState st = xorwow_init(1, 2);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const float f = xorwow_uniform(st);
        ASSERT_GE(f, 0.0f);
        ASSERT_LT(f, 1.0f);
        sum += f;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xorwow, BoundedStaysInRange) {
    XorwowState st = xorwow_init(3, 4);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(xorwow_bounded(st, 37), 37u);
    }
}

// --- Single-draw alias tables against their exact pmf ---

/// Draws `n` indices from `t` and returns Pearson's chi-square statistic
/// against `weights` over the nonzero-weight cells; a zero-weight cell that
/// is ever drawn fails the test directly.
double alias_chi_square(const AliasTable& t, const std::vector<double>& weights,
                        int n, std::uint64_t seed) {
    std::vector<double> counts(weights.size(), 0.0);
    Xoshiro256Plus rng(seed);
    for (int i = 0; i < n; ++i) {
        const std::uint32_t k = t.draw(rng.next());
        EXPECT_LT(k, weights.size());
        if (k < weights.size()) counts[k] += 1;
    }
    double total = 0;
    for (double w : weights) total += w;
    double chi2 = 0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        const double expected = n * weights[k] / total;
        if (weights[k] == 0.0) {
            EXPECT_EQ(counts[k], 0.0) << "zero-weight cell " << k << " drawn";
            continue;
        }
        chi2 += (counts[k] - expected) * (counts[k] - expected) / expected;
    }
    return chi2;
}

/// A chi-square bound a correct sampler exceeds with probability below
/// about 1e-6 for `df` degrees of freedom (Wilson-Hilferty).
double chi_square_bound(double df) {
    const double z = 4.8;
    const double a = 2.0 / (9.0 * df);
    return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

double nonzero_cells(const std::vector<double>& w) {
    double n = 0;
    for (double x : w) n += x > 0.0;
    return n;
}

TEST(AliasTable, MulhiMapsTheWordOntoTheRange) {
    EXPECT_EQ(mulhi(0, 1000), 0u);
    EXPECT_EQ(mulhi(~0ULL, 1000), 999u);
    EXPECT_EQ(mulhi(1ULL << 63, 1000), 500u);
    EXPECT_EQ(mulhi(~0ULL, 1), 0u);
}

TEST(AliasTable, SingleBucket) {
    const std::vector<double> w{5.0};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(35);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(t.draw(rng.next()), 0u);
    EXPECT_EQ(t.draw(~0ULL), 0u);
}

TEST(AliasTable, PathWeightsMatchTheExactPmf) {
    const std::vector<std::vector<double>> cases = {
        {1.0, 2.0, 3.0, 4.0},
        {0.0, 1.0, 0.0, 1.0},                  // zero-weight entries
        {3.0, 0.0, 0.0, 7.0, 0.0, 11.0, 0.0},  // zero-weight runs
        {1.0, 1.0, 1.0, 1.0, 1.0, 1000.0},     // one path dominates
        {1e-3, 1.0, 10.0, 100.0, 1000.0},      // four decades of skew
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const auto& w = cases[c];
        AliasTable t{std::span<const double>(w)};
        const double chi2 = alias_chi_square(t, w, 400000, 36 + c);
        EXPECT_LT(chi2, chi_square_bound(nonzero_cells(w) - 1)) << "case " << c;
    }
}

TEST(AliasTable, ExtremeWeightSkew) {
    const std::vector<double> w{1e-9, 1e9};
    AliasTable t{std::span<const double>(w)};
    Xoshiro256Plus rng(38);
    int zeros = 0;
    for (int i = 0; i < 100000; ++i) zeros += (t.draw(rng.next()) == 0);
    EXPECT_LT(zeros, 5);
}

TEST(AliasTable, ZipfSpacesMatchTheExactPmf) {
    // The cooling branch's hop tables: weight k^-theta for k in [1, space].
    for (const double theta : {0.99, 2.0}) {
        for (const std::size_t space : {1u, 2u, 7u, 1000u}) {
            std::vector<double> w(space);
            for (std::size_t k = 1; k <= space; ++k) {
                w[k - 1] = std::pow(static_cast<double>(k), -theta);
            }
            AliasTable t{std::span<const double>(w)};
            ASSERT_EQ(t.size(), space);
            const double chi2 = alias_chi_square(t, w, 1000000, 40 + space);
            if (space > 1) {
                EXPECT_LT(chi2, chi_square_bound(static_cast<double>(space) - 1))
                    << "space " << space << " theta " << theta;
            }
        }
    }
}

}  // namespace

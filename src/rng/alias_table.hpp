#pragma once
// Walker/Vose alias table drawn from a single 64-bit word. PG-SGD picks a
// path with probability proportional to its step count (Alg. 1 line 5) and,
// in the cooling branch, a Zipf hop over k^-theta (line 8); with thousands
// of paths per chromosome graph both must be constant-time, and with one
// word per draw neither needs a second PRNG call or a pow().
//
// One word w over n buckets: the high half of the 128-bit product w * n is
// the bucket (Lemire's multiply-shift reduction), and the low half — a
// uniform 64-bit fraction of the same word — is compared with the bucket's
// integer threshold to choose between the bucket and its alias.
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace pgl::rng {

/// High 64 bits of w * n: a uniform index in [0, n) for a uniform w.
inline std::uint64_t mulhi(std::uint64_t w, std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(w) * n) >> 64);
}

class AliasTable {
public:
    struct Bucket {
        std::uint64_t threshold;  ///< keep the bucket when the fraction is below
        std::uint32_t alias;
    };

    AliasTable() = default;

    explicit AliasTable(std::span<const double> weights) { build(weights); }

    void build(std::span<const double> weights) {
        const std::size_t n = weights.size();
        assert(n > 0);
        // A full bucket aliases itself, so its threshold never matters.
        buckets_.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            buckets_[i] = {0, static_cast<std::uint32_t>(i)};
        }

        double total = 0.0;
        for (double w : weights) {
            assert(w >= 0.0);
            total += w;
        }
        assert(total > 0.0);

        // Scale so the average bucket holds probability exactly 1.
        std::vector<double> scaled(n);
        for (std::size_t i = 0; i < n; ++i) {
            scaled[i] = weights[i] * static_cast<double>(n) / total;
        }

        std::vector<std::uint32_t> small, large;
        small.reserve(n);
        large.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
        }

        // Numerical leftovers (either list, once the other runs dry) stay
        // full buckets.
        while (!small.empty() && !large.empty()) {
            const std::uint32_t s = small.back();
            small.pop_back();
            const std::uint32_t l = large.back();
            large.pop_back();
            // scaled[s] < 1, so the product stays below 2^64.
            buckets_[s] = {static_cast<std::uint64_t>(scaled[s] * 0x1.0p64), l};
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            (scaled[l] < 1.0 ? small : large).push_back(l);
        }
    }

    std::size_t size() const noexcept { return buckets_.size(); }
    bool empty() const noexcept { return buckets_.empty(); }
    /// The buckets draw() reads, for code that draws in SIMD lanes.
    const Bucket* buckets() const noexcept { return buckets_.data(); }

    /// The index in [0, size()) that the word `w` selects. The choice
    /// between bucket and alias is a coin flip per draw, so it is made with
    /// a mask rather than a branch the CPU would mispredict half the time.
    std::uint32_t draw(std::uint64_t w) const noexcept {
        const unsigned __int128 m =
            static_cast<unsigned __int128>(w) * buckets_.size();
        const auto i = static_cast<std::uint32_t>(m >> 64);
        const Bucket& b = buckets_[i];
        const std::uint32_t keep =
            0u - static_cast<std::uint32_t>(static_cast<std::uint64_t>(m) < b.threshold);
        return (i & keep) | (b.alias & ~keep);
    }

private:
    std::vector<Bucket> buckets_;
};

}  // namespace pgl::rng

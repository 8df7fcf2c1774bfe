#include "core/lane_sampler.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/term_batch.hpp"
#include "rng/alias_table.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pgl::core {

namespace {

using Bucket = rng::AliasTable::Bucket;
static_assert(sizeof(Bucket) == 16 && offsetof(Bucket, alias) == 8,
              "the lanes gather a bucket's threshold at +0 and its alias at +8");

constexpr std::size_t kLanes = LaneFiller::kLanes;

/// Terms per tile: the lanes decode kTile terms of every block into a
/// small tile, which is then copied into each block's own columns.
constexpr std::size_t kTile = 64;

#if defined(__x86_64__)

// GCC 12's AVX-512 headers build some intrinsics on _mm512_undefined_*()
// and then warn that it may be used uninitialized (a known false positive).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// kTile decoded terms of every lane (8.2 KB), by term and lane: the two
/// record indices packed as fi | fj << 32, the nudge, and the end and
/// valid bytes as one lane mask per term.
struct Tile {
    alignas(64) std::uint64_t fij[kTile][kLanes];
    alignas(64) double nudge[kTile][kLanes];
    std::uint8_t end_i[kTile];
    std::uint8_t end_j[kTile];
    std::uint8_t valid[kTile];
};

/// One Xoshiro256Plus::next() in every lane.
__attribute__((target("avx512f"))) inline __m512i next_lanes(
    __m512i& s0, __m512i& s1, __m512i& s2, __m512i& s3) noexcept {
    const __m512i result = _mm512_add_epi64(s0, s3);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    return result;
}

/// The 128-bit product of 64-bit words `w` and counts `n` below 2^32, per
/// lane: returns its high half (rng::mulhi) and leaves its low half, the
/// alias draw's fraction, in `low`.
__attribute__((target("avx512f"))) inline __m512i mul_wide(__m512i w, __m512i n,
                                                           __m512i& low) noexcept {
    const __m512i lo = _mm512_mul_epu32(w, n);
    const __m512i mid = _mm512_add_epi64(_mm512_mul_epu32(_mm512_srli_epi64(w, 32), n),
                                         _mm512_srli_epi64(lo, 32));
    low = _mm512_or_si512(_mm512_slli_epi64(mid, 32),
                          _mm512_and_si512(lo, _mm512_set1_epi64(0xffffffff)));
    return _mm512_srli_epi64(mid, 32);
}

/// AliasTable::draw per lane, from the table whose buckets start at the
/// lane's address in `at` and number `size`.
__attribute__((target("avx512f"))) inline __m512i alias_draw(__m512i w, __m512i size,
                                                             __m512i at) noexcept {
    __m512i frac;
    const __m512i i = mul_wide(w, size, frac);
    const __m512i bucket = _mm512_add_epi64(at, _mm512_slli_epi64(i, 4));
    const __m512i threshold = _mm512_i64gather_epi64(bucket, nullptr, 1);
    const __m512i alias = _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(
        _mm512_add_epi64(bucket, _mm512_set1_epi64(8)), nullptr, 1));
    return _mm512_mask_blend_epi64(_mm512_cmplt_epu64_mask(frac, threshold), alias, i);
}

/// Transposes 8 x 8 64-bit words in place: r[t] holding term t of every
/// lane becomes r[l] holding every term of lane l.
__attribute__((target("avx512f"))) inline void transpose8x8(__m512i (&r)[8]) noexcept {
    __m512i t[8];
    for (int k = 0; k < 8; k += 2) {
        t[k] = _mm512_unpacklo_epi64(r[k], r[k + 1]);
        t[k + 1] = _mm512_unpackhi_epi64(r[k], r[k + 1]);
    }
    const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512i u[8];
    for (int k = 0; k < 8; k += 4) {
        u[k] = _mm512_permutex2var_epi64(t[k], even, t[k + 2]);
        u[k + 2] = _mm512_permutex2var_epi64(t[k], odd, t[k + 2]);
        u[k + 1] = _mm512_permutex2var_epi64(t[k + 1], even, t[k + 3]);
        u[k + 3] = _mm512_permutex2var_epi64(t[k + 1], odd, t[k + 3]);
    }
    for (int k = 0; k < 4; ++k) {
        r[k] = _mm512_shuffle_i64x2(u[k], u[k + 4], 0x44);
        r[k + 4] = _mm512_shuffle_i64x2(u[k], u[k + 4], 0xee);
    }
}

/// Copies terms [t0, t1) of the tile into the columns of every block
/// that holds them; the tile starts at slot `base` of each block. An
/// 8-term run that a block holds whole goes through two transposes and
/// vector stores, anything else term by term.
__attribute__((target("avx512f"))) void copy_out(const Tile& tile, std::size_t base,
                                                 std::size_t tn,
                                                 std::span<const LaneBlock> blocks,
                                                 const std::uint64_t* count) {
    constexpr std::uint64_t kBit0 = 0x0101010101010101ULL;  // bit 0 of each byte
    for (std::size_t t0 = 0; t0 < tn; t0 += 8) {
        const bool whole = t0 + 8 <= tn;
        __m512i fij[8], nudge[8];
        std::uint64_t end_i = 0, end_j = 0, valid = 0;  // byte t: term t0 + t
        if (whole) {
            for (int t = 0; t < 8; ++t) {
                fij[t] = _mm512_load_si512(tile.fij[t0 + t]);
                nudge[t] = _mm512_castpd_si512(_mm512_load_pd(tile.nudge[t0 + t]));
            }
            transpose8x8(fij);
            transpose8x8(nudge);
            std::memcpy(&end_i, &tile.end_i[t0], 8);
            std::memcpy(&end_j, &tile.end_j[t0], 8);
            std::memcpy(&valid, &tile.valid[t0], 8);
        }
        for (std::size_t l = 0; l < blocks.size(); ++l) {
            if (count[l] <= base + t0) continue;
            TermBatch& b = *blocks[l].out;
            const std::size_t at = base + t0;
            if (whole && count[l] >= at + 8) {
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.node_i.data() + at),
                                    _mm512_cvtepi64_epi32(fij[l]));
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.node_j.data() + at),
                                    _mm512_cvtepi64_epi32(_mm512_srli_epi64(fij[l], 32)));
                _mm512_storeu_si512(b.nudge.data() + at, nudge[l]);
                const std::uint64_t ei = (end_i >> l) & kBit0;
                const std::uint64_t ej = (end_j >> l) & kBit0;
                const std::uint64_t v = (valid >> l) & kBit0;
                std::memcpy(b.end_i.data() + at, &ei, 8);
                std::memcpy(b.end_j.data() + at, &ej, 8);
                std::memcpy(b.valid.data() + at, &v, 8);
                continue;
            }
            const std::size_t n = std::min<std::size_t>({8, tn - t0, count[l] - at});
            for (std::size_t t = t0; t < t0 + n; ++t) {
                const std::size_t k = base + t;
                b.node_i[k] = static_cast<std::uint32_t>(tile.fij[t][l]);
                b.node_j[k] = static_cast<std::uint32_t>(tile.fij[t][l] >> 32);
                b.end_i[k] = (tile.end_i[t] >> l) & 1;
                b.end_j[k] = (tile.end_j[t] >> l) & 1;
                b.nudge[k] = tile.nudge[t][l];
                b.valid[k] = (tile.valid[t] >> l) & 1;
            }
        }
    }
}

/// PairSampler::decode in every lane, then the tile's copy into each
/// block: fill_batch_staged's pass 1 for up to kLanes blocks.
__attribute__((target("avx512f"))) void decode_lanes(
    const std::uint64_t* paths, const Bucket* path_buckets, std::uint64_t n_paths,
    std::span<const LaneBlock> blocks) {
    alignas(64) std::uint64_t state[4][kLanes] = {};  // a lane without a block draws zeros
    alignas(64) std::uint64_t count[kLanes] = {};
    __mmask8 cooling_iter = 0;
    std::size_t longest = 0;
    for (std::size_t l = 0; l < blocks.size(); ++l) {
        const std::uint64_t* s = blocks[l].rng->state();
        for (std::size_t w = 0; w < 4; ++w) state[w][l] = s[w];
        count[l] = blocks[l].out->size();
        cooling_iter |= static_cast<__mmask8>(blocks[l].cooling_iter ? 1u << l : 0u);
        longest = std::max<std::size_t>(longest, count[l]);
    }
    __m512i s0 = _mm512_load_si512(state[0]);
    __m512i s1 = _mm512_load_si512(state[1]);
    __m512i s2 = _mm512_load_si512(state[2]);
    __m512i s3 = _mm512_load_si512(state[3]);

    const __m512i one = _mm512_set1_epi64(1);
    const __m512i low32 = _mm512_set1_epi64(0xffffffff);
    const __m512i path_size = _mm512_set1_epi64(static_cast<long long>(n_paths));
    const __m512i path_at =
        _mm512_set1_epi64(static_cast<long long>(reinterpret_cast<std::uintptr_t>(path_buckets)));
    const __m512i bit63 = _mm512_set1_epi64(static_cast<long long>(1ULL << 63));
    const __m512i bit62 = _mm512_set1_epi64(1LL << 62);
    const __m512i bit61 = _mm512_set1_epi64(1LL << 61);
    const __m512i bit60 = _mm512_set1_epi64(1LL << 60);

    Tile tile;
    for (std::size_t base = 0; base < longest; base += kTile) {
        const std::size_t tn = std::min(kTile, longest - base);
        for (std::size_t t = 0; t < tn; ++t) {
            const __m512i w0 = next_lanes(s0, s1, s2, s3);
            const __m512i w1 = next_lanes(s0, s1, s2, s3);
            const __m512i w2 = next_lanes(s0, s1, s2, s3);
            const __m512i w3 = next_lanes(s0, s1, s2, s3);

            // w0: the path, then its first record, step count and Zipf table.
            const __m512i path = alias_draw(w0, path_size, path_at);
            const __m512i rec = _mm512_add_epi64(path, _mm512_slli_epi64(path, 1));
            const __m512i head = _mm512_i64gather_epi64(rec, paths, 8);
            const __m512i zipf_size = _mm512_i64gather_epi64(rec, paths + 1, 8);
            const __m512i zipf_at = _mm512_i64gather_epi64(rec, paths + 2, 8);
            const __m512i first = _mm512_and_si512(head, low32);
            const __m512i n_steps = _mm512_srli_epi64(head, 32);

            // w1: step_i. w2: the reflected Zipf hop or a uniform step_j,
            // kept by the cooling mask. A path of under two steps gives
            // step_i = step_j = 0 either way, as decode's early return.
            __m512i unused;
            const __m512i step_i = mul_wide(w1, n_steps, unused);
            const __m512i hop = _mm512_add_epi64(alias_draw(w2, zipf_size, zipf_at), one);
            const __m512i last = _mm512_sub_epi64(n_steps, one);
            __m512i j = _mm512_mask_blend_epi64(_mm512_test_epi64_mask(w3, bit62),
                                                _mm512_sub_epi64(step_i, hop),
                                                _mm512_add_epi64(step_i, hop));
            j = _mm512_abs_epi64(j);
            j = _mm512_min_epi64(j, _mm512_sub_epi64(_mm512_add_epi64(last, last), j));
            j = _mm512_max_epi64(j, _mm512_setzero_si512());
            const __m512i uniform = mul_wide(w2, n_steps, unused);
            const __mmask8 cooling = cooling_iter | _mm512_test_epi64_mask(w3, bit63);
            const __m512i step_j = _mm512_mask_blend_epi64(cooling, uniform, j);

            // w3: the ends (bit set: End::kStart = 0) and the nudge. The
            // product by 2^-32 is exact, so contracting it with the
            // subtract into an FMA cannot change a bit.
            _mm512_store_si512(
                tile.fij[t],
                _mm512_or_si512(_mm512_and_si512(_mm512_add_epi64(first, step_i), low32),
                                _mm512_slli_epi64(_mm512_add_epi64(first, step_j), 32)));
            tile.end_i[t] = _mm512_testn_epi64_mask(w3, bit61);
            tile.end_j[t] = _mm512_testn_epi64_mask(w3, bit60);
            tile.valid[t] = _mm512_cmpneq_epi64_mask(step_i, step_j);
            const __m512d u = _mm512_mul_pd(
                _mm512_cvtepu32_pd(_mm512_cvtepi64_epi32(_mm512_srli_epi64(w3, 16))),
                _mm512_set1_pd(0x1.0p-32));
            const __m512d nudge =
                _mm512_mul_pd(_mm512_sub_pd(u, _mm512_set1_pd(0.5)), _mm512_set1_pd(1e-3));
            _mm512_store_pd(tile.nudge[t],
                            _mm512_mask_blend_pd(_mm512_cmp_pd_mask(nudge, _mm512_setzero_pd(),
                                                                    _CMP_EQ_OQ),
                                                 nudge, _mm512_set1_pd(1e-4)));
        }

        copy_out(tile, base, tn, blocks, count);
    }
}

#pragma GCC diagnostic pop

#endif

}  // namespace

bool LaneFiller::available() noexcept {
#if defined(__x86_64__)
    static const bool has = __builtin_cpu_supports("avx512f");
    return has;
#else
    return false;
#endif
}

LaneFiller::LaneFiller(const PairSampler& sampler) : sampler_(&sampler) {
    const graph::LeanGraph& g = sampler.graph();
    const auto offsets = g.path_offsets();
    paths_.resize(3 * std::size_t{g.path_count()});
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        const rng::AliasTable& zipf = sampler.zipf_[sampler.zipf_of_path_[p]];
        paths_[3 * p] = offsets[p] | std::uint64_t{g.path_step_count(p)} << 32;
        paths_[3 * p + 1] = zipf.size();
        paths_[3 * p + 2] = reinterpret_cast<std::uintptr_t>(zipf.buckets());
    }
}

void LaneFiller::decode(std::span<const LaneBlock> blocks) const {
    assert(blocks.size() <= kLanes && available());
#if defined(__x86_64__)
    decode_lanes(paths_.data(), sampler_->path_alias_.buckets(), sampler_->path_alias_.size(),
                 blocks);
#else
    (void)blocks;
#endif
}

}  // namespace pgl::core

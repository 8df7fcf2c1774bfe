// The "simd" update kernel: the batch apply split into (a) a vectorized
// compute-deltas pass over the TermBatch SoA columns — d_ref and nudge are
// loaded directly as double lanes, coordinates are gathered and widened to
// double — and (b) an in-order scatter pass. Lane groups of 4 terms run
// under AVX2, chosen by CPUID at construction so one portable binary runs
// everywhere; a host without AVX2 takes the scalar loop (variant
// "scalar-fallback"), which is byte-identical, and so does a store too large
// for 32-bit gather lanes (see simd_lanes_fit). Groups are checked for
// cross-slot coordinate conflicts first: a group in which two *different*
// slots touch the same endpoint falls back to the chained scalar loop, so
// the "later terms see earlier updates" contract holds exactly and the
// kernel stays byte-identical to "scalar".
//
// Byte-identity rests on IEEE semantics: vaddpd/vsubpd/vmulpd/vdivpd/
// vsqrtpd and the double<->float conversions are correctly rounded, so as
// long as the lane arithmetic performs the scalar term's operations in the
// scalar term's order — mul, mul, add, sqrt; no FMA contraction, no
// reassociation — every lane computes the scalar result bit for bit.
// (/ 2.0 is evaluated as * 0.5: both are exact exponent shifts and agree
// for every input, including subnormals.) The PGL_NATIVE build option
// pairs -march=x86-64-v3 with -ffp-contract=off for the same reason: the
// compiler must not contract the *scalar* kernel's mul+add into an FMA the
// intrinsics here don't perform.
//
// Within a conflict-free group the scatter may write all i endpoints, then
// all j endpoints: slots share no coordinate across terms, and the one
// legal intra-term duplicate (both steps on the same node with the same
// chosen end) still sees its j store land after its i store — the scalar
// order's observable effect.
//
// Coordinates come off the store's packed Segment records, where an
// endpoint's x sits at float index 4*node + 2*end with its y right after
// it: one 64-bit gather (vpgatherdq) per side fetches all four (x, y)
// pairs, and one permute splits them into x and y lanes. The scatter
// writes each pair back as one 8-byte store. Gathers deliberately stay in
// registers: bouncing four narrow stores into a stack array and reloading
// them as one wide vector is a store-forwarding stall per operand, which
// on the sampled-batch fast path costs more than the div/sqrt
// vectorization saves. The gathers read the float indices as signed
// 32-bit lanes, which is why the kernel only runs on stores of at most
// 2^29 nodes (simd_lanes_fit).
//
// Holes (valid == 0) keep their slots: their d_ref/nudge columns are
// loaded but their gathers read index 0 (in bounds by construction) and
// the scatter pass never writes them back. For conflict detection a hole
// gets a per-lane sentinel index pair no real term can produce (the top
// of the 32-bit index space; under the lane bound every real index stays
// below 2^31), so the branchless pairwise compare never reports a hole as
// a conflict.
#include "core/kernels/update_kernel.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "telemetry/telemetry.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pgl::core {

namespace {

/// Per-apply tallies, accumulated in locals inside the group loops and
/// flushed to the registry counters once per batch — the hot loop never
/// touches a shared atomic per group.
struct GroupTally {
    std::uint64_t vector_groups = 0;    ///< groups applied via SIMD lanes
    std::uint64_t fallback_groups = 0;  ///< conflict/tail groups via scalar
};

#if defined(__x86_64__)

/// Float indices of 4 slots' x coordinates as u32 lanes: 4*node + 2*end.
__attribute__((target("avx2"))) inline __m128i slot_idx4(
    const std::uint32_t* node, const std::uint8_t* end) noexcept {
    std::uint32_t ew;
    std::memcpy(&ew, end, 4);
    const __m128i node4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(node));
    const __m128i end4 =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(ew)));
    return _mm_add_epi32(_mm_slli_epi32(node4, 2), _mm_slli_epi32(end4, 1));
}

/// The (x, y) pairs of 4 endpoints: one 64-bit gather at float indices
/// `idx` ([x0 y0 x1 y1 ...]), split into an x and a y lane vector.
__attribute__((target("avx2"))) inline void gather_xy4(const float* p, __m128i idx,
                                                      __m128& x, __m128& y) noexcept {
    const __m256 xy = _mm256_castsi256_ps(_mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(p), idx, 4));
    const __m256 split =
        _mm256_permutevar8x32_ps(xy, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
    x = _mm256_castps256_ps128(split);
    y = _mm256_extractf128_ps(split, 1);
}

__attribute__((target("avx2"))) inline __m128i rot1(__m128i v) noexcept {
    return _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 1, 0, 3));
}
__attribute__((target("avx2"))) inline __m128i rot2(__m128i v) noexcept {
    return _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
}
__attribute__((target("avx2"))) inline __m128i rot3(__m128i v) noexcept {
    return _mm_shuffle_epi32(v, _MM_SHUFFLE(0, 3, 2, 1));
}

/// True when two *different* slots of the group share a coordinate: all
/// 6 + 6 + 12 distinct-slot pairs via rotated compares; the diagonal
/// (intra-term i vs j) is legal and never compared.
__attribute__((target("avx2"))) inline bool group_conflict4(
    __m128i ii, __m128i jj) noexcept {
    __m128i c = _mm_cmpeq_epi32(ii, rot1(ii));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(ii, rot2(ii)));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(jj, rot1(jj)));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(jj, rot2(jj)));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(ii, rot1(jj)));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(ii, rot2(jj)));
    c = _mm_or_si128(c, _mm_cmpeq_epi32(ii, rot3(jj)));
    return _mm_movemask_epi8(c) != 0;
}

__attribute__((target("avx2"))) void apply_avx2(const TermBatch& b, double eta,
                                                float* p, GroupTally& tally) {
    const std::size_t n = b.size();
    const double* dref_col = b.d_ref.data();
    const double* nudge_col = b.nudge.data();
    const std::uint32_t* ni_col = b.node_i.data();
    const std::uint32_t* nj_col = b.node_j.data();
    const std::uint8_t* ei_col = b.end_i.data();
    const std::uint8_t* ej_col = b.end_j.data();
    const std::uint8_t* valid_col = b.valid.data();
    const __m256d v_eta = _mm256_set1_pd(eta);
    const __m256d v_one = _mm256_set1_pd(1.0);
    const __m256d v_half = _mm256_set1_pd(0.5);
    const __m256d v_eps = _mm256_set1_pd(1e-9);
    const __m256d v_zero = _mm256_setzero_pd();
    const __m256d v_sign = _mm256_set1_pd(-0.0);
    // Distinct per-lane sentinels for hole slots (see file comment).
    const __m128i sent_i =
        _mm_setr_epi32(static_cast<int>(0xFFFFFFF0u), static_cast<int>(0xFFFFFFF2u),
                       static_cast<int>(0xFFFFFFF4u), static_cast<int>(0xFFFFFFF6u));
    const __m128i sent_j =
        _mm_setr_epi32(static_cast<int>(0xFFFFFFF1u), static_cast<int>(0xFFFFFFF3u),
                       static_cast<int>(0xFFFFFFF5u), static_cast<int>(0xFFFFFFF7u));

    std::size_t base = 0;
    for (; base + 4 <= n; base += 4) {
        std::uint32_t vword;
        std::memcpy(&vword, valid_col + base, 4);
        if (vword == 0) continue;
        const bool all_valid = vword == 0x01010101u;

        __m128i ii = slot_idx4(ni_col + base, ei_col + base);
        __m128i jj = slot_idx4(nj_col + base, ej_col + base);
        if (!all_valid) {
            // Holes take sentinel indices (conflict-inert) for the check,
            // index 0 (in bounds, never scattered) for the gather.
            const __m128i hole = _mm_cmpeq_epi32(
                _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(vword))),
                _mm_setzero_si128());
            const __m128i gi = _mm_andnot_si128(hole, ii);
            const __m128i gj = _mm_andnot_si128(hole, jj);
            ii = _mm_blendv_epi8(ii, sent_i, hole);
            jj = _mm_blendv_epi8(jj, sent_j, hole);
            if (group_conflict4(ii, jj)) {
                ++tally.fallback_groups;
                apply_term_slots(b, base, base + 4, eta, p);
                continue;
            }
            ii = gi;
            jj = gj;
        } else if (group_conflict4(ii, jj)) {
            ++tally.fallback_groups;
            apply_term_slots(b, base, base + 4, eta, p);
            continue;
        }
        ++tally.vector_groups;

        // Coordinate gathers straight off the index lanes (vpgatherdq);
        // the indices are also spilled once (wide store, contained narrow
        // reloads — the forwarding-friendly direction) for the scatter.
        alignas(16) std::uint32_t ia[4], ja[4];
        _mm_store_si128(reinterpret_cast<__m128i*>(ia), ii);
        _mm_store_si128(reinterpret_cast<__m128i*>(ja), jj);

        __m128 xi4, yi4, xj4, yj4;
        gather_xy4(p, ii, xi4, yi4);
        gather_xy4(p, jj, xj4, yj4);
        const __m256d xi = _mm256_cvtps_pd(xi4);
        const __m256d yi = _mm256_cvtps_pd(yi4);
        const __m256d xj = _mm256_cvtps_pd(xj4);
        const __m256d yj = _mm256_cvtps_pd(yj4);
        const __m256d dref = _mm256_loadu_pd(dref_col + base);
        const __m256d nudge = _mm256_loadu_pd(nudge_col + base);

        __m256d dx = _mm256_sub_pd(xi, xj);
        __m256d dy = _mm256_sub_pd(yi, yj);
        __m256d mag = _mm256_sqrt_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
        const __m256d near0 = _mm256_cmp_pd(mag, v_eps, _CMP_LT_OQ);
        dx = _mm256_blendv_pd(dx, nudge, near0);
        dy = _mm256_blendv_pd(dy, v_zero, near0);
        mag = _mm256_blendv_pd(mag, _mm256_andnot_pd(v_sign, nudge), near0);

        const __m256d w = _mm256_div_pd(v_one, _mm256_mul_pd(dref, dref));
        const __m256d mu = _mm256_min_pd(_mm256_mul_pd(v_eta, w), v_one);
        const __m256d delta = _mm256_mul_pd(
            _mm256_mul_pd(mu, _mm256_sub_pd(mag, dref)), v_half);
        const __m256d r = _mm256_div_pd(delta, mag);
        const __m256d rx = _mm256_mul_pd(r, dx);
        const __m256d ry = _mm256_mul_pd(r, dy);

        // New endpoint values, still as float lanes (addps is the scalar
        // path's float + float, lane for lane).
        const __m128 nxi = _mm_add_ps(xi4, _mm256_cvtpd_ps(_mm256_xor_pd(rx, v_sign)));
        const __m128 nyi = _mm_add_ps(yi4, _mm256_cvtpd_ps(_mm256_xor_pd(ry, v_sign)));
        const __m128 nxj = _mm_add_ps(xj4, _mm256_cvtpd_ps(rx));
        const __m128 nyj = _mm_add_ps(yj4, _mm256_cvtpd_ps(ry));

        // Scatter: again wide stores + contained narrow reloads. Holes keep
        // gather index 0 but are skipped here, so node 0 is never written
        // on their behalf.
        alignas(16) float vi[8], vj[8];
        _mm_store_ps(vi, _mm_unpacklo_ps(nxi, nyi));
        _mm_store_ps(vi + 4, _mm_unpackhi_ps(nxi, nyi));
        _mm_store_ps(vj, _mm_unpacklo_ps(nxj, nyj));
        _mm_store_ps(vj + 4, _mm_unpackhi_ps(nxj, nyj));
        for (int t = 0; t < 4; ++t) {
            if (all_valid || valid_col[base + t]) std::memcpy(p + ia[t], vi + 2 * t, 8);
        }
        for (int t = 0; t < 4; ++t) {
            if (all_valid || valid_col[base + t]) std::memcpy(p + ja[t], vj + 2 * t, 8);
        }
    }
    if (base < n) {
        ++tally.fallback_groups;
        apply_term_slots(b, base, n, eta, p);
    }
}

#endif  // defined(__x86_64__)

enum class Isa : std::uint8_t { kScalarFallback, kAvx2 };

Isa detect_isa() noexcept {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
    return Isa::kScalarFallback;
}

class SimdKernel final : public UpdateKernel {
public:
    SimdKernel()
        : isa_(detect_isa()),
          vector_groups_(telemetry::Registry::instance().counter(
              "kernel.simd.vector_groups")),
          fallback_groups_(telemetry::Registry::instance().counter(
              "kernel.simd.scalar_fallback_groups")),
          terms_(telemetry::Registry::instance().counter(
              "kernel.simd.terms")) {}

    std::string_view name() const noexcept override { return "simd"; }

    std::string_view variant() const noexcept override {
        return isa_ == Isa::kAvx2 ? "avx2" : "scalar-fallback";
    }

    void apply(const TermBatch& b, double eta, XYStore& store) const override {
        GroupTally tally;
        const bool lanes = isa_ == Isa::kAvx2 && simd_lanes_fit(store.node_count());
#if defined(__x86_64__)
        if (lanes) apply_avx2(b, eta, store.data(), tally);
#endif
        if (!lanes) {
            ++tally.fallback_groups;
            apply_term_slots(b, 0, b.size(), eta, store.data());
        }
        if (tally.vector_groups) vector_groups_.add(tally.vector_groups);
        if (tally.fallback_groups) fallback_groups_.add(tally.fallback_groups);
        terms_.add(b.size());
    }

private:
    Isa isa_;
    telemetry::Counter vector_groups_;
    telemetry::Counter fallback_groups_;
    telemetry::Counter terms_;
};

}  // namespace

std::unique_ptr<UpdateKernel> make_simd_kernel() {
    return std::make_unique<SimdKernel>();
}

}  // namespace pgl::core

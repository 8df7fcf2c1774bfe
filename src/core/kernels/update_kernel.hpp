#pragma once
// The pluggable update-kernel layer: the *apply* half of the batched term
// pipeline, factored out of the engines the same way the engines themselves
// were factored behind LayoutEngine. A kernel drains one TermBatch into the
// XYStore's packed Segment records (one 16-byte {sx, sy, ex, ey} per node,
// the paper's cache-friendly layout); engines pick the kernel by name through
// the string-keyed KernelRegistry (mirroring EngineRegistry), so the CLI,
// benches and tests drive every implementation through one seam.
//
// Built-in registry names:
//   "scalar"  the reference kernel: one term at a time, in slot order —
//             bit-identical to the historical apply_term_batch loop
//   "simd"    vectorized kernel: a compute-deltas pass over the TermBatch
//             SoA columns in AVX2 lanes (runtime CPUID dispatch; the
//             scalar loop on hosts without AVX2) plus an in-order scatter
//             pass with per-group conflict fallback — byte-identical to
//             "scalar" (stores beyond simd_lanes_fit take the scalar loop)
//
// Determinism contract every kernel must honor (it is what the batched and
// pipelined engines' fixed-(seed, threads) byte-reproducibility — and the
// partition scheduler's byte-equivalence ctest — are built on):
//   * terms apply in slot order: a later term reads every coordinate an
//     earlier term of the same batch already wrote ("chained" updates);
//   * slots with valid == 0 are holes and must be skipped untouched;
//   * the arithmetic is the shared step_math term, evaluated with IEEE
//     operations only (no FMA contraction, no reassociation), so different
//     kernels — and different lane widths of the same kernel — produce the
//     same bytes.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/layout.hpp"
#include "core/registry.hpp"
#include "core/step_math.hpp"
#include "core/term_batch.hpp"

namespace pgl::core {

/// Applies one term to the store's raw record array (XYStore::data()):
/// endpoint i's x at float index ii, endpoint j's at jj, each y right
/// after its x. Every apply site writes coordinates through this.
inline void apply_term(float* p, std::size_t ii, std::size_t jj, double d_ref,
                       double eta, double nudge) noexcept {
    const float xi = p[ii];
    const float yi = p[ii + 1];
    const float xj = p[jj];
    const float yj = p[jj + 1];
    const PointDelta d = sgd_term_update(xi, yi, xj, yj, d_ref, eta, nudge);
    p[ii] = xi + d.dx_i;
    p[ii + 1] = yi + d.dy_i;
    p[jj] = xj + d.dx_j;
    p[jj + 1] = yj + d.dy_j;
}

/// Applies slots [begin, end) one term at a time, in slot order, against
/// the store's raw record array. This is the reference semantics: the
/// scalar kernel is exactly this loop over the whole batch, and the SIMD
/// kernel falls back to it for conflicting lane groups and tails.
inline void apply_term_slots(const TermBatch& b, std::size_t begin,
                             std::size_t end, double eta, float* p) noexcept {
    for (std::size_t k = begin; k < end; ++k) {
        if (!b.valid[k]) continue;
        apply_term(p, XYStore::index(b.node_i[k], b.end_i_of(k)),
                   XYStore::index(b.node_j[k], b.end_j_of(k)), b.d_ref[k], eta,
                   b.nudge[k]);
    }
}

/// True when every float index of a store with `nodes` nodes fits the
/// signed 32-bit index lanes of the SIMD kernel's gathers:
/// 4*node + 2*end + 1 <= 2^31 - 1, i.e. at most 2^29 nodes. Larger stores
/// take the byte-identical scalar loop.
constexpr bool simd_lanes_fit(std::size_t nodes) noexcept {
    return nodes <= (std::size_t{1} << 29);
}

/// Abstract batch-apply machine. Kernels are stateless and const — one
/// instance may be shared by any number of single-threaded apply sites
/// (each engine resolves its own at init()).
class UpdateKernel {
public:
    virtual ~UpdateKernel() = default;

    /// Registry name ("scalar", "simd").
    virtual std::string_view name() const noexcept = 0;

    /// The implementation actually selected at runtime — for "simd" the
    /// dispatched ISA ("avx2" or "scalar-fallback").
    virtual std::string_view variant() const noexcept { return name(); }

    /// Applies every valid term of the batch to the store, in slot order.
    virtual void apply(const TermBatch& b, double eta,
                       XYStore& store) const = 0;
};

/// String-keyed factory registry of update kernels (the shared
/// FactoryRegistry behaviour, like EngineRegistry): built-ins are
/// registered on first use, additional kernels (future: AVX-512, SVE,
/// GPU-resident) register at startup.
class KernelRegistry : public FactoryRegistry<UpdateKernel> {
public:
    static KernelRegistry& instance();

private:
    KernelRegistry() = default;
};

/// Convenience: creates a registered kernel or throws std::invalid_argument
/// listing the available names.
std::unique_ptr<UpdateKernel> make_update_kernel(const std::string& name);

/// Built-in kernel factories (registered under "scalar" / "simd").
std::unique_ptr<UpdateKernel> make_scalar_kernel();
std::unique_ptr<UpdateKernel> make_simd_kernel();

}  // namespace pgl::core

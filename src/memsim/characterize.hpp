#pragma once
// CPU workload characterization (paper Sec. III, Tables II & IX, Fig. 5).
//
// The paper measures odgi-layout with Perf/VTune on a 32-core Xeon. Those
// counters are unavailable here, so we replay the *exact* address stream of
// the PG-SGD update loop (same PairSampler, same per-update touches)
// through a simulated Xeon cache hierarchy and report the analogous
// counters: LLC loads, LLC load misses, a memory-stall-cycle percentage and
// a memory-bound pipeline-slot share.
//
// Cache capacities are scaled by the same factor as the graph (llc_scale)
// so the working-set-to-cache ratio — which is what drives the miss rates —
// matches the full-scale experiment.
//
// The replay is double-buffered on a one-worker core::ThreadPool (the same
// pipeline shape as the cpu-pipelined engine): the worker fills the next
// TermBatch slice while this thread walks the current slice through the
// cache model. The single PRNG stream is consumed in slice order, so the
// replayed address stream — and every reported counter — is identical to
// the sequential replay.
#include <cstdint>

#include "core/config.hpp"
#include "graph/lean_graph.hpp"
#include "memsim/cache.hpp"

namespace pgl::memsim {

/// Coordinate-store organization whose address stream the replay models.
/// Both organizations compute identical values, so this only selects the
/// modeled addresses. kAoS is the organization the engines actually run:
/// core::XYStore packs each node's endpoints into one core::Segment.
enum class CoordStore : std::uint8_t {
    kSoA,  ///< original ODGI organization (separate X / Y / length arrays)
    kAoS,  ///< cache-friendly data layout (packed node records of
           ///< kNodeRecBytes, paper Sec. V-B1; the "CPU w/ cache-friendly
           ///< data layout" bar of Fig. 16)
};

struct CpuCharacterization {
    CacheStats l1, l2, llc;
    std::uint64_t dram_accesses = 0;
    std::uint64_t updates = 0;

    double llc_load_miss_rate = 0.0;  ///< Table II "LLC-load miss rate"
    double memory_stall_pct = 0.0;    ///< Table II "memory stall cycle %"
    double memory_bound_pct = 0.0;    ///< Fig. 5 "Memory Bound" slot share
    double cycles_per_update = 0.0;   ///< modeled core cycles per update
};

struct CharacterizeOptions {
    std::uint64_t sample_updates = 2'000'000;  ///< replayed update steps
    double cooling_fraction = 0.5;  ///< fraction of steps in the cooling regime
    std::uint64_t seed = 42;
    double llc_scale = 1.0;  ///< cache-capacity scale (match the graph scale)

    /// Stride multiplier applied to the SoA (original odgi) data
    /// structures: ODGI's containers carry sequence pointers, succinct
    /// ranks and bookkeeping around every field, so the effective footprint
    /// per element is several times the lean arrays this repo stores. The
    /// AoS variant models the paper's lean repacked records (no bloat).
    double odgi_stride_bloat = 6.0;

    /// Non-stall pipeline work per update used only for the stall/slot
    /// percentages (issue, branch, front-end): Perf attributes these cycles
    /// to retirement, not memory.
    double pipeline_overhead_cycles = 250.0;

    // Latency model (cycles), Skylake-SP-like.
    double compute_cycles_per_update = 15.0;
    double lat_l2 = 10.0;
    double lat_llc = 25.0;
    double lat_dram = 180.0;
};

/// Replays `sample_updates` PG-SGD updates through the cache model using
/// the given coordinate-store organization (SoA = original, AoS = CDL).
CpuCharacterization characterize_cpu(const graph::LeanGraph& g,
                                     const core::LayoutConfig& cfg,
                                     CoordStore store,
                                     const CharacterizeOptions& opt);

/// Analytic CPU time model used for the paper-shape speedup tables: total
/// update count times modeled cycles per update, divided over the Xeon's
/// threads, with a contention factor for shared-DRAM pressure.
struct CpuPerfModel {
    std::uint32_t threads = 32;
    double clock_ghz = 3.4;
    /// Multi-core DRAM contention + scheduling overhead; calibrated so a
    /// full-scale Chr.1 run lands in the paper's wall-clock regime.
    double contention = 2.45;

    double seconds(const CpuCharacterization& ch, std::uint64_t total_updates) const {
        const double cycles =
            ch.cycles_per_update * static_cast<double>(total_updates) * contention;
        return cycles / (static_cast<double>(threads) * clock_ghz * 1e9);
    }
};

}  // namespace pgl::memsim

#include "memsim/characterize.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/sampling.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::memsim {

namespace {

// Abstract address-space bases, one per data structure, spaced far apart so
// structures never alias in the simulated caches.
constexpr std::uint64_t kBaseCoordX = 0x0000'0000'0000ULL;
constexpr std::uint64_t kBaseCoordY = 0x1000'0000'0000ULL;
constexpr std::uint64_t kBaseNodeLen = 0x2000'0000'0000ULL;
constexpr std::uint64_t kBaseStepNode = 0x3000'0000'0000ULL;
constexpr std::uint64_t kBaseStepPos = 0x4000'0000'0000ULL;
constexpr std::uint64_t kBaseStepOrient = 0x5000'0000'0000ULL;
constexpr std::uint64_t kBaseNodeRec = 0x6000'0000'0000ULL;
constexpr std::uint64_t kBaseStepRec = 0x7000'0000'0000ULL;
constexpr std::uint64_t kBaseAliasProb = 0x8000'0000'0000ULL;
constexpr std::uint64_t kBaseAliasAlias = 0x9000'0000'0000ULL;
constexpr std::uint64_t kBaseRngState = 0xA000'0000'0000ULL;

constexpr std::uint32_t kStepRecBytes = 16;   // graph::PathStepRecord

}  // namespace

CpuCharacterization characterize_cpu(const graph::LeanGraph& g,
                                     const core::LayoutConfig& cfg,
                                     CoordStore store,
                                     const CharacterizeOptions& opt) {
    CacheHierarchy mem(xeon_6246r_hierarchy(opt.llc_scale));
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(opt.seed);

    const bool aos = (store == CoordStore::kAoS);
    // The original (SoA) organization is ODGI's: every element sits inside
    // a much fatter record, spreading accesses over bloat x the lean span.
    const std::uint64_t bloat = aos ? 1
                                    : std::max<std::uint64_t>(
                                          1, static_cast<std::uint64_t>(
                                                 opt.odgi_stride_bloat));
    const std::uint64_t cooling_from = static_cast<std::uint64_t>(
        opt.cooling_fraction * static_cast<double>(opt.sample_updates));

    const auto touch_coords = [&](std::uint32_t node, core::End e) {
        if (aos) {
            // One packed record holds length + both endpoints; read + write.
            const std::uint64_t a = kBaseNodeRec + std::uint64_t(node) * kNodeRecBytes;
            mem.access(a, kNodeRecBytes);
            mem.access(a, kNodeRecBytes);
        } else {
            // Original organization: X array, Y array, length array.
            const std::uint64_t idx =
                (2 * std::uint64_t(node) + static_cast<std::uint64_t>(e)) * bloat;
            mem.access(kBaseCoordX + idx * 4, 4);  // read x
            mem.access(kBaseCoordY + idx * 4, 4);  // read y
            mem.access(kBaseNodeLen + std::uint64_t(node) * 4 * bloat, 4);
            mem.access(kBaseCoordX + idx * 4, 4);  // write x
            mem.access(kBaseCoordY + idx * 4, 4);  // write y
        }
    };

    const auto touch_step = [&](std::uint32_t path, std::uint32_t step) {
        const std::uint64_t flat = g.flat_step_index(path, step);
        if (aos) {
            mem.access(kBaseStepRec + flat * kStepRecBytes, kStepRecBytes);
        } else {
            mem.access(kBaseStepNode + flat * 4 * bloat, 4);
            mem.access(kBaseStepPos + flat * 8 * bloat, 8);
            mem.access(kBaseStepOrient + flat * bloat, 1);
        }
    };

    // Replay the update loop's address stream one TermBatch slice at a
    // time (the same batched pipeline every backend consumes). Slices never
    // straddle the exploration->cooling boundary, so the term stream is
    // identical to a per-term replay.
    //
    // The replay is pipelined like the cpu-pipelined engine: one persistent
    // pool worker fills slice N+1 (consuming the single PRNG stream in
    // slice order, so the address stream is unchanged) while this thread
    // walks slice N through the cache model. The cache model itself stays
    // single-threaded — only it may touch `mem`.
    constexpr std::size_t kSlice = 4096;

    // Pre-compute the slice plan so the producer can be dispatched a slice
    // ahead without re-deriving the cooling boundary.
    std::vector<std::pair<std::size_t, bool>> slices;  // {terms, cooling}
    for (std::uint64_t s = 0; s < opt.sample_updates;) {
        const bool cooling = s >= cooling_from;
        const std::uint64_t boundary =
            cooling ? opt.sample_updates
                    : std::min<std::uint64_t>(opt.sample_updates, cooling_from);
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kSlice, boundary - s));
        slices.emplace_back(n, cooling);
        s += n;
    }

    std::uint64_t done = 0;
    core::ThreadPool pool(1);
    core::TermBatch bufs[2];
    const auto fill_job = [&](int buf, std::size_t s) {
        return [&, buf, s](std::uint32_t) {
            sampler.fill_batch_staged(slices[s].second, rng, slices[s].first,
                                      bufs[buf], /*replay=*/true);
        };
    };
    if (!slices.empty()) pool.run(fill_job(0, 0));
    int cur = 0;
    for (std::size_t s = 0; s < slices.size(); ++s) {
        const bool more = s + 1 < slices.size();
        if (more) pool.launch(fill_job(1 - cur, s + 1));
        const core::TermBatch& batch = bufs[cur];
        for (std::size_t k = 0; k < batch.size(); ++k) {
            // PRNG state (hot; 32 bytes) and alias-table lookups happen on
            // every draw regardless of term validity.
            mem.access(kBaseRngState, 32);
            mem.access(kBaseAliasProb + std::uint64_t(batch.path[k]) * 8, 8);
            mem.access(kBaseAliasAlias + std::uint64_t(batch.path[k]) * 4, 4);
            if (!batch.valid[k]) continue;
            touch_step(batch.path[k], batch.step_i[k]);
            touch_step(batch.path[k], batch.step_j[k]);
            touch_coords(batch.node_i[k], batch.end_i_of(k));
            touch_coords(batch.node_j[k], batch.end_j_of(k));
            ++done;
        }
        if (more) pool.wait();
        cur = 1 - cur;
    }

    CpuCharacterization out;
    out.l1 = mem.level(0).stats();
    out.l2 = mem.level(1).stats();
    out.llc = mem.level(2).stats();
    out.dram_accesses = mem.dram_accesses();
    out.updates = done ? done : 1;

    out.llc_load_miss_rate = out.llc.miss_rate();

    const double per_update = static_cast<double>(out.updates);
    const double stall_cycles =
        (static_cast<double>(out.l1.misses) * opt.lat_l2 +
         static_cast<double>(out.l2.misses) * opt.lat_llc +
         static_cast<double>(out.llc.misses) * opt.lat_dram) /
        per_update;
    out.cycles_per_update = opt.compute_cycles_per_update + stall_cycles;
    out.memory_stall_pct =
        100.0 * stall_cycles /
        (stall_cycles + opt.compute_cycles_per_update + opt.pipeline_overhead_cycles);
    // Pipeline-slot memory-bound share (Fig. 5): stalls claim issue slots;
    // the front end and speculation claim a roughly constant share.
    out.memory_bound_pct = out.memory_stall_pct * 0.92;
    return out;
}

}  // namespace pgl::memsim

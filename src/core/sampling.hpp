#pragma once
// Node-pair sampling for PG-SGD (Alg. 1 lines 5-13): pick a path with
// probability proportional to its step count, then a pair of steps on it —
// uniformly in the exploration phase, Zipf-distributed hop distance in the
// cooling phase — then a random endpoint of each node's segment.
//
// Every term consumes exactly kTermWords = 4 PRNG words, and one decode()
// turns them into a term before any step record is read:
//
//   w0  the path: single-draw alias table over the step counts;
//   w1  step_i = mulhi(w1, n_steps);
//   w2  step_j: in the cooling branch a hop from the single-draw alias
//       table over k^-theta for the path's Zipf space (one table per
//       distinct space), reflected at the path ends; otherwise
//       mulhi(w2, n_steps);
//   w3  the coins from its top four bits — bit 63 the cooling coin (Alg. 1
//       line 6), bit 62 the hop direction, bits 61/60 the endpoints of
//       step_i/step_j — and the coincident-point nudge from bits 16..47
//       (nudge_from_word). The low bits of Xoshiro256+ are weak; no coin
//       reads them.
//
// Because no draw waits on a memory read, the draw sequence is the same
// however the terms are batched: fill_batch_staged generates a block's
// words in one tight loop, the lane filler (core/lane_sampler.hpp) steps
// eight blocks' streams at once in SIMD lanes, and
// sample()/sample_branch() read the same four words one term at a time.
// This sampler is shared by every backend (CPU engine, GPU simulator,
// tensor implementation, memory-characterization replayer), so all of
// them draw terms from the identical distribution and, for the same
// stream, the identical terms — the CPU analogue of the paper's coalesced
// random states (Sec. V-B2): each term reads one fixed, contiguous block
// of random words.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/step_math.hpp"
#include "graph/lean_graph.hpp"
#include "rng/alias_table.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

struct TermBatch;  // core/term_batch.hpp — the shared batched term buffer
class LaneFiller;  // core/lane_sampler.hpp — decode() in SIMD lanes

/// Exponent theta of the cooling branch's k^-theta hop distribution,
/// odgi-layout's value.
inline constexpr double kZipfTheta = 0.99;

/// PRNG words every term consumes, whether or not it turns out valid.
inline constexpr std::size_t kTermWords = 4;

/// Terms in one block of a stream: Xoshiro256Plus::jump_block() skips
/// exactly one block's words, so the blocks of a stream can be sampled in
/// any order, by any thread, from pre-positioned streams.
inline constexpr std::size_t kBlock = rng::Xoshiro256Plus::kBlockWords / kTermWords;

/// One sampled stress term: two steps on one path plus chosen endpoints,
/// the reference (path-nucleotide) distance between the chosen points and
/// the nudge its update uses.
struct TermSample {
    std::uint32_t path;
    std::uint32_t step_i, step_j;
    std::uint32_t node_i, node_j;
    End end_i, end_j;
    std::uint64_t pos_i, pos_j;  ///< path-space positions of the endpoints
    double d_ref;
    double nudge;       ///< coincident-point separation (nudge_from_word)
    bool valid;         ///< false when the term degenerates (d_ref == 0 etc.)
    bool took_cooling;  ///< which branch of Alg. 1 line 7 was taken
};

/// Path-space position of the chosen endpoint of a step: a forward step's
/// segment start sits at the step offset and its end at offset + length;
/// a reverse-complement step swaps the two.
inline std::uint64_t endpoint_path_position(std::uint64_t step_pos,
                                            std::uint32_t node_len,
                                            bool step_reverse, End e) noexcept {
    const bool at_end = (e == End::kEnd);
    return (at_end != step_reverse) ? step_pos + node_len : step_pos;
}

/// The cooling coin of a term whose iteration does not force the cooling
/// branch: bit 63 of w3.
inline bool cooling_coin(const std::uint64_t* w) noexcept { return (w[3] >> 63) != 0; }

class PairSampler {
public:
    PairSampler(const graph::LeanGraph& g, const LayoutConfig& cfg) : g_(&g) {
        const std::uint32_t n_paths = g.path_count();
        std::vector<double> weights(n_paths);
        for (std::uint32_t p = 0; p < n_paths; ++p) {
            weights[p] = static_cast<double>(g.path_step_count(p));
        }
        path_alias_.build(weights);

        // One hop table per distinct Zipf space; every table is a prefix of
        // the k^-theta weights of the largest space.
        std::vector<std::uint64_t> space(n_paths);
        std::uint64_t max_space = 1;
        for (std::uint32_t p = 0; p < n_paths; ++p) {
            std::uint64_t s = g.path_step_count(p) > 1 ? g.path_step_count(p) - 1 : 1;
            if (cfg.zipf_space_max > 0 && s > cfg.zipf_space_max) s = cfg.zipf_space_max;
            space[p] = s;
            max_space = std::max(max_space, s);
        }
        std::vector<double> hop_weight(max_space);
        for (std::uint64_t k = 1; k <= max_space; ++k) {
            hop_weight[k - 1] = std::pow(static_cast<double>(k), -kZipfTheta);
        }
        std::map<std::uint64_t, std::uint32_t> table_of_space;
        zipf_of_path_.resize(n_paths);
        for (std::uint32_t p = 0; p < n_paths; ++p) {
            const auto [it, fresh] = table_of_space.try_emplace(
                space[p], static_cast<std::uint32_t>(zipf_.size()));
            if (fresh) {
                zipf_.emplace_back(std::span<const double>(hop_weight.data(), space[p]));
            }
            zipf_of_path_[p] = it->second;
        }
    }

    const graph::LeanGraph& graph() const noexcept { return *g_; }

    /// Turns one term's four words into its path, steps, endpoints, nudge
    /// and branch. `cooling` is the branch already decided — Alg. 1 line 6
    /// (`cooling_iter || cooling_coin(w)`), or once per warp by the
    /// warp-merging kernel (Sec. V-B3). Reads no step record: `valid` is
    /// only provisional (false for a one-step path or step_j == step_i)
    /// until resolve() has seen d_ref.
    TermSample decode(const std::uint64_t* w, bool cooling) const noexcept {
        TermSample t{};
        t.took_cooling = cooling;
        t.path = path_alias_.draw(w[0]);
        t.end_i = (w[3] >> 61) & 1 ? End::kStart : End::kEnd;
        t.end_j = (w[3] >> 60) & 1 ? End::kStart : End::kEnd;
        t.nudge = nudge_from_word(w[3]);
        const std::uint32_t n_steps = g_->path_step_count(t.path);
        if (n_steps < 2) return t;

        t.step_i = static_cast<std::uint32_t>(rng::mulhi(w[1], n_steps));
        // Both candidates for step_j are computed and one is kept with a
        // mask: the cooling coin, the hop direction and, on short paths,
        // the reflections are coin flips that a branch would mispredict.
        // The cooling candidate is a Zipf hop in a random direction,
        // reflected at the path ends so every step can reach a partner.
        const std::int64_t hop = zipf_[zipf_of_path_[t.path]].draw(w[2]) + 1;
        const std::int64_t last = static_cast<std::int64_t>(n_steps) - 1;
        std::int64_t j = static_cast<std::int64_t>(t.step_i) +
                         (((w[3] >> 62) & 1) ? hop : -hop);
        j = std::abs(j);                   // reflect at step 0
        j = std::min(j, 2 * last - j);     // reflect at the last step
        j = std::max<std::int64_t>(j, 0);  // extremely short path + long hop
        const auto uniform = static_cast<std::uint32_t>(rng::mulhi(w[2], n_steps));
        const std::uint32_t keep_hop = 0u - static_cast<std::uint32_t>(cooling);
        t.step_j = (static_cast<std::uint32_t>(j) & keep_hop) | (uniform & ~keep_hop);
        t.valid = t.step_j != t.step_i;
        return t;
    }

    /// Completes a decoded term from the step records and node lengths:
    /// node ids, endpoint positions and d_ref. A term whose endpoints
    /// coincide in path space (d_ref == 0) becomes invalid.
    void resolve(TermSample& t) const noexcept {
        if (!t.valid) return;
        const std::uint64_t first = g_->path_offsets()[t.path];
        resolve_at(first + t.step_i, first + t.step_j, t);
    }

    /// resolve() for the steps at flat record indices `fi` and `fj`
    /// (path offset + step), which fill_batch_staged keeps between passes.
    void resolve_at(std::uint64_t fi, std::uint64_t fj, TermSample& t) const noexcept {
        const auto records = g_->step_records();
        const auto lengths = g_->node_lengths();
        const graph::PathStepRecord& ri = records[fi];
        const graph::PathStepRecord& rj = records[fj];
        t.node_i = ri.node;
        t.node_j = rj.node;
        t.pos_i = endpoint_path_position(ri.position, lengths[ri.node],
                                         ri.orient != 0, t.end_i);
        t.pos_j = endpoint_path_position(rj.position, lengths[rj.node],
                                         rj.orient != 0, t.end_j);
        const std::uint64_t d = t.pos_i > t.pos_j ? t.pos_i - t.pos_j
                                                  : t.pos_j - t.pos_i;
        t.d_ref = static_cast<double>(d);
        t.valid = d != 0;
    }

    /// Draws one term. `cooling_iter` is the Alg. 1 line 6 predicate for the
    /// current iteration (iter >= N_iters/2); the per-step coin is bit 63
    /// of w3. `Rng` must provide next().
    template <typename Rng>
    TermSample sample(bool cooling_iter, Rng& rng) const {
        std::uint64_t w[kTermWords];
        for (auto& x : w) x = rng.next();
        TermSample t = decode(w, cooling_iter || cooling_coin(w));
        resolve(t);
        return t;
    }

    /// Draws one term with the cooling/non-cooling branch already decided —
    /// the warp-merging kernel decides it once per warp (Sec. V-B3) instead
    /// of per thread. Consumes the same four words as sample().
    template <typename Rng>
    TermSample sample_branch(bool cooling, Rng& rng) const {
        std::uint64_t w[kTermWords];
        for (auto& x : w) x = rng.next();
        TermSample t = decode(w, cooling);
        resolve(t);
        return t;
    }

    /// The scalar batch sampler: overwrites `out` with `n` terms (invalid
    /// terms keep their slot with valid == 0) and returns how many were
    /// degenerate. Pass 1 draws and decodes: per block of 64 terms the
    /// 4 x 64 words come from one tight loop, and each decoded term parks
    /// the flat indices of its two step records in its node columns.
    /// Pass 2 resolves d_ref and validity term by term while prefetching
    /// the step records of the term a fixed distance ahead, so a steady
    /// number of cold loads is always in flight. The bytes equal n calls
    /// of sample() on the same stream, however the n terms are split
    /// across calls. Writes the columns the update kernel reads
    /// (node/end/d_ref/nudge/valid); with `replay` it also writes the
    /// replay columns (path/step/pos) that the
    /// memory-modelling backends walk. Defined in core/term_batch.hpp.
    template <typename Rng>
    std::uint64_t fill_batch_staged(bool cooling_iter, Rng& rng, std::size_t n,
                                    TermBatch& out, bool replay = false) const;

    /// The same fill for slots [begin, begin + n) of a batch already sized
    /// by TermBatch::resize (with the same `replay`). Leaves the other
    /// slots and invalid_count() alone, so disjoint ranges of one batch
    /// may be filled concurrently; returns the range's degenerate terms
    /// for the caller to add_invalid() once every range is in.
    template <typename Rng>
    std::uint64_t fill_batch_staged(bool cooling_iter, Rng& rng, std::size_t begin,
                                    std::size_t n, TermBatch& out,
                                    bool replay = false) const;

    /// Pass 2 of fill_batch_staged alone, for slots [begin, begin + n)
    /// whose pass 1 already ran (here or in the lane filler): resolves
    /// each term from the record indices parked in its node columns and
    /// returns the range's degenerate terms. Defined in core/term_batch.hpp.
    std::uint64_t resolve_staged(TermBatch& out, std::size_t begin, std::size_t n,
                                 bool replay = false) const;

private:
    friend class LaneFiller;  // reads the tables decode() draws from

    const graph::LeanGraph* g_;
    rng::AliasTable path_alias_;
    std::vector<rng::AliasTable> zipf_;       ///< hop - 1, one per Zipf space
    std::vector<std::uint32_t> zipf_of_path_;  ///< index into zipf_
};

}  // namespace pgl::core

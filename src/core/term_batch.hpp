#pragma once
// The batched term pipeline shared by every PG-SGD backend. A TermBatch is
// a plain SoA buffer of sampled stress terms: the CPU engine fills one
// batch per block of its ring, the GPU simulator fills one batch per warp step (one
// slot per lane), the tensor backend turns a batch into its gather/scatter
// index tensors, and the memory-characterization replayer walks a batch to
// reproduce the update loop's address stream. All four therefore consume
// the identical term representation instead of private per-term loops.
//
// Two fillers write a batch. PairSampler::fill_batch_staged fills one
// stream's terms on any host and is the reference; the lane filler
// (core/lane_sampler.hpp) runs its pass 1 for up to eight blocks' streams
// at once in AVX-512 lanes, and both finish with the one resolve pass,
// PairSampler::resolve_staged. Each term takes exactly four words of its
// stream (w0 path, w1 step_i, w2 step_j or the Zipf hop, w3 coins and
// nudge; core/sampling.hpp), so a batch holds the same terms, nudges
// included, as the same number of sample() calls, however the stream is
// sliced into batches, slot ranges or lanes.
//
// Invalid (degenerate) terms keep their slot with valid == 0 so that
// slot-indexed consumers (the warp simulator pairs slot k with lane k) see
// holes exactly where the scalar path would have skipped.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sampling.hpp"
#include "core/step_math.hpp"

namespace pgl::core {

struct TermBatch {
    // Sampled path/step identities (needed by the memory-modelling
    // backends, which replay the address stream of the step lookups).
    std::vector<std::uint32_t> path;
    std::vector<std::uint32_t> step_i, step_j;

    // The update's operands: node ids, chosen segment endpoints, reference
    // distance and the coincident-point separation nudge.
    std::vector<std::uint32_t> node_i, node_j;
    std::vector<std::uint8_t> end_i, end_j;
    std::vector<std::uint64_t> pos_i, pos_j;
    std::vector<double> d_ref;
    std::vector<double> nudge;

    std::vector<std::uint8_t> valid;

    std::size_t size() const noexcept { return d_ref.size(); }
    bool empty() const noexcept { return d_ref.empty(); }

    void clear() noexcept {
        invalid_ = 0;
        path.clear();
        step_i.clear();
        step_j.clear();
        node_i.clear();
        node_j.clear();
        end_i.clear();
        end_j.clear();
        pos_i.clear();
        pos_j.clear();
        d_ref.clear();
        nudge.clear();
        valid.clear();
    }

    void reserve(std::size_t n) {
        path.reserve(n);
        step_i.reserve(n);
        step_j.reserve(n);
        node_i.reserve(n);
        node_j.reserve(n);
        end_i.reserve(n);
        end_j.reserve(n);
        pos_i.reserve(n);
        pos_j.reserve(n);
        d_ref.reserve(n);
        nudge.reserve(n);
        valid.reserve(n);
    }

    /// Appends one sampled term (valid or not) with its update nudge.
    void append(const TermSample& t) {
        path.push_back(t.path);
        step_i.push_back(t.step_i);
        step_j.push_back(t.step_j);
        node_i.push_back(t.node_i);
        node_j.push_back(t.node_j);
        end_i.push_back(static_cast<std::uint8_t>(t.end_i));
        end_j.push_back(static_cast<std::uint8_t>(t.end_j));
        pos_i.push_back(t.pos_i);
        pos_j.push_back(t.pos_j);
        d_ref.push_back(t.d_ref);
        nudge.push_back(t.nudge);
        valid.push_back(t.valid ? 1 : 0);
        if (!t.valid) ++invalid_;
    }

    /// Sizes the batch to `n` slots for fill_batch_staged, which then
    /// writes every slot by index, and the invalid counter: the columns
    /// the update kernel reads always, the replay columns only with
    /// `replay` (they are emptied otherwise). Reuses capacity, so a
    /// reused batch allocates only when it grows.
    void resize(std::size_t n, bool replay) {
        invalid_ = 0;
        node_i.resize(n);
        node_j.resize(n);
        end_i.resize(n);
        end_j.resize(n);
        d_ref.resize(n);
        nudge.resize(n);
        valid.resize(n);
        const std::size_t r = replay ? n : 0;
        path.resize(r);
        step_i.resize(r);
        step_j.resize(r);
        pos_i.resize(r);
        pos_j.resize(r);
    }

    End end_i_of(std::size_t k) const noexcept { return static_cast<End>(end_i[k]); }
    End end_j_of(std::size_t k) const noexcept { return static_cast<End>(end_j[k]); }

    /// Holes in the batch (valid == 0 slots) — a running counter, not a
    /// rescan, so per-warp/per-slice consumers may query it for free.
    std::uint64_t invalid_count() const noexcept { return invalid_; }

    /// Counts `n` more holes: the running counter of a batch filled by
    /// slot ranges, which leave it to their caller.
    void add_invalid(std::uint64_t n) noexcept { invalid_ += n; }

private:
    std::uint64_t invalid_ = 0;
};

template <typename Rng>
std::uint64_t PairSampler::fill_batch_staged(bool cooling_iter, Rng& rng,
                                             std::size_t n, TermBatch& out,
                                             bool replay) const {
    out.resize(n, replay);
    const std::uint64_t invalid = fill_batch_staged(cooling_iter, rng, 0, n, out, replay);
    out.add_invalid(invalid);
    return invalid;
}

template <typename Rng>
std::uint64_t PairSampler::fill_batch_staged(bool cooling_iter, Rng& rng,
                                             std::size_t begin, std::size_t n,
                                             TermBatch& out, bool replay) const {
    const auto offsets = g_->path_offsets();
    // Raw column pointers: byte stores may alias anything, so through the
    // vectors every store would reload every column's data pointer.
    // Slot k of the range is slot begin + k of the batch.
    std::uint32_t* node_i = out.node_i.data() + begin;
    std::uint32_t* node_j = out.node_j.data() + begin;
    std::uint8_t* end_i = out.end_i.data() + begin;
    std::uint8_t* end_j = out.end_j.data() + begin;
    double* nudge = out.nudge.data() + begin;
    std::uint8_t* valid = out.valid.data() + begin;

    // Pass 1: the words of each block in one tight loop (no draw waits on
    // a memory read), then decoded. node_i/node_j hold the flat record
    // indices of the two steps until pass 2, resolve_staged.
    constexpr std::size_t kDrawBlock = 64;
    std::uint64_t words[kTermWords * kDrawBlock];
    for (std::size_t base = 0; base < n; base += kDrawBlock) {
        const std::size_t m = std::min(kDrawBlock, n - base);
        for (std::size_t i = 0; i < kTermWords * m; ++i) words[i] = rng.next();
        for (std::size_t b = 0; b < m; ++b) {
            const std::uint64_t* w = &words[kTermWords * b];
            const TermSample t = decode(w, cooling_iter || cooling_coin(w));
            const std::size_t k = base + b;
            node_i[k] = offsets[t.path] + t.step_i;
            node_j[k] = offsets[t.path] + t.step_j;
            end_i[k] = static_cast<std::uint8_t>(t.end_i);
            end_j[k] = static_cast<std::uint8_t>(t.end_j);
            nudge[k] = t.nudge;
            valid[k] = t.valid ? 1 : 0;
            if (replay) {
                out.path[begin + k] = t.path;
                out.step_i[begin + k] = t.step_i;
                out.step_j[begin + k] = t.step_j;
            }
        }
    }

    return resolve_staged(out, begin, n, replay);
}

inline std::uint64_t PairSampler::resolve_staged(TermBatch& out, std::size_t begin,
                                                 std::size_t n, bool replay) const {
    const auto records = g_->step_records();
    std::uint32_t* node_i = out.node_i.data() + begin;
    std::uint32_t* node_j = out.node_j.data() + begin;
    const std::uint8_t* end_i = out.end_i.data() + begin;
    const std::uint8_t* end_j = out.end_j.data() + begin;
    double* d_ref = out.d_ref.data() + begin;
    std::uint8_t* valid = out.valid.data() + begin;

    // Resolve term k while the records of term k + kAhead load. A rolling
    // distance keeps about kAhead terms' records in flight at every
    // point, where a block-wise prefetch would issue them in bursts.
    constexpr std::size_t kAhead = 32;
    std::uint64_t invalid = 0;
    for (std::size_t k = 0; k < n; ++k) {
        if (k + kAhead < n && valid[k + kAhead]) {
            __builtin_prefetch(&records[node_i[k + kAhead]], 0, 1);
            __builtin_prefetch(&records[node_j[k + kAhead]], 0, 1);
        }
        if (!valid[k]) {
            ++invalid;
            continue;
        }
        TermSample t;  // resolve_at writes every field it reads back
        t.end_i = static_cast<End>(end_i[k]);
        t.end_j = static_cast<End>(end_j[k]);
        resolve_at(node_i[k], node_j[k], t);
        node_i[k] = t.node_i;
        node_j[k] = t.node_j;
        d_ref[k] = t.d_ref;
        valid[k] = t.valid ? 1 : 0;
        invalid += !t.valid;
        if (replay) {
            out.pos_i[begin + k] = t.pos_i;
            out.pos_j[begin + k] = t.pos_j;
        }
    }
    return invalid;
}

}  // namespace pgl::core

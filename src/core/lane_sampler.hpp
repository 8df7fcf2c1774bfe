#pragma once
// The lane filler: pass 1 of PairSampler::fill_batch_staged (draw and
// decode) for up to eight blocks at once, one AVX-512 lane per block. The
// paper's Sec. V-B2 gives every GPU thread its own pre-positioned random
// state so the threads of a warp draw in lockstep; the block engine
// already pre-positions one Xoshiro256+ stream per 1024-term ring block
// (jump_block()), so lane l loads block l's stream and one vector loop
// steps all eight streams and decodes the eight terms they yield: the path
// and Zipf alias draws are gathers, the hop's reflections are 64-bit
// min/max/abs, and each branch of PairSampler::decode is a lane mask.
//
// The lanes reproduce decode() bit for bit: the same 64 x 64 -> 128
// multiply-shift (built from 32-bit halves), the same unsigned threshold
// compare, the same three reflections and the same nudge_from_word
// arithmetic (a subtract and a multiply, which no FMA can contract). Each
// block is then finished by PairSampler::resolve_staged, the scalar
// resolve pass both fillers share, so a block holds the same bytes
// whichever filler ran. Blocks of one group may differ in length and in
// their iteration's cooling flag.
//
// The loop needs AVX-512F and is chosen at run time (available()); on any
// other host the block engine fills every block with fill_batch_staged,
// which stays the reference the lanes are tested against.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sampling.hpp"
#include "rng/xoshiro256.hpp"

namespace pgl::core {

struct TermBatch;

/// One block for the lane filler.
struct LaneBlock {
    const rng::Xoshiro256Plus* rng;  ///< at the block's first word
    bool cooling_iter;               ///< Alg. 1 line 6 for the block's iteration
    TermBatch* out;                  ///< sized by TermBatch::resize(n, false)
};

class LaneFiller {
public:
    /// Blocks one decode() call takes at most.
    static constexpr std::size_t kLanes = 8;

    /// Whether this host has the lane loop's ISA (AVX-512F), checked once.
    static bool available() noexcept;

    /// Flattens the per-path values the lanes gather. `sampler` must
    /// outlive the filler.
    explicit LaneFiller(const PairSampler& sampler);

    /// Pass 1 for up to kLanes blocks (available() must hold): leaves each
    /// block as fill_batch_staged's pass 1 would, and the streams as they
    /// were. Finish every block with
    /// PairSampler::resolve_staged(*out, 0, out->size()).
    void decode(std::span<const LaneBlock> blocks) const;

private:
    const PairSampler* sampler_;
    /// Three words per path: first step record | step count << 32, the
    /// path's Zipf table size, and that table's bucket address.
    std::vector<std::uint64_t> paths_;
};

}  // namespace pgl::core

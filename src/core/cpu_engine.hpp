#pragma once
// The CPU backends (paper Sec. III): one block engine loop
// (pipelined_engine.cpp) shared by every thread count, with two apply
// policies fixed by the registry name. In both, max(1, cfg.threads) pool
// workers and the calling thread sample fixed blocks of pre-positioned
// stream words, one jumped Xoshiro256+ stream per shard, through a
// bounded ring of blocks that the calling thread plans. A thread claims
// up to eight consecutive blocks at once; on a CPU with AVX-512F it fills
// them together, one SIMD lane per block's stream (core/lane_sampler.hpp).
//
//   * Ordered ("cpu-pipelined") — only the calling thread applies, each
//     block the moment it is filled, in a fixed order, through the
//     UpdateKernel named by cfg.kernel ("scalar" or the byte-identical
//     vectorized "simd"). A fixed (seed, threads) pair is
//     byte-reproducible whichever thread fills which block — the contract
//     the partition scheduler builds on.
//   * Hogwild ("cpu-soa") — with threads >= 2 every sampler applies each
//     block as soon as it has filled it, racing the others through the
//     store's relaxed-atomic accessors, as odgi does (Sec. III-A); no
//     block of the next iteration is planned before the current one is
//     applied. At one thread it runs the ordered policy.
//
// Every term draws four words of its stream however it is batched, so with
// one thread and the same seed both names replay the same term stream and
// produce bit-identical layouts.
//
// Callers create engines through core::make_engine (engine.hpp); these are
// the factories the registry calls.
#include <memory>

#include "core/engine.hpp"

namespace pgl::core {

/// The block engine under the hogwild policy ("cpu-soa").
std::unique_ptr<LayoutEngine> make_cpu_engine();

/// The block engine under the ordered policy ("cpu-pipelined"):
/// max(1, cfg.threads) shards, each sampled in kBlock-term blocks (by the
/// lane filler or PairSampler::fill_batch_staged) that the
/// max(1, cfg.threads) pool workers and the calling thread share, so even
/// one thread puts two cores on sampling — the workload's bottleneck
/// (paper Sec. III) — while the caller also applies the updates.
std::unique_ptr<LayoutEngine> make_pipelined_engine();

}  // namespace pgl::core

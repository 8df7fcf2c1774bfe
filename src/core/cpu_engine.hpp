#pragma once
// The CPU backend (paper Sec. III): one block engine (pipelined_engine.cpp)
// for every thread count. max(1, cfg.threads) pool workers and the calling
// thread sample fixed blocks of pre-positioned stream words, one jumped
// Xoshiro256+ stream per shard, through a bounded ring of blocks that the
// calling thread plans. A thread claims up to eight consecutive blocks at
// once; on a CPU with AVX-512F it fills them together, one SIMD lane per
// block's stream (core/lane_sampler.hpp). Only the calling thread applies,
// each block the moment it is filled, in a fixed order, through the
// UpdateKernel named by cfg.kernel ("scalar" or the byte-identical
// vectorized "simd"). A fixed (seed, threads) pair is byte-reproducible
// whichever thread fills which block — the contract the partition
// scheduler builds on.
//
// Callers create engines through core::make_engine (engine.hpp); this is
// the factory the registry calls.
#include <memory>

#include "core/engine.hpp"

namespace pgl::core {

/// The block engine ("cpu-pipelined"):
/// max(1, cfg.threads) shards, each sampled in kBlock-term blocks (by the
/// lane filler or PairSampler::fill_batch_staged) that the
/// max(1, cfg.threads) pool workers and the calling thread share, so even
/// one thread puts two cores on sampling — the workload's bottleneck
/// (paper Sec. III) — while the caller also applies the updates.
std::unique_ptr<LayoutEngine> make_pipelined_engine();

}  // namespace pgl::core

#pragma once
// The CPU backends (paper Sec. III): two execution loops, each shared by
// every thread count.
//
//   * Hogwild ("cpu-soa", cpu_engine.cpp) — PG-SGD with asynchronous
//     updates. Each worker owns a jumped Xoshiro256+ stream and performs its
//     share of the N_steps updates of every iteration without locking; the
//     graph's extreme sparsity makes collisions harmless, exactly the
//     argument of Sec. III-A. One thread runs inline on the caller and is
//     byte-reproducible for a fixed seed.
//   * Ordered ("cpu-pipelined", pipelined_engine.cpp) — every engine
//     thread samples: the pool workers and the calling thread fill the
//     next slice's TermBatches (one per shard) in fixed blocks of
//     pre-positioned stream words, while only the calling thread applies
//     the previous slice's batches, in fixed shard order, through the
//     UpdateKernel named by cfg.kernel ("scalar" or the byte-identical
//     vectorized "simd"). A fixed (seed, threads) pair is
//     byte-reproducible whichever thread fills which block — the contract
//     the partition scheduler builds on.
//     Every term draws four words of its stream however it is batched, so
//     with one thread and the same seed cpu-pipelined replays cpu-soa's
//     term stream and the two produce bit-identical layouts.
//
// Callers create engines through core::make_engine (engine.hpp); these are
// the factories the registry calls.
#include <memory>

#include "core/engine.hpp"

namespace pgl::core {

/// The Hogwild engine ("cpu-soa").
std::unique_ptr<LayoutEngine> make_cpu_engine();

/// The ordered engine ("cpu-pipelined"): max(1, cfg.threads) shards, each
/// sampled by PairSampler::fill_batch_staged in kBlock-term blocks that the
/// max(1, cfg.threads) pool workers and the calling thread share, so even
/// one thread puts two cores on sampling — the workload's bottleneck
/// (paper Sec. III) — while the caller also applies the updates.
std::unique_ptr<LayoutEngine> make_pipelined_engine();

}  // namespace pgl::core

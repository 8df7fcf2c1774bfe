#pragma once
// Policy-driven, node-placed allocation without libnuma. Linux commits an
// anonymous page on the NUMA node of the thread that first writes it
// (first-touch), so placement needs no syscalls beyond mmap: a
// NodeAllocator maps a block and has the pool's *pinned* workers zero
// exactly the pages the policy assigns to their node before the caller
// fills in values. The zeroing writes the bytes mmap already guarantees,
// so placement can never change what a run computes — only where the
// pages live.
//
// Per-node placed bytes are counted as `alloc.node<os_id>.bytes`; engines
// whose shard buffers become node-local by worker-side first touch (the
// TermBatch warm-ups) report through account() with an estimate.
#include <cstddef>
#include <cstdint>

namespace pgl::core {

class ThreadPool;
struct PlacementContext;

/// One page-aligned mapping (or heap block when mmap is unavailable).
/// Move-only; unmapped on destruction.
class PlacedBlock {
public:
    PlacedBlock() = default;
    ~PlacedBlock() { release(); }

    PlacedBlock(PlacedBlock&& o) noexcept
        : p_(o.p_), bytes_(o.bytes_), mapped_(o.mapped_) {
        o.p_ = nullptr;
        o.bytes_ = 0;
        o.mapped_ = false;
    }
    PlacedBlock& operator=(PlacedBlock&& o) noexcept {
        if (this != &o) {
            release();
            p_ = o.p_;
            bytes_ = o.bytes_;
            mapped_ = o.mapped_;
            o.p_ = nullptr;
            o.bytes_ = 0;
            o.mapped_ = false;
        }
        return *this;
    }
    PlacedBlock(const PlacedBlock&) = delete;
    PlacedBlock& operator=(const PlacedBlock&) = delete;

    float* floats() noexcept { return static_cast<float*>(p_); }
    const float* floats() const noexcept { return static_cast<const float*>(p_); }
    std::size_t bytes() const noexcept { return bytes_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

private:
    friend class NodeAllocator;
    void release() noexcept;

    void* p_ = nullptr;
    std::size_t bytes_ = 0;
    bool mapped_ = false;
};

/// Allocates placed blocks under one PlacementContext, first-touching
/// through `pool`'s workers. Both referents must outlive the allocator;
/// engines construct one per run around their placed stores.
class NodeAllocator {
public:
    NodeAllocator(const PlacementContext& place, ThreadPool& pool)
        : place_(place), pool_(pool) {}

    NodeAllocator(const NodeAllocator&) = delete;
    NodeAllocator& operator=(const NodeAllocator&) = delete;

    /// A zero-filled block of `count` floats whose pages are committed on
    /// the policy's nodes (pinned workers touch their own pages; pages of
    /// nodes without a worker, and every page when the pool is empty or
    /// unpinned, are touched by the caller).
    PlacedBlock allocate_floats(std::size_t count);

    /// Adds `bytes` to `alloc.node<os_id>.bytes` for topology node index
    /// `topo_node` — the accounting hook for buffers placed by natural
    /// worker-side first touch rather than through allocate_floats.
    void account(std::uint32_t topo_node, std::uint64_t bytes) const;

private:
    const PlacementContext& place_;
    ThreadPool& pool_;
};

}  // namespace pgl::core

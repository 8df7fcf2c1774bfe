#include "core/node_alloc.hpp"

#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "core/layout.hpp"
#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pgl::core {

namespace {

/// Placement granularity. The policy maps pages of this size to nodes;
/// using a fixed 4 KiB keeps the page -> node map identical across hosts
/// (huge-page kernels still commit at their own granularity — the map is
/// then simply coarser in practice, never wrong).
constexpr std::size_t kPageBytes = 4096;

constexpr std::uint32_t kNoOwner = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void PlacedBlock::release() noexcept {
    if (!p_) return;
#if defined(__linux__)
    if (mapped_) {
        ::munmap(p_, bytes_);
        p_ = nullptr;
        return;
    }
#endif
    ::operator delete(p_);
    p_ = nullptr;
}

PlacedBlock NodeAllocator::allocate_floats(std::size_t count) {
    PlacedBlock blk;
    if (count == 0) return blk;
    const std::size_t bytes =
        (count * sizeof(float) + kPageBytes - 1) / kPageBytes * kPageBytes;
#if defined(__linux__)
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
        blk.p_ = p;
        blk.mapped_ = true;
    }
#endif
    if (!blk.p_) blk.p_ = ::operator new(bytes);
    blk.bytes_ = bytes;

    char* const base = static_cast<char*>(blk.p_);
    const std::size_t n_pages = bytes / kPageBytes;
    const std::uint32_t n_nodes =
        place_.topo ? place_.topo->node_count() : 1;
    std::vector<std::uint64_t> node_bytes(n_nodes, 0);

    // Which pinned worker owns which node, for worker-side first touch.
    std::vector<std::vector<std::uint32_t>> node_workers(n_nodes);
    for (std::uint32_t tid = 0;
         tid < pool_.size() && tid < place_.plan.slots.size(); ++tid) {
        node_workers[place_.plan.slots[tid].node].push_back(tid);
    }

    std::vector<std::uint32_t> owner(n_pages, kNoOwner);
    std::vector<std::uint64_t> node_rank(n_nodes, 0);
    for (std::size_t p = 0; p < n_pages; ++p) {
        const std::uint32_t node = place_.page_node(p);
        node_bytes[node] += kPageBytes;
        const auto& workers = node_workers[node];
        if (!workers.empty()) {
            owner[p] = workers[node_rank[node]++ % workers.size()];
        }
    }

    bool any_owned = false;
    for (const std::uint32_t o : owner) any_owned |= o != kNoOwner;
    if (any_owned) {
        pool_.run([&](std::uint32_t tid) {
            for (std::size_t p = 0; p < n_pages; ++p) {
                if (owner[p] == tid) {
                    std::memset(base + p * kPageBytes, 0, kPageBytes);
                }
            }
        });
    }
    // Pages on nodes without a pinned worker — and everything when the
    // pool is empty or unpinned — fall back to caller first touch.
    for (std::size_t p = 0; p < n_pages; ++p) {
        if (owner[p] == kNoOwner) {
            std::memset(base + p * kPageBytes, 0, kPageBytes);
        }
    }

    for (std::uint32_t k = 0; k < n_nodes; ++k) {
        if (node_bytes[k]) account(k, node_bytes[k]);
    }
    return blk;
}

void NodeAllocator::account(std::uint32_t topo_node,
                            std::uint64_t bytes) const {
    const std::uint32_t os_id =
        place_.topo && topo_node < place_.topo->node_count()
            ? place_.topo->nodes[topo_node].os_id
            : topo_node;
    telemetry::Registry::instance()
        .counter("alloc.node" + std::to_string(os_id) + ".bytes")
        .add(bytes);
}

void XYStore::load(const Layout& init, NodeAllocator& alloc) {
    heap_ = std::vector<float>();
    blk_ = alloc.allocate_floats(4 * init.size());
    fill(blk_.floats(), init);
}

}  // namespace pgl::core

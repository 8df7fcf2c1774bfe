#pragma once
// Concurrent union-find (disjoint-set forest) over dense ids, plus the
// dense-relabeling step every consumer wants afterwards. The streaming GFA
// reader's byte windows unite link and path-step endpoints from several
// threads at once, so a union is one compare-and-swap on a root and a find
// halves its path with another; any thread may call find and unite
// concurrently. A root is always linked under the smaller of the two
// roots, so parent(v) <= v and every set's root is its smallest member:
// the labels below, numbered by smallest member id, are a pure function of
// the partition — independent of union order and of thread interleaving.
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace pgl::core {

class UnionFind {
public:
    explicit UnionFind(std::uint32_t n)
        : parent_(std::make_unique<std::atomic<std::uint32_t>[]>(n)), n_(n) {
        for (std::uint32_t v = 0; v < n; ++v) {
            parent_[v].store(v, std::memory_order_relaxed);
        }
    }

    std::uint32_t find(std::uint32_t x) noexcept {
        for (;;) {
            std::uint32_t p = parent_[x].load();
            if (p == x) return x;
            const std::uint32_t gp = parent_[p].load();
            // Path halving. A lost race leaves x under another ancestor,
            // which serves as well.
            if (gp != p) parent_[x].compare_exchange_weak(p, gp);
            x = gp;
        }
    }

    /// Merges the sets of a and b; returns the root of the merged set as
    /// of the merge (a later concurrent union may link it further).
    std::uint32_t unite(std::uint32_t a, std::uint32_t b) noexcept {
        for (;;) {
            a = find(a);
            b = find(b);
            if (a == b) return a;
            if (a < b) std::swap(a, b);
            // Only a root is relinked, and a root never becomes one again,
            // so a failed exchange just means another thread linked `a`.
            std::uint32_t expected = a;
            if (parent_[a].compare_exchange_strong(expected, b)) return b;
        }
    }

    std::uint32_t element_count() const noexcept { return n_; }

    /// The parent of v; parent(v) < v unless v is a root.
    std::uint32_t parent(std::uint32_t v) const noexcept { return parent_[v].load(); }

private:
    std::unique_ptr<std::atomic<std::uint32_t>[]> parent_;
    std::uint32_t n_;
};

/// Dense component labels: `label[v]` in [0, count), numbered by the
/// smallest member id of each set (scan order), so the numbering is a pure
/// function of the partition — independent of union order.
struct DenseLabels {
    std::uint32_t count = 0;
    std::vector<std::uint32_t> label;
};

/// Labels the sets of `uf` once no thread is uniting any more. A non-root
/// v has a smaller parent in its own set, labelled earlier in the scan.
inline DenseLabels dense_labels(const UnionFind& uf) {
    const std::uint32_t n = uf.element_count();
    DenseLabels out;
    out.label.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t p = uf.parent(v);
        out.label[v] = p == v ? out.count++ : out.label[p];
    }
    return out;
}

}  // namespace pgl::core

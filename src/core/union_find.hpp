#pragma once
// Union-find (disjoint-set forest) with path halving and union by size,
// plus the dense-relabeling step every consumer wants afterwards. The
// streaming GFA reader builds the partition-ready component labels with it
// while parsing; numbering components by smallest member id (in scan
// order) makes the labels, and so the partitioned layout, independent of
// union order.
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace pgl::core {

class UnionFind {
public:
    explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
        std::iota(parent_.begin(), parent_.end(), 0u);
    }

    std::uint32_t find(std::uint32_t x) noexcept {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];  // path halving
            x = parent_[x];
        }
        return x;
    }

    /// Merges the sets of a and b; returns the root of the merged set.
    std::uint32_t unite(std::uint32_t a, std::uint32_t b) noexcept {
        a = find(a);
        b = find(b);
        if (a == b) return a;
        if (size_[a] < size_[b]) std::swap(a, b);
        parent_[b] = a;
        size_[a] += size_[b];
        return a;
    }

    std::uint32_t element_count() const noexcept {
        return static_cast<std::uint32_t>(parent_.size());
    }

private:
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint32_t> size_;
};

/// Dense component labels: `label[v]` in [0, count), numbered by the
/// smallest member id of each set (scan order), so the numbering is a pure
/// function of the partition — independent of union order.
struct DenseLabels {
    std::uint32_t count = 0;
    std::vector<std::uint32_t> label;
};

inline DenseLabels dense_labels(UnionFind& uf) {
    const std::uint32_t n = uf.element_count();
    constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
    DenseLabels out;
    out.label.assign(n, kUnset);
    std::vector<std::uint32_t> root_to_label(n, kUnset);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t root = uf.find(v);
        if (root_to_label[root] == kUnset) root_to_label[root] = out.count++;
        out.label[v] = root_to_label[root];
    }
    return out;
}

}  // namespace pgl::core

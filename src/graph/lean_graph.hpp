#pragma once
// The lean, layout-only distillation of a variation graph (paper Sec. V-A):
// only the fields PG-SGD touches survive — node lengths (never sequence
// content) and, per path step, the node id, orientation and nucleotide
// offset within the path. This doubles as the path index (the ".xp" file of
// the odgi pipeline): reference distances d_ref are differences of the
// per-step nucleotide positions stored here.
//
// There is one physical step layout: the paper's cache-friendly choice
// (Sec. V-B1), one packed 16-byte PathStepRecord per step, flattened CSR
// style across paths. The original ODGI organization it replaces (parallel
// node / position / orientation arrays) is not stored: its SoA cost model
// lives in memsim (and gpusim), which derive those arrays' addresses from
// flat_step_index(), and the per-field accessors below read the record.
#include <cstdint>
#include <span>
#include <vector>

#include "graph/handle.hpp"

namespace pgl::graph {

/// Packed per-step record (the cache-friendly AoS layout).
/// 16 bytes: a whole record fits in a quarter cache line, so one access
/// fetches everything an update step needs about the step.
struct PathStepRecord {
    std::uint32_t node;      ///< node id
    std::uint32_t orient;    ///< 0 = forward, 1 = reverse
    std::uint64_t position;  ///< nucleotide offset of this step in its path
};

static_assert(sizeof(PathStepRecord) == 16);

class LeanGraph {
public:
    /// Builds a lean graph directly from node lengths and path walks (the
    /// exact-structure generators and tests use it): node ids are the
    /// indices into `node_lengths`, and step positions are recomputed as
    /// cumulative nucleotide offsets exactly as LeanGraphBuilder does.
    static LeanGraph from_parts(std::vector<std::uint32_t> node_lengths,
                                const std::vector<std::vector<Handle>>& paths);

    std::uint32_t node_count() const noexcept {
        return static_cast<std::uint32_t>(node_len_.size());
    }
    std::uint32_t path_count() const noexcept {
        return static_cast<std::uint32_t>(path_offset_.size() - 1);
    }

    std::uint32_t node_length(NodeId id) const { return node_len_[id]; }
    std::span<const std::uint32_t> node_lengths() const noexcept { return node_len_; }

    /// Number of steps in path p.
    std::uint32_t path_step_count(std::uint32_t p) const {
        return path_offset_[p + 1] - path_offset_[p];
    }
    /// Nucleotide length of path p.
    std::uint64_t path_nuc_length(std::uint64_t p) const { return path_nuc_len_[p]; }

    std::uint64_t total_path_steps() const noexcept { return step_records_.size(); }
    std::uint64_t total_path_nucleotides() const noexcept { return total_path_nuc_; }

    /// Longest reference distance appearing in any path (used to scale the
    /// SGD learning-rate schedule).
    std::uint64_t max_path_nuc_length() const noexcept { return max_path_nuc_len_; }

    const PathStepRecord& step_record(std::uint32_t p, std::uint32_t i) const {
        return step_records_[path_offset_[p] + i];
    }
    std::uint32_t step_node(std::uint32_t p, std::uint32_t i) const {
        return step_record(p, i).node;
    }
    std::uint64_t step_position(std::uint32_t p, std::uint32_t i) const {
        return step_record(p, i).position;
    }
    bool step_is_reverse(std::uint32_t p, std::uint32_t i) const {
        return step_record(p, i).orient != 0;
    }

    /// Flat index of step i of path p (for address-stream instrumentation).
    std::uint64_t flat_step_index(std::uint32_t p, std::uint32_t i) const {
        return path_offset_[p] + i;
    }

    std::span<const std::uint32_t> path_offsets() const noexcept { return path_offset_; }
    std::span<const PathStepRecord> step_records() const noexcept {
        return step_records_;
    }

private:
    friend class LeanGraphBuilder;

    void append_path(const std::vector<Handle>& steps);

    // Step-at-a-time path construction shared by append_path and the
    // streaming builder, so every ingestion route yields bit-identical
    // step records for the same walk.
    void steps_add(Handle h, std::uint64_t& pos);
    void steps_end_path(std::uint64_t pos);

    std::vector<std::uint32_t> node_len_;

    // CSR-style flattened paths.
    std::vector<std::uint32_t> path_offset_;  // size P + 1
    std::vector<PathStepRecord> step_records_;

    std::vector<std::uint64_t> path_nuc_len_;
    std::uint64_t total_path_nuc_ = 0;
    std::uint64_t max_path_nuc_len_ = 0;
};

/// Incremental LeanGraph construction for streaming ingestion: nodes are
/// registered as their lengths become known (S records), then paths are fed
/// one step at a time (P walks / W walks / cached step tables) without ever
/// materializing a per-path Handle vector. The cumulative-position
/// arithmetic is LeanGraph's own, so a builder-made graph is bit-identical
/// to from_parts() on the same walks.
class LeanGraphBuilder {
public:
    LeanGraphBuilder() { g_.path_offset_.push_back(0); }

    /// Registers a node of the given nucleotide length; ids are dense,
    /// assigned in call order starting at 0.
    NodeId add_node(std::uint32_t length);

    void reserve_nodes(std::size_t n) { g_.node_len_.reserve(n); }
    void reserve_paths(std::size_t n);
    void reserve_steps(std::uint64_t n);

    /// Starts a new path; steps are appended with add_step until end_path.
    void begin_path();
    /// Appends one oriented step; h.id() must be a registered node.
    void add_step(Handle h);
    /// Finishes the current path; returns its step count.
    std::uint32_t end_path();

    std::uint32_t node_count() const noexcept { return g_.node_count(); }
    std::uint32_t path_count() const noexcept {
        return static_cast<std::uint32_t>(g_.path_nuc_len_.size());
    }
    std::uint64_t current_path_steps() const noexcept {
        return g_.step_records_.size() - g_.path_offset_.back();
    }

    /// Extracts the finished graph; the builder must not be reused after.
    LeanGraph finish();

private:
    LeanGraph g_;
    std::uint64_t pos_ = 0;
    bool in_path_ = false;
};

}  // namespace pgl::graph

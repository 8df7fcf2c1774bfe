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
#include <memory>
#include <new>
#include <span>
#include <utility>
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

/// std::allocator whose value-less construct() default-initializes, so
/// resizing a vector of trivial records leaves them unwritten instead of
/// zero-filling them on the resizing thread.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
        using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

    template <typename U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

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
    friend class PathWriter;

    void append_path(const std::vector<Handle>& steps);

    // The one step rule, shared by append_path, the streaming builder and
    // PathWriter, so every ingestion route yields bit-identical step
    // records for the same walk: a step sits at the path's nucleotide
    // offset `pos`, which then advances by the node's length.
    static PathStepRecord record_step(Handle h, std::uint64_t& pos,
                                      const std::uint32_t* node_len) noexcept {
        const PathStepRecord r{h.id(), h.is_reverse() ? 1u : 0u, pos};
        pos += node_len[h.id()];
        return r;
    }
    void steps_end_path(std::uint64_t pos);
    /// Sets the totals and the maximum from path_nuc_len_.
    void sum_path_lengths() noexcept;

    std::vector<std::uint32_t> node_len_;

    // CSR-style flattened paths.
    // Size P + 1, so a default-constructed graph is the empty graph.
    std::vector<std::uint32_t> path_offset_{0};
    std::vector<PathStepRecord, DefaultInitAllocator<PathStepRecord>> step_records_;

    std::vector<std::uint64_t> path_nuc_len_;
    std::uint64_t total_path_nuc_ = 0;
    std::uint64_t max_path_nuc_len_ = 0;
};

/// Fills one path laid out by LeanGraphBuilder::presize_paths, in place,
/// with add_step's records and cumulative positions. Writers of different
/// paths touch disjoint memory and may run on different threads.
class PathWriter {
public:
    /// Appends one oriented step. Throws std::out_of_range for an
    /// unregistered node and std::logic_error past the pre-sized count.
    void add(Handle h);
    /// Steps written so far.
    std::uint64_t steps() const noexcept {
        return static_cast<std::uint64_t>(next_ - first_);
    }
    /// Records the path's nucleotide length; call once, after the last
    /// add. Throws std::logic_error if a pre-sized step was left unwritten.
    void finish();

private:
    friend class LeanGraphBuilder;
    PathWriter(PathStepRecord* first, PathStepRecord* last, const LeanGraph& g,
               std::uint64_t* nuc_len) noexcept
        : first_(first), next_(first), last_(last), node_len_(g.node_len_.data()),
          node_count_(g.node_count()), nuc_len_(nuc_len) {}

    PathStepRecord* first_;
    PathStepRecord* next_;
    PathStepRecord* last_;
    const std::uint32_t* node_len_;
    std::uint32_t node_count_;
    std::uint64_t* nuc_len_;
    std::uint64_t pos_ = 0;
};

/// Incremental LeanGraph construction for streaming ingestion: nodes are
/// registered as their lengths become known (S records), then paths are fed
/// one step at a time (P walks / W walks / cached step tables) without ever
/// materializing a per-path Handle vector — or, when every path's step
/// count is known up front, laid out at once (presize_paths) and filled
/// concurrently through PathWriters. The cumulative-position arithmetic is
/// LeanGraph's own, so a builder-made graph is bit-identical to
/// from_parts() on the same walks.
class LeanGraphBuilder {
public:
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

    /// Lays out one path per entry of `step_counts` in one step array whose
    /// records are left unwritten, so each PathWriter's pages are first
    /// touched by the thread that fills them. Call once, after the last
    /// add_node and instead of begin_path; every path must then be filled
    /// through path_writer before finish(). Throws std::length_error past
    /// 2^32 - 1 steps in total (path offsets are 32-bit).
    void presize_paths(std::span<const std::uint64_t> step_counts);
    /// The writer of pre-sized path p.
    PathWriter path_writer(std::uint32_t p);

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

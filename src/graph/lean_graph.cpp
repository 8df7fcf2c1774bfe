#include "graph/lean_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pgl::graph {

void LeanGraph::steps_end_path(std::uint64_t pos) {
    path_offset_.push_back(static_cast<std::uint32_t>(step_records_.size()));
    path_nuc_len_.push_back(pos);
}

void LeanGraph::sum_path_lengths() noexcept {
    total_path_nuc_ = 0;
    max_path_nuc_len_ = 0;
    for (const std::uint64_t len : path_nuc_len_) {
        total_path_nuc_ += len;
        max_path_nuc_len_ = std::max(max_path_nuc_len_, len);
    }
}

// Appends one path walk, recomputing cumulative nucleotide positions.
// Shares record_step/steps_end_path with LeanGraphBuilder so identical
// walks yield bit-identical records.
void LeanGraph::append_path(const std::vector<Handle>& steps) {
    std::uint64_t pos = 0;
    for (const Handle& h : steps) {
        step_records_.push_back(record_step(h, pos, node_len_.data()));
    }
    steps_end_path(pos);
}

LeanGraph LeanGraph::from_parts(std::vector<std::uint32_t> node_lengths,
                                const std::vector<std::vector<Handle>>& paths) {
    LeanGraph lg;
    lg.node_len_ = std::move(node_lengths);
    lg.path_offset_.reserve(paths.size() + 1);
    lg.path_nuc_len_.reserve(paths.size());
    for (const auto& steps : paths) {
        lg.append_path(steps);
    }
    lg.sum_path_lengths();
    return lg;
}

void PathWriter::add(Handle h) {
    if (h.id() >= node_count_) {
        throw std::out_of_range("PathWriter: step references unknown node");
    }
    if (next_ == last_) throw std::logic_error("PathWriter: path longer than pre-sized");
    *next_++ = LeanGraph::record_step(h, pos_, node_len_);
}

void PathWriter::finish() {
    if (next_ != last_) throw std::logic_error("PathWriter: path shorter than pre-sized");
    *nuc_len_ = pos_;
}

NodeId LeanGraphBuilder::add_node(std::uint32_t length) {
    const NodeId id = static_cast<NodeId>(g_.node_len_.size());
    g_.node_len_.push_back(length);
    return id;
}

void LeanGraphBuilder::reserve_paths(std::size_t n) {
    g_.path_offset_.reserve(n + 1);
    g_.path_nuc_len_.reserve(n);
}

void LeanGraphBuilder::reserve_steps(std::uint64_t n) {
    g_.step_records_.reserve(n);
}

void LeanGraphBuilder::begin_path() {
    assert(!in_path_);
    in_path_ = true;
    pos_ = 0;
}

void LeanGraphBuilder::add_step(Handle h) {
    assert(in_path_);
    if (h.id() >= g_.node_len_.size()) {
        throw std::out_of_range("LeanGraphBuilder: step references unknown node");
    }
    g_.step_records_.push_back(LeanGraph::record_step(h, pos_, g_.node_len_.data()));
}

std::uint32_t LeanGraphBuilder::end_path() {
    assert(in_path_);
    in_path_ = false;
    const std::uint32_t n = static_cast<std::uint32_t>(current_path_steps());
    g_.steps_end_path(pos_);
    return n;
}

void LeanGraphBuilder::presize_paths(std::span<const std::uint64_t> step_counts) {
    assert(!in_path_ && g_.path_offset_.size() == 1);
    std::uint64_t total = 0;
    g_.path_offset_.reserve(step_counts.size() + 1);
    for (const std::uint64_t n : step_counts) {
        total += n;
        if (total > 0xFFFFFFFFull) {
            throw std::length_error("graph has more than 2^32 - 1 path steps");
        }
        g_.path_offset_.push_back(static_cast<std::uint32_t>(total));
    }
    g_.step_records_.resize(total);
    g_.path_nuc_len_.assign(step_counts.size(), 0);
}

PathWriter LeanGraphBuilder::path_writer(std::uint32_t p) {
    PathStepRecord* const base = g_.step_records_.data();
    return PathWriter(base + g_.path_offset_[p], base + g_.path_offset_[p + 1], g_,
                      &g_.path_nuc_len_[p]);
}

LeanGraph LeanGraphBuilder::finish() {
    assert(!in_path_);
    g_.sum_path_lengths();
    return std::move(g_);
}

}  // namespace pgl::graph

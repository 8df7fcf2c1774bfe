#include "graph/lean_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pgl::graph {

void LeanGraph::steps_add(Handle h, std::uint64_t& pos) {
    step_records_.push_back(PathStepRecord{h.id(), h.is_reverse() ? 1u : 0u, pos});
    pos += node_len_[h.id()];
}

void LeanGraph::steps_end_path(std::uint64_t pos) {
    path_offset_.push_back(static_cast<std::uint32_t>(step_records_.size()));
    path_nuc_len_.push_back(pos);
    total_path_nuc_ += pos;
    max_path_nuc_len_ = std::max(max_path_nuc_len_, pos);
}

// Appends one path walk, recomputing cumulative nucleotide positions.
// Shares steps_add/steps_end_path with LeanGraphBuilder so identical walks
// yield bit-identical records.
void LeanGraph::append_path(const std::vector<Handle>& steps) {
    std::uint64_t pos = 0;
    for (const Handle& h : steps) steps_add(h, pos);
    steps_end_path(pos);
}

LeanGraph LeanGraph::from_parts(std::vector<std::uint32_t> node_lengths,
                                const std::vector<std::vector<Handle>>& paths) {
    LeanGraph lg;
    lg.node_len_ = std::move(node_lengths);
    lg.path_offset_.reserve(paths.size() + 1);
    lg.path_nuc_len_.reserve(paths.size());
    lg.path_offset_.push_back(0);
    for (const auto& steps : paths) {
        lg.append_path(steps);
    }
    return lg;
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
    g_.steps_add(h, pos_);
}

std::uint32_t LeanGraphBuilder::end_path() {
    assert(in_path_);
    in_path_ = false;
    const std::uint32_t n = static_cast<std::uint32_t>(current_path_steps());
    g_.steps_end_path(pos_);
    return n;
}

LeanGraph LeanGraphBuilder::finish() {
    assert(!in_path_);
    return std::move(g_);
}

}  // namespace pgl::graph

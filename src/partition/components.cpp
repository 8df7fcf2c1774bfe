#include "partition/components.hpp"

#include <cassert>
#include <span>
#include <utility>

#include "core/union_find.hpp"
#include "graph/gfa_stream.hpp"

namespace pgl::partition {

namespace {

using core::UnionFind;

/// Compresses union-find roots into dense component ids numbered by the
/// smallest node id in each component (scan order).
ComponentLabels finalize_labels(UnionFind& uf, std::uint32_t n_nodes) {
    (void)n_nodes;
    assert(uf.element_count() == n_nodes);
    auto dense = core::dense_labels(uf);
    ComponentLabels labels;
    labels.count = dense.count;
    labels.node_component = std::move(dense.label);
    return labels;
}

graph::Handle as_handle(graph::Handle h) { return h; }
graph::Handle as_handle(const graph::PathStepRecord& r) {
    return graph::Handle::make(r.node, r.orient != 0);
}

/// Builds the subgraphs + remap tables common to both decompose overloads.
/// `node_length(v)` and `path_steps(p)` read the source graph, so the rich
/// and lean paths share one implementation: `path_steps` returns a span of
/// Handles or of step records. Each component's LeanGraphBuilder is
/// reserved exactly and filled straight from those spans, one component at
/// a time, with no per-path copy of the walk.
template <typename NodeLengthFn, typename PathStepsFn>
Decomposition build_decomposition(ComponentLabels labels, std::uint32_t n_nodes,
                                  std::uint64_t n_paths, NodeLengthFn&& node_length,
                                  PathStepsFn&& path_steps) {
    Decomposition d;
    d.labels = std::move(labels);
    d.components.resize(d.labels.count);
    d.local_node.assign(n_nodes, 0);

    // Node remap: local ids ascend with global ids inside each component.
    for (std::uint32_t v = 0; v < n_nodes; ++v) {
        auto& comp = d.components[d.labels.node_component[v]];
        d.local_node[v] = static_cast<std::uint32_t>(comp.global_node.size());
        comp.global_node.push_back(v);
    }
    // label_components already assigned each path; kNoComponent marks an
    // empty path, which belongs to no component.
    for (std::uint64_t p = 0; p < n_paths; ++p) {
        const std::uint32_t c = d.labels.path_component[p];
        if (c != kNoComponent) {
            d.components[c].global_path.push_back(static_cast<std::uint32_t>(p));
        }
    }

    for (std::uint32_t c = 0; c < d.labels.count; ++c) {
        ComponentSubgraph& comp = d.components[c];
        graph::LeanGraphBuilder builder;
        builder.reserve_nodes(comp.global_node.size());
        for (const graph::NodeId v : comp.global_node) builder.add_node(node_length(v));
        std::uint64_t n_steps = 0;
        for (const std::uint32_t p : comp.global_path) n_steps += path_steps(p).size();
        builder.reserve_paths(comp.global_path.size());
        builder.reserve_steps(n_steps);
        for (const std::uint32_t p : comp.global_path) {
            builder.begin_path();
            for (const auto& step : path_steps(p)) {
                const graph::Handle h = as_handle(step);
                assert(d.labels.node_component[h.id()] == c);
                builder.add_step(
                    graph::Handle::make(d.local_node[h.id()], h.is_reverse()));
            }
            builder.end_path();
        }
        comp.graph = builder.finish();
    }
    return d;
}

}  // namespace

ComponentLabels label_components(const graph::VariationGraph& g) {
    const auto n = static_cast<std::uint32_t>(g.node_count());
    UnionFind uf(n);
    for (const graph::Edge& e : g.edges()) {
        uf.unite(e.from.id(), e.to.id());
    }
    // add_path materializes traversed edges, but a single-step path adds
    // none; step adjacency keeps such paths attached to their node anyway.
    for (const graph::PathRecord& p : g.paths()) {
        for (std::size_t i = 1; i < p.steps.size(); ++i) {
            uf.unite(p.steps[i - 1].id(), p.steps[i].id());
        }
    }
    ComponentLabels labels = finalize_labels(uf, n);
    labels.path_component.assign(g.path_count(), kNoComponent);
    for (std::uint64_t p = 0; p < g.path_count(); ++p) {
        const auto& steps = g.path(p).steps;
        if (!steps.empty()) {
            labels.path_component[p] = labels.node_component[steps.front().id()];
        }
    }
    return labels;
}

ComponentLabels label_components(const graph::LeanGraph& g) {
    UnionFind uf(g.node_count());
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        const std::uint32_t n_steps = g.path_step_count(p);
        for (std::uint32_t i = 1; i < n_steps; ++i) {
            uf.unite(g.step_node(p, i - 1), g.step_node(p, i));
        }
    }
    ComponentLabels labels = finalize_labels(uf, g.node_count());
    labels.path_component.assign(g.path_count(), kNoComponent);
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        if (g.path_step_count(p) > 0) {
            labels.path_component[p] = labels.node_component[g.step_node(p, 0)];
        }
    }
    return labels;
}

ComponentLabels take_labels(graph::LeanIngest& ing) {
    ComponentLabels labels;
    labels.count = ing.component_count;
    labels.node_component = std::move(ing.node_component);
    labels.path_component = std::move(ing.path_component);
    ing.component_count = 0;
    return labels;
}

Decomposition decompose(const graph::VariationGraph& g) {
    return build_decomposition(
        label_components(g), static_cast<std::uint32_t>(g.node_count()),
        g.path_count(), [&](graph::NodeId v) { return g.node_length(v); },
        [&](std::uint64_t p) { return std::span<const graph::Handle>(g.path(p).steps); });
}

Decomposition decompose(const graph::LeanGraph& g) {
    return decompose(g, label_components(g));
}

Decomposition decompose(const graph::LeanGraph& g, ComponentLabels labels) {
    return build_decomposition(
        std::move(labels), g.node_count(), g.path_count(),
        [&](graph::NodeId v) { return g.node_length(v); },
        [&](std::uint64_t p) {
            const auto pi = static_cast<std::uint32_t>(p);
            return g.step_records().subspan(g.path_offsets()[pi], g.path_step_count(pi));
        });
}

}  // namespace pgl::partition

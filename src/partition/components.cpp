#include "partition/components.hpp"

#include <cassert>
#include <span>
#include <utility>

#include "graph/gfa_stream.hpp"

namespace pgl::partition {

ComponentLabels take_labels(graph::LeanIngest& ing) {
    ComponentLabels labels;
    labels.count = ing.component_count;
    labels.node_component = std::move(ing.node_component);
    labels.path_component = std::move(ing.path_component);
    ing.component_count = 0;
    return labels;
}

Decomposition remap(const graph::LeanGraph& g, ComponentLabels labels) {
    Decomposition d;
    d.labels = std::move(labels);
    d.components.resize(d.labels.count);
    d.local_node.assign(g.node_count(), 0);

    // Node remap: local ids ascend with global ids inside each component.
    for (std::uint32_t v = 0; v < g.node_count(); ++v) {
        auto& comp = d.components[d.labels.node_component[v]];
        d.local_node[v] = static_cast<std::uint32_t>(comp.global_node.size());
        comp.global_node.push_back(v);
    }
    for (std::uint32_t p = 0; p < g.path_count(); ++p) {
        d.components[d.labels.path_component[p]].global_path.push_back(p);
    }
    return d;
}

graph::LeanGraph component_graph(const graph::LeanGraph& g,
                                 const Decomposition& d, std::uint32_t c) {
    // The builder is reserved exactly and filled straight from the source
    // step records, with no per-path copy of the walk.
    const ComponentSubgraph& comp = d.components[c];
    graph::LeanGraphBuilder builder;
    builder.reserve_nodes(comp.global_node.size());
    for (const graph::NodeId v : comp.global_node) builder.add_node(g.node_length(v));
    std::uint64_t n_steps = 0;
    for (const std::uint32_t p : comp.global_path) n_steps += g.path_step_count(p);
    builder.reserve_paths(comp.global_path.size());
    builder.reserve_steps(n_steps);
    for (const std::uint32_t p : comp.global_path) {
        builder.begin_path();
        for (const graph::PathStepRecord& r : g.step_records().subspan(
                 g.path_offsets()[p], g.path_step_count(p))) {
            assert(d.labels.node_component[r.node] == c);
            builder.add_step(graph::Handle::make(d.local_node[r.node], r.orient != 0));
        }
        builder.end_path();
    }
    return builder.finish();
}

Decomposition decompose(const graph::LeanGraph& g, ComponentLabels labels) {
    Decomposition d = remap(g, std::move(labels));
    for (std::uint32_t c = 0; c < d.count(); ++c) {
        d.components[c].graph = component_graph(g, d, c);
    }
    return d;
}

}  // namespace pgl::partition

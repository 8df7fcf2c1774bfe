#include "partition/executor.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "multilevel/plan.hpp"

namespace pgl::partition {

core::LayoutResult run_component_graph(const graph::LeanGraph& g,
                                       const SchedulerOptions& opt) {
    const core::LayoutConfig& cfg = opt.config;
    if (auto done = core::empty_objective_result(g, cfg)) {
        return std::move(*done);
    }
    auto engine = core::make_engine(opt.backend);
    if (opt.multilevel) {
        const multilevel::LayoutPlan plan = multilevel::build_plan(
            cfg, opt.ml,
            static_cast<double>(g.max_path_nuc_length()));
        multilevel::MultilevelResult ml =
            multilevel::run_plan(plan, g, *engine, cfg);
        core::LayoutResult r;
        r.layout = std::move(ml.layout);
        r.updates = ml.updates;
        r.skipped = ml.skipped;
        r.seconds = ml.engine_seconds;
        return r;
    }
    engine->init(g, cfg);
    return engine->run();
}

namespace {

/// The historical in-process mechanism: a work-stealing loop over the
/// largest-first order across a core::ThreadPool. The single-queue path is
/// verbatim from ComponentScheduler::run, so "thread" stays byte- and
/// schedule-identical to every release before the executor seam existed.
///
/// With an active placement (config.pin / config.numa) on a multi-node
/// topology, components are instead assigned whole to nodes largest-first
/// (LPT over per-node queues): a pinned worker drains its own node's queue
/// first and steals across nodes only when it runs dry, and each component
/// engine inherits "node:<k>" memory placement for its assigned node — a
/// component's store, shard buffers and workers all stay on one node.
/// Results are identical either way: node assignment only reorders which
/// worker runs which component, and the per-component seeds don't care.
class ThreadExecutor final : public Executor {
public:
    std::string_view name() const noexcept override { return "thread"; }

    std::vector<core::LayoutResult> run(
        const Decomposition& d, const SchedulerOptions& opt,
        const ComponentHook& hook) const override {
        const std::uint32_t n = d.count();
        std::vector<core::LayoutResult> results(n);

        // Largest-first (LPT) order; ties broken by component id so the
        // queue order — though not the results, which land in id-indexed
        // slots — is deterministic too.
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return d.components[a].graph.node_count() >
                                    d.components[b].graph.node_count();
                         });

        std::atomic<std::uint32_t> completed{0};
        std::mutex hook_mutex;
        const auto report = [&](std::uint32_t c) {
            const std::uint32_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            if (!hook) return;
            ComponentProgress p;
            p.component = c;
            p.completed = done;
            p.total = n;
            p.nodes = d.components[c].graph.node_count();
            p.updates = results[c].updates;
            p.seconds = results[c].seconds;
            std::lock_guard<std::mutex> lock(hook_mutex);
            hook(p);
        };

        const std::uint32_t n_workers =
            opt.component_workers <= 1 ? 0
                                       : std::min(opt.component_workers, n);
        const core::PlacementContext place =
            core::resolve_placement(opt.config, n_workers);
        const std::uint32_t n_nodes =
            place.topo ? place.topo->node_count() : 1;

        if (!place.active() || n_nodes <= 1 || n_workers <= 1) {
            // The historical single-queue path, byte for byte.
            std::atomic<std::uint32_t> next{0};
            const auto work = [&](std::uint32_t) {
                for (;;) {
                    const std::uint32_t k =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (k >= n) return;
                    const std::uint32_t c = order[k];
                    results[c] = run_component(d.components[c], c, opt);
                    report(c);
                }
            };
            // A pool of size 0 runs the job inline on the caller — the
            // right degenerate form for workers <= 1.
            core::ThreadPool pool(n_workers, place.plan);
            pool.run(work);
            return results;
        }

        // LPT across nodes: walk the largest-first order, handing each
        // component to the least-loaded node (ties -> lowest index), load
        // measured in graph nodes.
        std::vector<std::vector<std::uint32_t>> queues(n_nodes);
        std::vector<std::uint64_t> load(n_nodes, 0);
        for (const std::uint32_t c : order) {
            std::uint32_t best = 0;
            for (std::uint32_t k = 1; k < n_nodes; ++k) {
                if (load[k] < load[best]) best = k;
            }
            queues[best].push_back(c);
            load[best] += d.components[c].graph.node_count();
        }

        // A component engine placed with its node: override the memory
        // policy to the assigned node for the spreading policies. An
        // explicit node:K request is respected as-is, and pin-without-numa
        // keeps memory placement off (the pinned worker's first touch is
        // already node-local for single-threaded component engines). numa
        // is execution-only, so the override can never change bytes.
        std::vector<SchedulerOptions> node_opt(n_nodes, opt);
        if (place.policy.mode == core::NumaMode::kAuto ||
            place.policy.mode == core::NumaMode::kInterleave) {
            for (std::uint32_t k = 0; k < n_nodes; ++k) {
                node_opt[k].config.numa = "node:" + std::to_string(k);
            }
        }

        auto heads = std::make_unique<std::atomic<std::uint32_t>[]>(n_nodes);
        for (std::uint32_t k = 0; k < n_nodes; ++k) heads[k].store(0);

        const auto work = [&](std::uint32_t tid) {
            const std::uint32_t home = tid < place.plan.slots.size()
                                           ? place.plan.slots[tid].node
                                           : tid % n_nodes;
            for (;;) {
                std::uint32_t c = n;  // sentinel: nothing left anywhere
                std::uint32_t src = home;
                for (std::uint32_t off = 0; off < n_nodes; ++off) {
                    const std::uint32_t q = (home + off) % n_nodes;
                    const std::uint32_t k =
                        heads[q].fetch_add(1, std::memory_order_relaxed);
                    // Overshooting an exhausted queue just leaves its head
                    // past the end — harmless.
                    if (k < queues[q].size()) {
                        c = queues[q][k];
                        src = q;
                        break;
                    }
                }
                if (c >= n) return;
                results[c] = run_component(d.components[c], c, node_opt[src]);
                report(c);
            }
        };

        core::ThreadPool pool(n_workers, place.plan);
        pool.run(work);
        return results;
    }
};

}  // namespace

namespace detail {

std::unique_ptr<Executor> make_thread_executor() {
    return std::make_unique<ThreadExecutor>();
}

}  // namespace detail

ExecutorRegistry& ExecutorRegistry::instance() {
    static ExecutorRegistry registry = [] {
        ExecutorRegistry r;
        r.add("thread", [] { return detail::make_thread_executor(); });
        r.add("process", [] { return detail::make_process_executor(); });
        return r;
    }();
    return registry;
}

std::unique_ptr<Executor> make_executor(const std::string& name) {
    auto exec = ExecutorRegistry::instance().create(name);
    if (!exec) {
        throw std::invalid_argument(
            ExecutorRegistry::instance().unknown(name, "partition executor"));
    }
    return exec;
}

}  // namespace pgl::partition

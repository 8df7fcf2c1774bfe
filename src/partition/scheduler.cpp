#include "partition/scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "multilevel/multilevel.hpp"
#include "partition/executor.hpp"
#include "rng/splitmix64.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::partition {

namespace {

/// Sorted, so the unknown-name message lists them in order.
constexpr std::array<std::string_view, 2> kExecutors = {"process", "thread"};

}  // namespace

std::uint64_t component_seed(std::uint64_t base_seed,
                             std::uint32_t component) noexcept {
    rng::SplitMix64 mix(base_seed ^ (0x9e3779b97f4a7c15ULL * (component + 1)));
    return mix.next();
}

void check_executor(const std::string& name) {
    if (std::find(kExecutors.begin(), kExecutors.end(), name) !=
        kExecutors.end()) {
        return;
    }
    std::string msg =
        "unknown partition executor \"" + name + "\"; available:";
    for (const std::string_view e : kExecutors) {
        msg += ' ';
        msg += e;
    }
    throw std::invalid_argument(msg);
}

core::LayoutResult run_component_graph(const graph::LeanGraph& g,
                                       const SchedulerOptions& opt) {
    auto engine = core::make_engine(opt.backend);
    return multilevel::layout_graph(g, *engine, opt.config,
                                    opt.multilevel ? &opt.ml : nullptr);
}

core::LayoutResult run_component(const ComponentSubgraph& component,
                                 std::uint32_t component_id,
                                 const SchedulerOptions& opt) {
    // The component span carries the id in its category, so a trace shows
    // one "component" span per component on whichever worker track ran it,
    // with the engine/multilevel pass spans nested inside.
    telemetry::StageSpan span("component",
                              "c" + std::to_string(component_id));
    SchedulerOptions mixed = opt;
    mixed.config.seed = component_seed(opt.config.seed, component_id);
    return run_component_graph(component.graph, mixed);
}

std::vector<core::LayoutResult> run_components(const Decomposition& d,
                                               const SchedulerOptions& opt,
                                               const ComponentHook& hook) {
    // Fail before any component runs, not once per component.
    check_executor(opt.executor);
    const std::uint32_t n = d.count();
    std::vector<core::LayoutResult> results(n);
    if (n == 0) return results;
    telemetry::Registry::instance().counter("partition.components").add(n);

    const bool in_process = opt.executor == "thread";
    const ComponentStep step =
        in_process ? ComponentStep(run_component) : make_worker_step(opt);
    const std::uint32_t want =
        in_process ? opt.component_workers : opt.processes;
    // A pool of size 0 runs the loop inline on the caller.
    const std::uint32_t n_workers = want <= 1 ? 0 : std::min(want, n);
    const core::PlacementContext place =
        in_process ? core::resolve_placement(opt.config, n_workers)
                   : core::PlacementContext{};

    // Largest-first (LPT) order; ties broken by component id so the queue
    // order — though not the results, which land in id-indexed slots — is
    // deterministic too.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return d.components[a].graph.node_count() >
                                d.components[b].graph.node_count();
                     });

    // One queue, or with an active placement on a multi-node topology one
    // queue per node: walking the largest-first order, each component goes
    // whole to the least-loaded node (ties -> lowest index, load in graph
    // nodes). A pinned worker drains its own node's queue first and steals
    // across nodes only when it runs dry. Which worker runs which
    // component never changes its bytes.
    const std::uint32_t n_queues =
        place.active() && place.topo && n_workers > 1
            ? place.topo->node_count()
            : 1;
    std::vector<std::vector<std::uint32_t>> queues(n_queues);
    std::vector<std::uint64_t> load(n_queues, 0);
    for (const std::uint32_t c : order) {
        std::uint32_t best = 0;
        for (std::uint32_t k = 1; k < n_queues; ++k) {
            if (load[k] < load[best]) best = k;
        }
        queues[best].push_back(c);
        load[best] += d.components[c].graph.node_count();
    }

    // A component engine placed with its node: override the memory policy
    // to the assigned node for the spreading policies, so its store, shard
    // buffers and workers all stay on one node. An explicit node:K request
    // is respected as-is, and pin-without-numa keeps memory placement off
    // (the pinned worker's first touch is already node-local for
    // single-threaded component engines). numa is execution-only, so the
    // override can never change bytes.
    std::vector<SchedulerOptions> queue_opt(n_queues, opt);
    if (n_queues > 1 && (place.policy.mode == core::NumaMode::kAuto ||
                         place.policy.mode == core::NumaMode::kInterleave)) {
        for (std::uint32_t k = 0; k < n_queues; ++k) {
            queue_opt[k].config.numa = "node:" + std::to_string(k);
        }
    }

    auto heads = std::make_unique<std::atomic<std::uint32_t>[]>(n_queues);
    std::atomic<std::uint32_t> completed{0};
    std::mutex mutex;  // serializes the hook and the failure list
    std::vector<std::string> failures;

    const auto work = [&](std::uint32_t tid) {
        const std::uint32_t home =
            (tid < place.plan.slots.size() ? place.plan.slots[tid].node
                                           : tid) %
            n_queues;
        for (;;) {
            std::uint32_t c = n;  // sentinel: nothing left anywhere
            std::uint32_t src = home;
            for (std::uint32_t off = 0; off < n_queues; ++off) {
                const std::uint32_t q = (home + off) % n_queues;
                const std::uint32_t k =
                    heads[q].fetch_add(1, std::memory_order_relaxed);
                // Overshooting an exhausted queue just leaves its head past
                // the end — harmless.
                if (k < queues[q].size()) {
                    c = queues[q][k];
                    src = q;
                    break;
                }
            }
            if (c >= n) return;

            std::string error;
            try {
                results[c] = step(d.components[c], c, queue_opt[src]);
            } catch (const std::exception& e) {
                error = e.what();
            }
            const std::uint32_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(mutex);
            if (!error.empty()) {
                failures.push_back("component " + std::to_string(c) + ": " +
                                   error);
            } else if (hook) {
                ComponentProgress p;
                p.component = c;
                p.completed = done;
                p.total = n;
                p.nodes = d.components[c].graph.node_count();
                p.updates = results[c].updates;
                p.seconds = results[c].seconds;
                hook(p);
            }
        }
    };

    core::ThreadPool pool(n_workers, place.plan);
    pool.run(work);

    if (!failures.empty()) {
        std::sort(failures.begin(), failures.end());
        std::string msg = "partition failed (" +
                          std::to_string(failures.size()) + " of " +
                          std::to_string(n) + " components):";
        for (const std::string& f : failures) {
            msg += "\n  ";
            msg += f;
        }
        throw std::runtime_error(msg);
    }
    return results;
}

}  // namespace pgl::partition

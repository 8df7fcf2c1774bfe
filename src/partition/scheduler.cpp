#include "partition/scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "core/thread_pool.hpp"
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
                                       const core::LayoutRequest& req) {
    auto engine = core::make_engine(req.backend);
    return multilevel::layout_graph(g, *engine, req.config,
                                    req.multilevel ? &req.ml : nullptr);
}

core::LayoutResult run_component(const graph::LeanGraph& component,
                                 std::uint32_t component_id,
                                 const core::LayoutRequest& req) {
    // The component span carries the id in its category, so a trace shows
    // one "component" span per component on whichever worker track ran it,
    // with the engine/multilevel pass spans nested inside.
    telemetry::StageSpan span("component",
                              "c" + std::to_string(component_id));
    core::LayoutRequest mixed = req;
    mixed.config.seed = component_seed(req.config.seed, component_id);
    return run_component_graph(component, mixed);
}

std::vector<core::LayoutResult> run_components(const graph::LeanGraph& g,
                                               const Decomposition& d,
                                               const core::LayoutRequest& req,
                                               const ComponentHook& hook) {
    // Fail before any component runs, not once per component.
    check_executor(req.executor);
    const std::uint32_t n = d.count();
    std::vector<core::LayoutResult> results(n);
    if (n == 0) return results;
    telemetry::Registry::instance().counter("partition.components").add(n);

    const ComponentStep step = req.executor == "thread"
                                   ? ComponentStep(run_component)
                                   : make_worker_step();
    // A pool of size 0 runs the loop inline on the caller. Workers are
    // bounded by the components and by the allowed CPUs, so a request
    // cannot start one thread or child process per component.
    const std::uint32_t want = req.component_workers;
    const std::uint32_t cpus =
        static_cast<std::uint32_t>(core::allowed_cpus_self().size());
    const std::uint32_t n_workers =
        want <= 1 ? 0 : std::min({want, n, cpus});

    // One queue in largest-first (LPT) order; ties broken by component id
    // so the queue order — though not the results, which land in
    // id-indexed slots — is deterministic too. Which worker runs which
    // component never changes its bytes.
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return d.components[a].global_node.size() >
                                d.components[b].global_node.size();
                     });

    std::atomic<std::uint32_t> head{0};
    std::atomic<std::uint32_t> completed{0};
    std::atomic<std::uint32_t> live{0};  // subgraphs built and not yet dropped
    const telemetry::Histogram live_hist =
        telemetry::Registry::instance().histogram("partition.subgraphs_live");
    std::mutex mutex;  // serializes the hook and the failure list
    std::vector<std::string> failures;

    const auto build = [&](std::uint32_t c) {
        telemetry::StageSpan span("subgraph", "partition");
        return component_graph(g, d, c);
    };

    const auto work = [&](std::uint32_t) {
        for (;;) {
            const std::uint32_t k =
                head.fetch_add(1, std::memory_order_relaxed);
            if (k >= n) return;
            const std::uint32_t c = order[k];

            std::string error;
            live_hist.record(live.fetch_add(1, std::memory_order_relaxed) + 1);
            try {
                // The subgraph is a temporary: it is dropped as soon as
                // its step returns.
                results[c] = step(build(c), c, req);
            } catch (const std::exception& e) {
                error = e.what();
            }
            live.fetch_sub(1, std::memory_order_relaxed);
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
                p.nodes = d.components[c].global_node.size();
                p.updates = results[c].updates;
                p.seconds = results[c].seconds;
                hook(p);
            }
        }
    };

    core::ThreadPool pool(n_workers);
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

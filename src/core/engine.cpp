#include "core/engine.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/cpu_engine.hpp"
#include "gpusim/gpu_machine.hpp"
#include "gpusim/gpu_spec.hpp"
#include "telemetry/telemetry.hpp"
#include "tensor/torch_layout.hpp"

namespace pgl::core {

void LayoutEngine::init(const graph::LeanGraph& g, const LayoutConfig& cfg) {
    if (g.total_path_steps() == 0) {
        throw std::invalid_argument(
            "LayoutEngine::init: the graph has no path steps to sample");
    }
    // steps_per_iteration() converts this product to uint64_t.
    if (!(cfg.steps_per_iter_factor * static_cast<double>(g.total_path_steps()) <
          0x1p64)) {
        throw std::invalid_argument(
            "LayoutEngine::init: steps_per_iter_factor x total path steps "
            "must be below 2^64");
    }
    graph_ = &g;
    cfg_ = cfg;
    do_init();
}

LayoutResult LayoutEngine::run(std::uint32_t iterations) {
    if (graph_ == nullptr) {
        throw std::logic_error("LayoutEngine::run() called before init()");
    }
    LayoutConfig cfg = cfg_;
    if (iterations != 0) {
        // A truncated run of the *same* annealing schedule: pin the
        // schedule to the configured length before shortening the run,
        // otherwise the eta decay would compress into the override.
        if (cfg.schedule_iter_max == 0) cfg.schedule_iter_max = cfg_.schedule_length();
        cfg.iter_max = iterations;
    }

    const std::string backend{name()};
    telemetry::StageSpan run_span("engine.run", backend);

#ifndef PGL_TELEMETRY_DISABLED
    // Interpose the progress-hook path: every iteration boundary any
    // backend reports feeds the per-iteration duration histogram, the
    // iteration counter, and (when tracing) an iteration trace event —
    // then forwards to whatever hook the caller installed. The original
    // hook is restored on every exit path.
    struct HookGuard {
        ProgressHook& slot;
        ProgressHook saved;
        ~HookGuard() { slot = std::move(saved); }
    } guard{hook_, hook_};
    {
        auto iter_hist =
            telemetry::Registry::instance().histogram("engine.iteration_ns");
        auto iter_count =
            telemetry::Registry::instance().counter("engine.iterations");
        ProgressHook user = guard.saved;
        hook_ = [iter_hist, iter_count, last_ns = telemetry::now_ns(), user,
                 backend](const IterationStats& s) mutable {
            const std::uint64_t now = telemetry::now_ns();
            const std::uint64_t prev = std::exchange(last_ns, now);
            if (now > prev) {
                iter_hist.record(now - prev);
                telemetry::Tracer::instance().record_span(
                    "iteration " + std::to_string(s.iteration), backend, prev,
                    now - prev);
            }
            iter_count.add(1);
            if (user) user(s);
        };
    }
#endif

    LayoutResult result = do_run(cfg);

    auto& reg = telemetry::Registry::instance();
    reg.counter("engine.runs").add(1);
    reg.counter("engine.updates").add(result.updates);
    reg.counter("engine.skipped").add(result.skipped);
    return result;
}

EngineRegistry& EngineRegistry::instance() {
    static EngineRegistry registry = [] {
        EngineRegistry r;
        r.add("cpu-pipelined", [] { return make_pipelined_engine(); });
        r.add("gpusim-base", [] {
            return gpusim::make_gpusim_engine(gpusim::KernelConfig::base(),
                                              gpusim::rtx_a6000());
        });
        r.add("gpusim-optimized", [] {
            return gpusim::make_gpusim_engine(gpusim::KernelConfig::optimized(),
                                              gpusim::rtx_a6000());
        });
        r.add("torch", [] { return tensor::make_torch_engine(); });
        return r;
    }();
    return registry;
}

std::unique_ptr<LayoutEngine> make_engine(const std::string& name) {
    auto engine = EngineRegistry::instance().create(name);
    if (!engine) {
        throw std::invalid_argument(
            EngineRegistry::instance().unknown(name, "layout engine"));
    }
    return engine;
}

}  // namespace pgl::core

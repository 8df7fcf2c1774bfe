#include "driver/driver.hpp"

#include <filesystem>
#include <sstream>
#include <utility>

#include "core/topology.hpp"
#include "draw/ppm.hpp"
#include "draw/svg.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "partition/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::driver {

namespace {

/// Narration matches the historical CLI byte for byte, so messages are
/// formatted with ostream defaults (6 significant digits for doubles),
/// never std::to_string.
class Narrator {
public:
    explicit Narrator(const std::function<void(const std::string&)>& log)
        : log_(log) {}

    template <typename... Parts>
    void operator()(const Parts&... parts) const {
        if (!log_) return;
        std::ostringstream line;
        (line << ... << parts);
        log_(line.str());
    }

private:
    const std::function<void(const std::string&)>& log_;
};

}  // namespace

RunOutcome run_layout(const RunRequest& req) {
    RunOutcome out;
    if (req.component_worker) {
        out.worker_exit_code = partition::run_component_worker(
            req.graph_path, req.out_path, req.worker_spec, req.status_fd);
        return out;
    }

    const Narrator log(req.log);

    // Oversubscribing the allowed cpuset (cgroup quota, taskset, container
    // limit) never helps: extra workers just time-share the same CPUs and
    // each shard's batch gets smaller. Clamp and say so. This changes the
    // shard split — and thus the bytes of deterministic backends — so it
    // happens here, before the config reaches any engine or worker spec,
    // keeping thread- and process-executor runs in agreement.
    core::LayoutConfig cfg = req.config;
    if (cfg.threads > 1) {
        const auto allowed =
            static_cast<std::uint32_t>(core::allowed_cpus_self().size());
        if (allowed > 0 && cfg.threads > allowed) {
            log("clamping --threads ", req.config.threads, " to ", allowed,
                " allowed CPUs");
            cfg.threads = allowed;
        }
    }

    // Load the graph, or adopt the caller's cached ingest. Only a real
    // load is a "parse" stage: adopting a shared ingest costs nothing and
    // must not pollute the span histograms --timing reads.
    graph::LeanIngest owned;
    const bool owns = !req.ingest;
    if (owns) {
        telemetry::StageSpan span("parse", "cli");
        owned = req.force_pgg ? io::read_pgg_file(req.graph_path)
                              : io::load_graph_file(req.graph_path);
    }
    const graph::LeanIngest& ingest = owns ? owned : *req.ingest;
    const graph::LeanGraph& g = ingest.graph;
    out.nodes = g.node_count();
    out.paths = g.path_count();
    out.steps = g.total_path_steps();
    out.components = ingest.component_count;
    log("loaded ", out.nodes, " nodes, ", out.paths, " paths, ", out.steps,
        " steps, ", out.components, " components");

    if (!req.save_graph_path.empty()) {
        io::write_pgg_file(ingest, req.save_graph_path);
        log("wrote graph cache ", req.save_graph_path);
        if (req.out_path.empty()) {
            out.convert_only = true;
            return out;
        }
    }

    if (req.partition) {
        partition::PartitionOptions popt;
        popt.schedule = {req, req.worker_binary};
        popt.schedule.config = cfg;
        popt.progress = req.component_progress;

        // An owned ingest gives up its labels (it dies with this call); a
        // shared one is copied from — the serve daemon's cache entry must
        // stay intact for the next job.
        partition::ComponentLabels labels;
        if (owns) {
            labels = partition::take_labels(owned);
        } else {
            labels.count = ingest.component_count;
            labels.node_component = ingest.node_component;
            labels.path_component = ingest.path_component;
        }

        out.partition =
            partition::partition_layout(g, std::move(labels), popt);
        out.partitioned = true;
        out.engine_name = req.backend;
        out.updates = out.partition.updates;
        out.skipped = out.partition.skipped;
        out.engine_seconds = out.partition.engine_seconds;
        out.layout = out.partition.stitched.layout;
        log(req.backend, ": ", out.partition.decomposition.count(),
            " components, ", out.partition.updates, " updates in ",
            out.partition.seconds, " s (engine time ",
            out.partition.engine_seconds, " s), canvas ",
            out.partition.stitched.width, " x ",
            out.partition.stitched.height);
    } else {
        auto engine = req.engine_factory ? req.engine_factory()
                                         : core::make_engine(req.backend);
        if (req.iteration_progress) {
            engine->set_progress_hook(req.iteration_progress);
        }
        out.engine_name = std::string(engine->name());
        if (req.multilevel) {
            const multilevel::LayoutPlan plan = multilevel::build_plan(
                cfg, req.ml,
                static_cast<double>(g.max_path_nuc_length()));
            log("multilevel plan: ", multilevel::describe(plan));
            multilevel::MultilevelResult ml =
                multilevel::run_plan(plan, g, *engine, cfg);
            std::ostringstream levels;
            for (std::size_t l = 0; l < ml.level_nodes.size(); ++l) {
                levels << (l ? " -> " : "") << ml.level_nodes[l];
            }
            log(out.engine_name, " (multilevel, ", levels.str(),
                " nodes): ", ml.updates, " updates in ", ml.engine_seconds,
                " s");
            out.level_nodes = std::move(ml.level_nodes);
            out.updates = ml.updates;
            out.skipped = ml.skipped;
            out.engine_seconds = ml.engine_seconds;
            out.layout = std::move(ml.layout);
        } else {
            // The multilevel path gets its layout stage from run_plan's
            // per-pass spans; only the flat run is timed here.
            telemetry::StageSpan span("layout", "cli");
            engine->init(g, cfg);
            core::LayoutResult r = engine->run();
            log(out.engine_name, ": ", r.updates, " updates in ", r.seconds,
                " s");
            out.updates = r.updates;
            out.skipped = r.skipped;
            out.engine_seconds = r.seconds;
            out.layout = std::move(r.layout);
        }
    }

    if (!req.out_path.empty() || !req.per_component_dir.empty() ||
        !req.svg_path.empty() || !req.ppm_path.empty()) {
        telemetry::StageSpan span("render", "cli");
        if (!req.out_path.empty()) {
            io::write_layout_file(out.layout, req.out_path);
            log("wrote ", req.out_path);
        }
        if (!req.per_component_dir.empty()) {
            std::filesystem::create_directories(req.per_component_dir);
            for (std::uint32_t c = 0; c < out.partition.decomposition.count();
                 ++c) {
                const std::string path = req.per_component_dir +
                                         "/component_" + std::to_string(c) +
                                         ".lay";
                io::write_layout_file(out.partition.component_results[c].layout,
                                      path);
            }
            log("wrote ", out.partition.decomposition.count(),
                " per-component layouts to ", req.per_component_dir);
        }
        if (!req.svg_path.empty()) {
            draw::write_svg_file(g, out.layout, req.svg_path);
            log("wrote ", req.svg_path);
        }
        if (!req.ppm_path.empty()) {
            draw::write_ppm_file(out.layout, req.ppm_path);
            log("wrote ", req.ppm_path);
        }
    }

    if (req.compute_stress) {
        telemetry::StageSpan span("metrics", "cli");
        out.stress = metrics::sampled_path_stress(g, out.layout);
        out.stress_computed = true;
    }
    return out;
}

}  // namespace pgl::driver

// wg-bp-ml: a whole genome written as GFA, laid out by driver::run_layout
// into a published .lay.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "graph/gfa.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/interpolate.hpp"
#include "partition/components.hpp"
#include "partition/stitch.hpp"
#include "serve/cache.hpp"
#include "trace.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

using namespace pgl;

namespace {

/// wg-bp-ml: a 16-chromosome genome at bp-resolution segmentation, laid out
/// partitioned and multilevel by single-threaded component engines.
struct LayoutParams {
    std::uint32_t components = 16;
    double scale = 0.0002;
    std::uint32_t segmentation = 4;  ///< with_finer_segmentation factor
    std::string backend = "cpu-pipelined";
    std::string kernel = "scalar";
    std::uint32_t iters = 3;
    double factor = 2.0;  ///< updates per iteration / total path steps
    std::uint32_t threads = 1;  ///< engine threads
    bool partition = true;
    bool multilevel = true;
    std::uint32_t component_workers = 2;
    /// Iterations of the whole-graph engine probe in the traced pass.
    std::uint32_t probe_iters = 1;
    /// Timed run_layout calls per process after its cold first one.
    int warm_reps = 2;
};

LayoutParams params_for(const Options& opt) {
    LayoutParams p;
    if (opt.toy) {
        p.scale = 0.00002;
        p.iters = 2;
    }
    return p;
}

driver::RunRequest make_request(const LayoutParams& p, const std::string& gfa,
                                const std::string& out) {
    driver::RunRequest req;
    req.graph_path = gfa;
    req.out_path = out;
    req.backend = p.backend;
    req.config.iter_max = p.iters;
    req.config.steps_per_iter_factor = p.factor;
    req.config.threads = p.threads;
    req.config.kernel = p.kernel;
    req.partition = p.partition;
    req.component_workers = p.component_workers;
    req.executor = "thread";
    req.multilevel = p.multilevel;
    req.ml.levels = 1;
    return req;
}

/// Writes the seeded genome as GFA (and, for the traced pass, as .pgg) in
/// a child process, so neither its time nor its memory is measured.
void write_fixture(const Options& opt, const LayoutParams& p, const std::string& gfa,
                   const std::string& pgg) {
    run_in_child([&] {
        auto specs = workloads::whole_genome_spec(p.components, p.scale, opt.seed);
        if (p.segmentation > 1) {
            for (auto& s : specs) s = workloads::with_finer_segmentation(s, p.segmentation);
        }
        graph::write_gfa_file(workloads::generate_whole_genome(specs), gfa);
        if (!pgg.empty()) io::write_pgg_file(io::load_graph_file(gfa), pgg);
        return std::string();
    });
}

// --- traced engine --------------------------------------------------------

/// What the traced engine passes of one run_layout record.
struct PassLog {
    std::mutex mutex;
    std::string inner_backend;
    bool multilevel = false;
    std::uint64_t parent = 0;  ///< the run_layout span
    std::uint64_t op = 0;
    /// (thread, ns) of each component's engine creation and completion.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> starts, ends;
    /// Coarse layouts by the (nodes, steps) of the fine graph they refine.
    std::map<std::pair<std::uint32_t, std::uint64_t>, core::Layout> coarse;
};

PassLog* g_pass_log = nullptr;  ///< set while layout_breakdown runs

constexpr const char* kTracedBackend = "perfbench-traced";

/// Delegates every call to the workload's engine and times each init and
/// run pass as a span under the run_layout span. Registered in the
/// EngineRegistry, so the driver, the partition executor and the
/// multilevel plan create it exactly where they create any engine.
class TracedEngine final : public core::LayoutEngine {
public:
    explicit TracedEngine(std::unique_ptr<core::LayoutEngine> inner)
        : inner_(std::move(inner)) {}
    std::string_view name() const noexcept override { return inner_->name(); }

protected:
    void do_init() override {
        Span s("core.engine.init", g_pass_log->parent, g_pass_log->op);
        inner_->init(*graph_, cfg_);
    }

    core::LayoutResult do_run(const core::LayoutConfig& cfg) override {
        const bool refine = static_cast<bool>(cfg.initial_layout);
        const char* name = !g_pass_log->multilevel ? "core.engine.run"
                           : refine                ? "multilevel.refine"
                                                   : "multilevel.coarse_layout";
        // Forward a truncated run as one; a full run as a full run.
        const bool full = cfg.iter_max == cfg_.iter_max &&
                          cfg.schedule_iter_max == cfg_.schedule_iter_max;
        core::LayoutResult r;
        {
            Span s(name, g_pass_log->parent, g_pass_log->op);
            r = inner_->run(full ? 0 : cfg.iter_max);
        }
        if (g_pass_log->multilevel && !refine) coarse_ = r.layout;
        if (refine) {
            std::lock_guard<std::mutex> lock(g_pass_log->mutex);
            g_pass_log->coarse[{graph_->node_count(), graph_->total_path_steps()}] =
                std::move(coarse_);
        }
        return r;
    }

private:
    std::unique_ptr<core::LayoutEngine> inner_;
    core::Layout coarse_;
};

void register_traced_backend() {
    static std::once_flag once;
    std::call_once(once, [] {
        core::EngineRegistry::instance().add(kTracedBackend, [] {
            {
                std::lock_guard<std::mutex> lock(g_pass_log->mutex);
                g_pass_log->starts.emplace_back(thread_index(), now_ns());
            }
            return std::make_unique<TracedEngine>(
                core::make_engine(g_pass_log->inner_backend));
        });
    });
}

/// Records one span per component run (engine creation to completion,
/// pairing each thread's creations with its completions in order) under
/// the run_layout span; returns the makespan and the summed component time.
std::pair<double, double> record_component_spans(const PassLog& log) {
    std::map<std::uint32_t, std::vector<std::uint64_t>> starts, ends;
    for (const auto& [tid, ns] : log.starts) starts[tid].push_back(ns);
    for (const auto& [tid, ns] : log.ends) ends[tid].push_back(ns);
    std::uint64_t first = ~std::uint64_t{0}, last = 0;
    double sum = 0.0;
    for (auto& [tid, e] : ends) {
        auto& s = starts[tid];
        for (std::size_t i = 0; i < e.size() && i < s.size(); ++i) {
            SpanRecord r;
            r.name = "partition.component";
            r.id = Tracer::instance().next_id();
            r.parent = log.parent;
            r.op = log.op;
            r.tid = tid;
            r.start_ns = s[i];
            r.end_ns = e[i];
            first = std::min(first, r.start_ns);
            last = std::max(last, r.end_ns);
            sum += r.seconds();
            Tracer::instance().record(std::move(r));
        }
    }
    const double makespan = last > first ? static_cast<double>(last - first) * 1e-9 : 0.0;
    return {makespan, sum};
}

}  // namespace

std::uint64_t layout_breakdown(const driver::RunRequest& base, Metrics& m) {
    register_traced_backend();
    PassLog log;
    log.inner_backend = base.backend;
    log.multilevel = base.multilevel;
    g_pass_log = &log;

    driver::RunRequest req = base;
    req.backend = kTracedBackend;
    req.component_progress = [&log](const partition::ComponentProgress&) {
        std::lock_guard<std::mutex> lock(log.mutex);
        log.ends.emplace_back(thread_index(), now_ns());
    };
    driver::RunOutcome out;
    double layout_s = 0.0;
    {
        Span op("run_layout");
        log.parent = op.id();
        log.op = op.op();
        out = driver::run_layout(req);
        layout_s = op.close();
    }
    g_pass_log = nullptr;
    const auto [makespan, busy] = record_component_spans(log);
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    const auto pass_total = [&](const std::string& name) {
        double s = 0.0;
        for (const SpanRecord& r : spans) {
            if (r.op == log.op && r.name == name) s += r.seconds();
        }
        return s;
    };
    const double init_s = pass_total("core.engine.init");
    m.set("traced_layout_s", layout_s, "s");
    m.set("core.engine.init_s", init_s, "s");

    // The layer calls run_layout makes between engine passes, each made
    // again here on its own, on the same input.
    graph::LeanIngest ingest = io::load_graph_file(base.graph_path);
    partition::Decomposition d;
    if (base.partition) {
        Span s("partition.decompose");
        d = partition::decompose(ingest.graph, partition::take_labels(ingest));
        m.set("partition.decompose_s", s.close(), "s");
    }
    if (base.multilevel) {
        double coarsen_s = 0.0, interpolate_s = 0.0, fine_nodes = 0.0, coarse_nodes = 0.0;
        for (const partition::ComponentSubgraph& c : d.components) {
            const graph::LeanGraph& g = c.graph;
            Span s("multilevel.coarsen");
            const multilevel::CoarseLevel level = multilevel::coarsen(g);
            coarsen_s += s.close();
            fine_nodes += g.node_count();
            coarse_nodes += level.map.coarse_count();
            const auto it = log.coarse.find({g.node_count(), g.total_path_steps()});
            if (it == log.coarse.end()) continue;
            Span si("multilevel.interpolate");
            const core::Layout lifted = multilevel::interpolate(level.map, it->second, g);
            interpolate_s += si.close();
        }
        m.set("multilevel.coarsen_s", coarsen_s, "s");
        m.set("multilevel.coarse_ratio", fine_nodes > 0 ? coarse_nodes / fine_nodes : 0.0,
              "1");
        m.set("multilevel.interpolate_s", interpolate_s, "s");
        m.set("multilevel.coarse_layout_s", pass_total("multilevel.coarse_layout"), "s");
        m.set("multilevel.refine_s", pass_total("multilevel.refine"), "s");
    }
    double outside = 0.0;  // run_layout time no engine pass or component covers
    for (const SpanRecord& r : spans) {
        if (r.id == log.parent) outside = self_seconds(spans, r);
    }
    double layers = m.get("graph.ingest_s") + m.get("io.lay_write_s");
    if (base.partition) {
        Span s("partition.stitch");
        partition::stitch(out.partition.decomposition, out.partition.component_results);
        const double stitch_s = s.close();
        const double workers = std::min<double>(
            std::max<std::uint32_t>(base.component_workers, 1), d.count());
        m.set("partition.makespan_s", makespan, "s");
        m.set("partition.balance", makespan > 0 ? busy / (workers * makespan) : 0.0, "1");
        m.set("partition.stitch_s", stitch_s, "s");
        layers += m.get("partition.decompose_s") + stitch_s;
    }
    m.set("driver.self_s", outside - layers, "s");
    return serve::graph_fingerprint(base.out_path);
}

namespace {

/// One timed run_layout: wall seconds, the published bytes' digest, and
/// the run's term updates.
struct Rep {
    double seconds = 0.0;
    std::uint64_t digest = 0;
    std::uint64_t updates = 0;
};

Rep timed_layout(const driver::RunRequest& req) {
    Rep r;
    Span s("run_layout");
    const driver::RunOutcome out = driver::run_layout(req);
    r.seconds = s.close();
    r.updates = out.updates;
    r.digest = serve::graph_fingerprint(req.out_path);  // FNV-1a 64 of a .lay's bytes
    return r;
}

/// One fresh process: a cold run_layout (a set-up sample), then `warm`
/// timed ones. A process per sample keeps one process's memory placement
/// from deciding a whole run.
struct ProcessSample {
    double cold = 0.0;
    std::vector<double> warm;
    std::vector<std::uint64_t> digests;  ///< cold first
    std::uint64_t updates = 0;
    double rss_mb = 0.0;
};

ProcessSample sample_process(const driver::RunRequest& req, int warm) {
    ProcessSample ps;
    std::istringstream in(run_in_child(
        [&] {
            std::ostringstream os;
            os.precision(10);
            const Rep cold = timed_layout(req);
            os << cold.updates << ' ' << cold.seconds << ' ' << cold.digest;
            for (int i = 0; i < warm; ++i) {
                const Rep r = timed_layout(req);
                os << ' ' << r.seconds << ' ' << r.digest;
            }
            return os.str();
        },
        &ps.rss_mb));
    std::uint64_t digest = 0;
    in >> ps.updates >> ps.cold >> digest;
    ps.digests.push_back(digest);
    double secs = 0.0;
    while (in >> secs >> digest) {
        ps.warm.push_back(secs);
        ps.digests.push_back(digest);
    }
    return ps;
}

void end_to_end(const Options& opt, const LayoutParams& p, const std::string& gfa,
                Outcome& o) {
    const driver::RunRequest req = make_request(p, gfa, opt.work_dir + "/out.lay");
    std::uint64_t ref = 0;
    std::vector<double> setup, walls;
    std::uint64_t updates = 0;
    double rss = 0.0;
    const auto t0 = Clock::now();
    while (setup.size() < 3 || seconds_since(t0) < opt.seconds) {
        try {
            const ProcessSample ps = sample_process(req, p.warm_reps);
            setup.push_back(ps.cold);
            walls.insert(walls.end(), ps.warm.begin(), ps.warm.end());
            updates = ps.updates;
            rss = std::max(rss, ps.rss_mb);
            for (const std::uint64_t d : ps.digests) {
                if (ref == 0) ref = d;
                o.count(d == ref);
            }
        } catch (const std::exception& e) {
            note(std::string("layout process failed: ") + e.what());
            o.count(false);
            if (o.failed >= 3 && setup.empty()) throw std::runtime_error("every run failed");
        }
    }

    double total = 0.0;
    for (const double w : walls) total += w;
    const double layout_s = median(walls);
    Metrics& m = o.metrics;
    m.set("layout_s", layout_s, "s");
    m.set("updates_per_s", static_cast<double>(updates) / layout_s, "1/s");
    m.set("jobs_per_s", static_cast<double>(walls.size()) / total, "1/s");
    m.set("job_p50_s", layout_s, "s");
    m.set("job_p90_s", quantile(walls, 0.9), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("setup_s", median(setup), "s");
    note(std::to_string(setup.size()) + " processes, " + std::to_string(walls.size()) +
         " timed runs");
}

void traced(const Options& opt, const LayoutParams& p, const std::string& gfa,
            const std::string& pgg, Outcome& o) {
    const driver::RunRequest req = make_request(p, gfa, opt.work_dir + "/out.lay");
    Metrics& m = o.metrics;

    Tracer::instance().set_enabled(false);
    const Rep warm = timed_layout(req);
    o.count(true);
    const core::Layout layout = io::read_layout_file(req.out_path);
    Tracer::instance().set_enabled(true);

    probe_ingest(gfa, pgg, m);
    probe_lay_write(layout, opt.work_dir + "/probe.lay", m);

    // Untraced and traced repetitions alternate; the traced ones are the
    // breakdown runs whose spans give the pass metrics.
    std::vector<double> plain, with_spans;
    for (int i = 0; i < (opt.toy ? 1 : 2); ++i) {
        Tracer::instance().set_enabled(false);
        const Rep r = timed_layout(req);
        plain.push_back(r.seconds);
        o.count(r.digest == warm.digest);
        Tracer::instance().set_enabled(true);
        const std::uint64_t digest = layout_breakdown(req, m);
        with_spans.push_back(m.get("traced_layout_s"));
        o.count(digest == warm.digest);
    }
    m.set("bench.trace_overhead_frac", median(with_spans) / median(plain) - 1.0, "1");

    const graph::LeanIngest g = io::load_graph_file(gfa);
    probe_sampling_and_kernels(g.graph, req.config, opt.toy, m);
    probe_memory(16 * g.graph.total_path_steps(), opt.toy, m);
    probe_pool(m);
    probe_engine(g.graph, p.backend, req.config, p.probe_iters, m);
    layout_stress(g.graph, layout, &m);

    core::LayoutConfig job = req.config;
    job.iter_max = 1;
    job.threads = 1;
    probe_serve(gfa, job, p.backend, opt.work_dir + "/serve", m);
}

}  // namespace

Outcome run_layout_workload(const Options& opt) {
    const LayoutParams p = params_for(opt);
    const std::string gfa = opt.work_dir + "/genome.gfa";
    const std::string pgg = opt.trace ? opt.work_dir + "/genome.pgg" : std::string();
    write_fixture(opt, p, gfa, pgg);
    note(opt.workload + ": " + std::to_string(file_mb(gfa)) + " MB of GFA");

    Outcome o;
    if (opt.trace) {
        traced(opt, p, gfa, pgg, o);
    } else {
        end_to_end(opt, p, gfa, o);
    }
    return o;
}

}  // namespace perfbench

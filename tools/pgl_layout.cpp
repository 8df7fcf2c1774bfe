// pgl-layout — the command-line layout tool, mirroring `odgi layout` with
// the paper's promised `--gpu` switch (Sec. VII-B: "a user can simply add
// the --gpu argument"). main() is flag parsing plus one driver::run_layout
// call: every execution mode — flat, multilevel, partitioned (in-process
// or multi-process) and graph-cache conversion — runs the same driver
// pipeline the serve daemon uses. The internal --component-worker mode
// the process executor spawns calls partition::run_component_worker.
//
//   pgl-layout -i graph.gfa|graph.pgg -o graph.lay [layout flags] [--gpu]
//              [--save-graph FILE.pgg]
//              [--per-component-out DIR]
//              [--svg out.svg] [--ppm out.ppm] [--stress]
//              [--progress] [--timing] [--trace out.json]
//              [--list-backends] [--list-kernels]
//
// The layout flags are the flagged rows of the request field table
// (core/request.hpp), parsed, validated and listed in usage by the same
// code `pgl_serve submit` uses.
//
// Ingestion streams GFA 1.0/1.1 (S/L/P/W records, CRLF tolerant) directly
// into the engine-ready LeanGraph — the rich VariationGraph is never
// materialized — or loads a binary .pgg graph cache (detected by its
// magic, whatever the file is called). --save-graph writes the cache
// after ingestion so repeated runs of the same pangenome skip GFA parsing;
// with --save-graph and no -o the tool converts and exits. A partitioned
// run decomposes the graph into connected components, lays each out with
// its own engine instance — in-process threads or child worker
// processes — and shelf-packs the results onto one canvas (see README
// "Execution drivers" for the determinism contract).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "cli_common.hpp"
#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/request.hpp"
#include "driver/driver.hpp"
#include "io/atomic_file.hpp"
#include "partition/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace {

void usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0 << " -i graph.gfa|graph.pgg -o layout.lay [options]\n"
        << "layout flags:\n"
        << pgl::core::flag_usage() << "other options:\n"
        << "  --gpu               alias for --backend gpusim-optimized\n"
        << "  --save-graph FILE   write the parsed graph as a binary .pgg cache\n"
        << "                      (with no -o: convert and exit)\n"
        << "  --per-component-out DIR  also dump component_<k>.lay per component\n"
        << "  --svg FILE          also render an SVG\n"
        << "  --ppm FILE          also render a PPM bitmap\n"
        << "  --stress            report sampled path stress with CI95\n"
        << "  --progress          print per-iteration (or, partitioned,\n"
        << "                      per-component) progress to stderr\n"
        << "  --timing            print a per-stage wall-clock summary to stderr\n"
        << "  --trace FILE        write a Chrome trace-event JSON of the run\n"
        << "                      (load in chrome://tracing or Perfetto)\n"
        << "  --list-backends     list registered engines and exit\n"
        << "  --list-kernels      list registered update kernels and exit\n";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pgl;
    driver::RunRequest req;
    std::string trace_path, worker_spec;
    bool report_stress = false, progress = false, timing = false;
    bool component_worker = false;
    int status_fd = -1;

    // CI's smoke loops consume the `--list-backends` / `--list-kernels`
    // output verbatim (`for x in $(pgl_layout --list-...)`), so the contract
    // is strict: exit 0, one registered name per line on stdout, nothing
    // else. Handle them before any other parsing so no other flag can
    // corrupt the listing.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--list-backends") {
            for (const auto& n : core::EngineRegistry::instance().names()) {
                std::cout << n << "\n";
            }
            return 0;
        }
        if (std::string(argv[i]) == "--list-kernels") {
            for (const auto& n : core::KernelRegistry::instance().names()) {
                std::cout << n << "\n";
            }
            return 0;
        }
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return cli::next_arg_or_die(argc, argv, i, arg,
                                        [&] { usage(argv[0]); });
        };
        if (cli::layout_flag_or_die(argc, argv, i, req)) continue;
        if (arg == "-i") {
            req.graph_path = next();
        } else if (arg == "-o") {
            req.out_path = next();
        } else if (arg == "--gpu") {
            req.backend = "gpusim-optimized";
        } else if (arg == "--save-graph") {
            req.save_graph_path = next();
        } else if (arg == "--per-component-out") {
            req.per_component_dir = next();
        } else if (arg == "--svg") {
            req.svg_path = next();
        } else if (arg == "--ppm") {
            req.ppm_path = next();
        } else if (arg == "--stress") {
            report_stress = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--component-worker") {
            component_worker = true;
        } else if (arg == "--worker-spec") {
            worker_spec = next();
        } else if (arg == "--status-fd") {
            status_fd = cli::parse_int_or_die<int>(arg, next());
        } else if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage(argv[0]);
            return 2;
        }
    }
    if (component_worker) {
        // The internal mode the process executor spawns: one component in,
        // one .lay out, status frames on --status-fd. All other flags are
        // carried by --worker-spec.
        if (req.graph_path.empty() || req.out_path.empty() ||
            worker_spec.empty()) {
            std::cerr << "--component-worker requires -i, -o and "
                         "--worker-spec\n";
            return 2;
        }
        return partition::run_component_worker(req.graph_path, req.out_path,
                                               worker_spec, status_fd);
    }
    const bool convert_only = !req.save_graph_path.empty() && req.out_path.empty();
    if (req.graph_path.empty() || (req.out_path.empty() && !convert_only)) {
        std::cerr << "both -i and -o are required\n";
        usage(argv[0]);
        return 2;
    }
    if (!req.per_component_dir.empty() && !req.partition) {
        std::cerr << "--per-component-out requires --partition\n";
        return 2;
    }
    cli::validate_or_die(req);
    req.log = [](const std::string& line) { std::cerr << line << "\n"; };
    req.compute_stress = report_stress;
    if (progress) {
        req.iteration_progress = [](const core::IterationStats& s) {
            std::cerr << "iter " << (s.iteration + 1) << "/" << s.iter_max
                      << "  eta " << s.eta << "  updates " << s.updates
                      << "  skipped " << s.skipped << "\n";
        };
        req.component_progress = [](const partition::ComponentProgress& p) {
            std::cerr << "component " << p.completed << "/" << p.total
                      << " (id " << p.component << "): " << p.nodes
                      << " nodes, " << p.updates << " updates, " << p.seconds
                      << " s\n";
        };
    }

    // --trace captures every stage span of this run; enable before any work
    // so nothing is missed.
    if (!trace_path.empty()) telemetry::Tracer::instance().set_enabled(true);

    const auto t_start = std::chrono::steady_clock::now();
    try {
        const driver::RunOutcome outcome = driver::run_layout(req);
        if (outcome.convert_only) return 0;

        if (outcome.stress_computed) {
            std::cout << "sampled path stress: " << outcome.stress.value
                      << " [" << outcome.stress.ci_low << ", "
                      << outcome.stress.ci_high << "] over "
                      << outcome.stress.terms << " terms\n";
        }
        // The report covers the freeing of any output this run replaced
        // (io.reclaim_ns), which exit would wait for anyway.
        if (timing || !trace_path.empty()) io::wait_for_reclaims();
        if (timing) {
#ifndef PGL_TELEMETRY_DISABLED
            // One stage per line, machine-parseable ("timing: <stage> <s> s"),
            // all read from the telemetry span histograms so every run mode —
            // flat, --partition, --multilevel, or combinations — reports
            // through the same path. Stage sums aggregate across components
            // (and, with --executor process, across merged worker
            // snapshots), so they can exceed wall-clock with concurrency
            // > 1; a stage made of several spans says so, with its span
            // count. Only stages that ran are listed: a flat run has no
            // coarsen line.
            auto& reg = telemetry::Registry::instance();
            for (const char* stage :
                 {"parse", "subgraph", "coarsen", "layout", "interpolate",
                  "refine", "stitch", "metrics", "render", "publish"}) {
                const auto h = reg.histogram(std::string("span.") + stage);
                if (h.count() == 0) continue;
                std::cerr << "timing: " << stage << " "
                          << static_cast<double>(h.sum()) / 1e9 << " s";
                if (h.count() > 1) std::cerr << " (" << h.count() << " spans, summed)";
                std::cerr << "\n";
            }
            // Not a stage: the close that freed the replaced outputs' blocks
            // ran on its own thread, off the publish path.
            const auto reclaim = reg.histogram("io.reclaim_ns");
            if (reclaim.count() > 0) {
                std::cerr << "timing: reclaim "
                          << static_cast<double>(reclaim.sum()) / 1e9 << " s\n";
            }
#else
            std::cerr << "timing: stage spans compiled out (PGL_TELEMETRY=OFF)\n";
#endif
            std::cerr << "timing: total " << seconds_since(t_start) << " s\n";
        }
        if (!trace_path.empty()) {
            if (telemetry::write_chrome_trace(trace_path)) {
                std::cerr << "wrote trace " << trace_path << "\n";
            } else {
                std::cerr << "error: failed to write trace " << trace_path
                          << "\n";
                return 1;
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

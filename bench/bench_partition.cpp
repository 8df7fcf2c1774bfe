// Partitioned whole-genome layout bench: times partition::partition_layout
// on a multi-component synthetic genome (workloads::whole_genome_spec) —
// the remap, every component's just-in-time subgraph build and layout
// through partition::run_components, and the stitch of one canvas, exactly
// as the CLI runs them — reporting per-component and end-to-end numbers. The scheduler-worker sweep shows
// the speedup of laying out independent chromosomes concurrently.
//
//   ./bench_partition [--backend NAME] [--scale F] [--iters N] [--factor F]
//                     [--threads N] [--seed N] [--quick] [--json FILE]
//                     [--input FILE.gfa|FILE.pgg]
//
// --threads sets the scheduler's component workers (engines run with one
// thread each so the sweep measures component-level parallelism, not
// nested pools). With --json FILE one record for the --threads run is
// written — the partition entry of CI's perf-regression gate. With
// --input a real GFA or .pgg graph cache is loaded instead of generating
// the synthetic genome; either way the graph and its component labels come
// from the same ingest the CLI uses.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/pgg_io.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);

    graph::LeanIngest ingest;
    if (!opt.input_path.empty()) {
        std::cout << "== Partitioned layout of " << opt.input_path
                  << " (backend " << opt.backend << ") ==\n";
        ingest = io::load_graph_file(opt.input_path);
        std::cout << "graph: ";
    } else {
        const std::uint32_t n_components = opt.quick ? 3 : 6;
        std::cout << "== Partitioned whole-genome layout (" << n_components
                  << " components, backend " << opt.backend << ") ==\n";
        ingest = workloads::to_ingest(workloads::generate_whole_genome(
            workloads::whole_genome_spec(n_components, opt.scale, opt.seed)));
        std::cout << "genome: ";
    }
    std::cout << ingest.graph.node_count() << " nodes, "
              << ingest.graph.path_count() << " paths\n";
    const partition::ComponentLabels labels = partition::take_labels(ingest);
    std::cout << labels.count << " components\n";

    core::LayoutRequest req;
    req.backend = opt.backend;
    req.config = opt.layout_config();
    req.config.threads = 1;  // sweep component-level parallelism only

    bench::TablePrinter table(
        {"Executor", "Workers", "Components", "Updates", "EngineSec", "WallSec",
         "Upd/s"},
        {10, 9, 12, 12, 11, 9, 12});
    table.print_header(std::cout);

    bench::JsonReporter json(opt.json_path);
    std::vector<std::uint32_t> worker_sweep{1};
    if (opt.threads > 1) worker_sweep.push_back(opt.threads);

    // In-process sweep, then the same points through the multi-process
    // executor: fork/exec + .pgg/.lay shuttling per component, so the
    // WallSec gap between the two "Executor" blocks is the process
    // protocol's overhead (the stitched canvas is byte-identical). JSON
    // records are keyed "<backend>" and "<backend>-mp" so the regression
    // gate tracks both series.
    for (const std::string executor : {"thread", "process"}) {
        req.executor = executor;
        for (const std::uint32_t workers : worker_sweep) {
            req.component_workers = workers;
            partition::PartitionResult part;
            try {
                part = partition::partition_layout(ingest.graph, labels, req,
                                                   {});
            } catch (const std::runtime_error& e) {
                // No pgl_layout next to this bench (e.g. a benches-only
                // build): report and skip the series, don't fail the bench.
                std::cout << executor << " executor unavailable: " << e.what()
                          << "\n";
                break;
            }
            const double ups = part.seconds > 0.0
                                   ? static_cast<double>(part.updates) /
                                         part.seconds
                                   : 0.0;
            table.print_row(
                std::cout,
                {executor, std::to_string(workers),
                 std::to_string(part.decomposition.count()),
                 bench::fmt_sci(static_cast<double>(part.updates), 2),
                 bench::fmt(part.engine_seconds, 4), bench::fmt(part.seconds, 4),
                 bench::fmt_sci(ups, 2)});
            if (workers == opt.threads || (opt.threads <= 1 && workers == 1)) {
                core::LayoutResult summary;
                summary.updates = part.updates;
                summary.skipped = part.skipped;
                summary.seconds = part.seconds;
                const std::string label =
                    executor == "process" ? opt.backend + "-mp" : opt.backend;
                json.add(
                    bench::make_record(opt, "bench_partition", label, summary));
            }
        }
    }

    std::cout << "\nnote: per-component engines are seeded with "
                 "component_seed(seed, id); the stitched canvas is identical "
                 "for every executor and worker count\n";
    return 0;
}

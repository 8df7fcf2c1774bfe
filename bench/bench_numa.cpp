// NUMA placement bench: pinned + node-local vs unpinned updates/s on the
// whole-genome workload, at worker counts sized from the discovered
// topology (the CPUs of 1 node, of 2 nodes, of all nodes — on a one-node
// machine the sweep collapses to {1, all}). Two mixes:
//
//   cross   one flat graph spanning every component: shards touch
//           coordinates across the whole store, so auto placement rotates
//           the pages over the worker nodes (the hard case for placement);
//   local   the partitioned scheduler with one single-threaded engine per
//           component, whole components assigned to nodes largest-first —
//           each engine's store, buffers and worker share one node (the
//           case the NUMA layer is built for).
//
// Every pinned run is byte-compared against its unpinned twin before any
// number is reported: placement that changed a float is a bug, and this
// bench refuses to benchmark it. With --json the records feed CI's
// perf-regression gate; the "pin-speedup" series carries
// pinned/unpinned updates/s with direction "higher", so a regression that
// makes pinning a slowdown fails the gate.
//
//   ./bench_numa [--backend NAME] [--scale F] [--iters N] [--factor F]
//                [--seed N] [--quick] [--json FILE]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/topology.hpp"
#include "partition/partition.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

bool same_layout(const core::Layout& a, const core::Layout& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].sx != b[i].sx || a[i].sy != b[i].sy ||
            a[i].ex != b[i].ex || a[i].ey != b[i].ey) {
            return false;
        }
    }
    return true;
}

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/// Worker counts to sweep: 1, then the cumulative CPU counts of the first
/// 1, 2, ..., all nodes — "one node's worth of workers, two nodes' worth,
/// the whole machine" — deduplicated.
std::vector<std::uint32_t> worker_sweep(const core::Topology& topo) {
    std::vector<std::uint32_t> sweep{1};
    std::uint32_t cum = 0;
    for (const auto& node : topo.nodes) {
        cum += static_cast<std::uint32_t>(node.cpus.size());
        sweep.push_back(cum);
    }
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    return sweep;
}

}  // namespace

int main(int argc, char** argv) {
    auto opt = bench::BenchOptions::parse(argc, argv);
    if (opt.backend == "cpu-soa") opt.backend = "cpu-pipelined";  // deterministic
    // Median of 3 even in --quick: the gated pin-speedup ratio needs the
    // noise suppression more than CI needs the two extra sub-second runs.
    const int reps = 3;

    const auto& topo = core::discover_topology();
    std::cout << "== NUMA placement (" << opt.backend << ", "
              << topo.node_count() << " node(s), "
              << topo.allowed_cpu_count() << " allowed CPUs) ==\n";

    const std::uint32_t n_components = opt.quick ? 3 : 6;
    const auto specs =
        workloads::whole_genome_spec(n_components, opt.scale, opt.seed);
    auto ing = workloads::to_ingest(workloads::generate_whole_genome(specs));
    const graph::LeanGraph& flat = ing.graph;
    const partition::ComponentLabels labels = partition::take_labels(ing);
    std::cout << "genome: " << flat.node_count() << " nodes, "
              << flat.path_count() << " paths, " << n_components
              << " components\n";

    bench::TablePrinter table({"Mix", "Workers", "Unpinned/s", "Pinned/s",
                               "Speedup"},
                              {7, 9, 13, 13, 9});
    table.print_header(std::cout);
    bench::JsonReporter json(opt.json_path);

    const auto emit = [&](const std::string& mix, std::uint32_t workers,
                          std::uint64_t updates, double sec_unpinned,
                          double sec_pinned) {
        const double ups_un =
            sec_unpinned > 0.0 ? static_cast<double>(updates) / sec_unpinned : 0.0;
        const double ups_pin =
            sec_pinned > 0.0 ? static_cast<double>(updates) / sec_pinned : 0.0;
        const double speedup = ups_un > 0.0 ? ups_pin / ups_un : 0.0;
        table.print_row(std::cout,
                        {mix, std::to_string(workers), bench::fmt_sci(ups_un, 2),
                         bench::fmt_sci(ups_pin, 2), bench::fmt(speedup, 3)});
        for (const auto& [label, sec] :
             {std::pair<std::string, double>{mix + "-unpinned", sec_unpinned},
              {mix + "-pinned", sec_pinned}}) {
            core::LayoutResult r;
            r.updates = updates;
            r.seconds = sec;
            bench::BenchRecord rec = bench::make_record(opt, "bench_numa", label, r);
            rec.threads = workers;
            json.add(rec);
        }
        bench::BenchRecord gate =
            bench::make_record(opt, "bench_numa", mix + "-pin-speedup", {});
        gate.threads = workers;
        gate.value = speedup;
        gate.direction = "higher";
        gate.telemetry = {
            {"topology.nodes",
             static_cast<double>(
                 telemetry::Registry::instance().counter("topology.nodes").value())},
            {"pool.pin.failures",
             static_cast<double>(telemetry::Registry::instance()
                                     .counter("pool.pin.failures")
                                     .value())},
        };
        json.add(gate);
    };

    for (const std::uint32_t workers : worker_sweep(topo)) {
        // Cross-component mix: one flat engine, threads = workers.
        {
            core::LayoutConfig cfg = opt.layout_config();
            cfg.threads = workers;
            std::vector<double> t_un, t_pin;
            core::Layout lay_un, lay_pin;
            std::uint64_t updates = 0;
            for (int rep = 0; rep < reps; ++rep) {
                cfg.pin = false;
                cfg.numa = "off";
                auto r = bench::run_backend(opt.backend, flat, cfg);
                t_un.push_back(r.seconds);
                updates = r.updates;
                lay_un = std::move(r.layout);

                cfg.pin = true;
                cfg.numa = "auto";
                r = bench::run_backend(opt.backend, flat, cfg);
                t_pin.push_back(r.seconds);
                lay_pin = std::move(r.layout);
            }
            if (!same_layout(lay_un, lay_pin)) {
                std::cerr << "FATAL: pinned cross-mix layout diverged from "
                             "unpinned at workers="
                          << workers << "\n";
                return 1;
            }
            emit("cross", workers, updates, median_of(t_un), median_of(t_pin));
        }

        // Component-local mix: partitioned scheduler, single-threaded
        // engines, components assigned whole to nodes.
        {
            partition::PartitionOptions popt;
            popt.schedule.backend = opt.backend;
            popt.schedule.config = opt.layout_config();
            popt.schedule.config.threads = 1;
            popt.schedule.component_workers = workers;
            std::vector<double> t_un, t_pin;
            core::Layout lay_un, lay_pin;
            std::uint64_t updates = 0;
            for (int rep = 0; rep < reps; ++rep) {
                popt.schedule.config.pin = false;
                popt.schedule.config.numa = "off";
                auto part = partition::partition_layout(flat, labels, popt);
                t_un.push_back(part.seconds);
                updates = part.updates;
                lay_un = std::move(part.stitched.layout);

                popt.schedule.config.pin = true;
                popt.schedule.config.numa = "auto";
                part = partition::partition_layout(flat, labels, popt);
                t_pin.push_back(part.seconds);
                lay_pin = std::move(part.stitched.layout);
            }
            if (!same_layout(lay_un, lay_pin)) {
                std::cerr << "FATAL: pinned local-mix layout diverged from "
                             "unpinned at workers="
                          << workers << "\n";
                return 1;
            }
            emit("local", workers, updates, median_of(t_un), median_of(t_pin));
        }
    }

    std::cout << "\nnote: every pinned run byte-compared equal to its "
                 "unpinned twin before reporting\n";
    return 0;
}

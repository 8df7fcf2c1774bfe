// Multilevel time-to-quality bench: on a segmentation-refined whole-genome
// workload, how quickly does the coarsen -> layout -> interpolate -> refine
// pipeline reach the final path-stress of a flat run on the same backend?
//
//   ./bench_multilevel [--backend NAME] [--scale F] [--iters N] [--factor F]
//                      [--threads N] [--seed N] [--quick] [--json FILE]
//
// Method. One flat run (default backend cpu-pipelined) fixes the quality
// target: its final sampled path stress. The default multilevel schedule
// is then executed pass by pass — configured by the same
// coarse_pass_config / refine_pass_config helpers run_multilevel uses —
// with per-iteration wall-clock taken from the engine's progress hook, and the
// quality reached after refine iteration i is recovered *off the clock* by
// replaying the deterministic refine run truncated at i (run(i) replays the
// same pinned schedule bit for bit on the deterministic backends). The
// time-to-quality (TTQ) is the earliest cumulative multilevel wall-clock at
// which the sampled stress is <= the flat final; the gated metric is
//
//   value = TTQ / flat wall-clock          (direction: lower)
//
// which is a same-machine ratio, so the committed baseline transfers
// across runner classes. A full multilevel::run_multilevel execution is
// also compared byte-for-byte against the passes timed here — the bench
// refuses (exit 1) if the product path diverges from what it timed.
//
// The workload is whole_genome_spec mapped through with_finer_segmentation:
// same genomes, bp-scale node segmentation. Run coarsening targets exactly
// that redundancy dimension, which real pggb-style builds exhibit and the
// coarse odgi-style segmentation of the plain synthetic specs hides.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/layout.hpp"
#include "metrics/path_stress.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/interpolate.hpp"
#include "multilevel/multilevel.hpp"
#include "workloads/synthetic.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool same_bytes(const pgl::core::Layout& a, const pgl::core::Layout& b) {
    if (a.size() != b.size()) return false;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(pgl::core::Segment)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace pgl;
    const auto opt = bench::BenchOptions::parse(argc, argv);

    const std::uint32_t n_components = 1;
    const std::uint32_t sub = 4;
    auto specs =
        workloads::whole_genome_spec(n_components, opt.scale * 0.5, opt.seed);
    for (auto& s : specs) s = workloads::with_finer_segmentation(s, sub);
    const auto g = workloads::to_ingest(workloads::generate_whole_genome(specs)).graph;
    std::cout << "== Multilevel time-to-quality (" << n_components
              << " components, segmentation x" << sub << ", backend "
              << opt.backend << ") ==\n"
              << "genome: " << g.node_count() << " nodes, " << g.path_count()
              << " paths, " << g.total_path_steps() << " steps\n";

    core::LayoutConfig cfg = opt.layout_config();
    auto engine = core::make_engine(opt.backend);
    const auto stress = [&](const core::Layout& l) {
        return metrics::sampled_path_stress(g, l, 25.0, 7, opt.threads).value;
    };

    // --- Flat reference: wall-clock and the quality target ---
    auto t0 = Clock::now();
    engine->init(g, cfg);
    core::LayoutResult flat = engine->run();
    const double t_flat = secs_since(t0);
    const double q_flat = stress(flat.layout);
    std::cout << "flat: " << bench::fmt(t_flat, 3) << " s, final stress "
              << bench::fmt_sci(q_flat, 3) << "\n";

    // --- Multilevel passes, timed on-clock, measured off-clock ---
    const multilevel::MultilevelOptions mlopt;
    std::cout << "plan: " << multilevel::describe(cfg, mlopt) << "\n";

    t0 = Clock::now();
    const auto lvl = multilevel::coarsen(g);
    const double t_coarsen = secs_since(t0);
    std::cout << "coarse level: " << lvl.graph.node_count() << " nodes ("
              << bench::fmt(static_cast<double>(lvl.graph.node_count()) /
                                static_cast<double>(g.node_count()),
                            2)
              << "x), " << lvl.graph.total_path_steps() << " steps ("
              << bench::fmt(static_cast<double>(lvl.graph.total_path_steps()) /
                                static_cast<double>(g.total_path_steps()),
                            2)
              << "x)\n";

    // Coarse anneal + interpolate, configured as run_multilevel does.
    t0 = Clock::now();
    engine->init(lvl.graph, multilevel::coarse_pass_config(cfg));
    core::LayoutResult coarse = engine->run();
    const double t_coarse = secs_since(t0);

    t0 = Clock::now();
    core::Layout interp = multilevel::interpolate(lvl.map, coarse.layout, g);
    const double t_interp = secs_since(t0);
    const double q_interp = stress(interp);

    const core::LayoutConfig refine_cfg =
        multilevel::refine_pass_config(cfg, mlopt, g, lvl.graph, interp);

    std::vector<double> refine_cum;  // cumulative refine wall after iter i
    t0 = Clock::now();
    engine->set_progress_hook([&](const core::IterationStats&) {
        refine_cum.push_back(secs_since(t0));
    });
    engine->init(g, refine_cfg);
    core::LayoutResult refined = engine->run();
    const double t_refine = secs_since(t0);
    engine->set_progress_hook(nullptr);
    const double q_refined = stress(refined.layout);

    const double t_base = t_coarsen + t_coarse + t_interp;
    const double t_ml = t_base + t_refine;

    // Off-clock quality at every refine checkpoint: truncated replays of
    // the same deterministic schedule.
    bench::TablePrinter table({"Checkpoint", "Stress", "CumSec", "xFlat"},
                              {14, 12, 10, 8});
    table.print_header(std::cout);
    const auto row = [&](const std::string& name, double q, double cum) {
        table.print_row(std::cout,
                        {name, bench::fmt_sci(q, 3), bench::fmt(cum, 3),
                         bench::fmt(cum / t_flat, 2) +
                             (q <= q_flat ? " *" : "")});
    };
    row("interpolate", q_interp, t_base);
    double ttq = q_interp <= q_flat ? t_base : -1.0;
    for (std::uint32_t i = 1; i <= refine_cfg.iter_max; ++i) {
        double q = q_refined;
        if (i < refine_cfg.iter_max) {
            core::LayoutResult part = engine->run(i);
            q = stress(part.layout);
        }
        const double cum = t_base + refine_cum[i - 1];
        row("refine " + std::to_string(i), q, cum);
        if (ttq < 0.0 && q <= q_flat) ttq = cum;
    }

    const bool crossed = ttq >= 0.0;
    // Sentinel far above any honest ratio: a never-crossing run must fail
    // the lower-is-better gate, not sneak past it.
    const double ttq_ratio = crossed ? ttq / t_flat : 99.0;
    std::cout << "multilevel: " << bench::fmt(t_ml, 3) << " s total, final "
              << "stress " << bench::fmt_sci(q_refined, 3) << "\n";
    if (crossed) {
        std::cout << "TTQ: reached flat-final stress at "
                  << bench::fmt(ttq, 3) << " s = " << bench::fmt(ttq_ratio, 2)
                  << "x the flat wall-clock\n";
    } else {
        std::cout << "TTQ: never reached flat-final stress "
                  << "(recording sentinel ratio 99)\n";
    }

    // --- The product path must be what we just timed ---
    auto verify_engine = core::make_engine(opt.backend);
    const auto product =
        multilevel::run_multilevel(g, *verify_engine, cfg, mlopt);
    const bool bytes_ok = same_bytes(product.layout, refined.layout);
    std::cout << "run_multilevel byte-check: "
              << (bytes_ok ? "ok" : "MISMATCH")
              << "\n";

    bench::JsonReporter json(opt.json_path);
    {
        bench::BenchRecord rec =
            bench::make_record(opt, "bench_multilevel", opt.backend + "-flat",
                               flat);
        rec.seconds = t_flat;
        rec.updates_per_sec =
            t_flat > 0.0 ? static_cast<double>(flat.updates) / t_flat : 0.0;
        json.add(std::move(rec));
    }
    {
        bench::BenchRecord rec;
        rec.bench = "bench_multilevel";
        rec.backend = opt.backend + "-ttq";
        rec.scale = opt.scale;
        rec.iters = opt.iters;
        rec.threads = opt.threads;
        rec.seconds = crossed ? ttq : t_ml;
        rec.updates_per_sec = 0.0;
        rec.value = ttq_ratio;
        rec.direction = "lower";
        rec.stages = {{"coarsen", t_coarsen},
                      {"layout", t_coarse},
                      {"interpolate", t_interp},
                      {"refine", t_refine}};
        json.add(std::move(rec));
    }
    json.write();

    return bytes_ok ? 0 : 1;
}

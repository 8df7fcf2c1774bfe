// Reproduces Fig. 6: destroying sampling randomness destroys the layout.
// Forcing every node pair to a fixed 10-hop distance (instead of the
// uniform/Zipf mixture) biases the SGD and the layout does not converge
// within the same iteration budget — visible as a large sampled-path-stress
// gap against the properly randomized run.
#include <iostream>

#include "bench_common.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/schedule.hpp"
#include "core/step_math.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using namespace pgl;

/// A degenerate engine: identical to the CPU baseline except that the
/// partner step is always exactly `hops` away (direction random).
core::Layout layout_fixed_hop(const graph::LeanGraph& g,
                              const core::LayoutConfig& cfg, std::uint32_t hops) {
    rng::Xoshiro256Plus init_rng(cfg.seed ^ 0xa02bdbf7bb3c0a7ULL);
    const auto initial = core::make_linear_initial_layout(g, init_rng);
    core::XYStore store(initial);
    const auto etas = core::make_eta_schedule(
        cfg.iter_max, cfg.eps, static_cast<double>(g.max_path_nuc_length()));
    rng::Xoshiro256Plus rng(cfg.seed);

    // Path selection stays length-proportional via rejection on steps.
    const std::uint64_t steps = cfg.steps_per_iteration(g.total_path_steps());
    for (std::uint32_t iter = 0; iter < cfg.iter_max; ++iter) {
        const double eta = etas[iter];
        for (std::uint64_t s = 0; s < steps; ++s) {
            const std::uint32_t p =
                static_cast<std::uint32_t>(rng.next_bounded(g.path_count()));
            const std::uint32_t n = g.path_step_count(p);
            if (n <= hops) continue;
            const std::uint32_t i =
                static_cast<std::uint32_t>(rng.next_bounded(n - hops));
            const std::uint32_t j = i + hops;  // ALWAYS exactly `hops` away
            const std::uint32_t ni = g.step_node(p, i);
            const std::uint32_t nj = g.step_node(p, j);
            const core::End ei = rng.flip_coin() ? core::End::kStart : core::End::kEnd;
            const core::End ej = rng.flip_coin() ? core::End::kStart : core::End::kEnd;
            const std::uint64_t pi = core::endpoint_path_position(
                g.step_position(p, i), g.node_length(ni), g.step_is_reverse(p, i), ei);
            const std::uint64_t pj = core::endpoint_path_position(
                g.step_position(p, j), g.node_length(nj), g.step_is_reverse(p, j), ej);
            if (pi == pj) continue;
            const double d_ref =
                static_cast<double>(pi > pj ? pi - pj : pj - pi);
            core::apply_term(store.data(), core::XYStore::index(ni, ei),
                             core::XYStore::index(nj, ej), d_ref, eta, 1e-4);
        }
    }
    return store.snapshot();
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = bench::BenchOptions::parse(argc, argv);
    std::cout << "== Fig. 6: randomness is critical to layout quality ==\n";

    const auto g = bench::build_lean(workloads::hla_drb1_spec());
    auto cfg = opt.layout_config();
    cfg.iter_max = std::max<std::uint32_t>(cfg.iter_max, 15);
    cfg.steps_per_iter_factor = std::max(cfg.steps_per_iter_factor, 2.0);

    const auto random_layout = bench::run_backend("cpu-pipelined", g, cfg).layout;
    const auto fixed_layout = layout_fixed_hop(g, cfg, 10);

    const auto sps_rand = metrics::sampled_path_stress(g, random_layout, 50, 1);
    const auto sps_fixed = metrics::sampled_path_stress(g, fixed_layout, 50, 1);

    bench::TablePrinter table({"Node-pair selection", "Sampled path stress"},
                              {32, 20});
    table.print_header(std::cout);
    table.print_row(std::cout, {"random (uniform + Zipf cooling)",
                                bench::fmt(sps_rand.value, 3)});
    table.print_row(std::cout,
                    {"forced 10-hop pairs", bench::fmt(sps_fixed.value, 3)});
    std::cout << "\nstress ratio (fixed / random): "
              << bench::fmt(sps_fixed.value / sps_rand.value, 1)
              << "x  — the biased scheme does not converge (paper Fig. 6)\n";
    return 0;
}

// bench_kernels — apply-side microbenchmark of the pluggable update-kernel
// layer: every registered kernel drains identical TermBatches into an
// XYStore, swept across batch sizes and conflict densities.
//
//   ./bench_kernels [--scale F] [--seed N] [--quick] [--json FILE]
//
// Two term populations per batch size:
//   * sampled   — real PairSampler terms from the scaled MHC graph: the
//                 conflict rate the engines actually see (near zero on any
//                 non-toy graph), i.e. the vectorized fast path;
//   * conflict  — node ids drawn from a tiny window, so nearly every lane
//                 group contains duplicate endpoints and the SIMD kernel's
//                 chained fallback dominates (its worst case).
//
// With --json a record per (kernel, population, batch size) is written for
// the CI perf gate; the "backend" field is "<kernel>-<population>-b<size>".
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/term_batch.hpp"
#include "rng/xoshiro256.hpp"

namespace {

using namespace pgl;
using core::TermBatch;
using core::TermSample;
using core::XYStore;

/// Synthetic batch whose node ids come from a `window`-node range: with 8
/// endpoint draws per 4-wide lane group, a small window makes cross-slot
/// duplicates — and therefore the chained fallback — near-certain.
TermBatch make_conflict_batch(std::size_t n, std::uint32_t window,
                              rng::Xoshiro256Plus& rng) {
    TermBatch b;
    b.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        TermSample t{};
        t.node_i = static_cast<std::uint32_t>(rng.next_bounded(window));
        t.node_j = static_cast<std::uint32_t>(rng.next_bounded(window));
        t.end_i = rng.flip_coin() ? core::End::kStart : core::End::kEnd;
        t.end_j = rng.flip_coin() ? core::End::kStart : core::End::kEnd;
        t.d_ref = 1.0 + static_cast<double>(rng.next_bounded(1000));
        t.nudge = core::draw_nudge(rng);
        t.valid = true;
        b.append(t);
    }
    return b;
}

/// Fraction of 4-slot groups with a coordinate shared by two different
/// valid slots (the group width of the widest built-in SIMD path).
double conflict_group_fraction(const TermBatch& b) {
    std::size_t groups = 0, conflicted = 0;
    for (std::size_t base = 0; base + 4 <= b.size(); base += 4) {
        ++groups;
        std::uint32_t idx[8];
        int m = 0;
        bool hit = false;
        for (int t = 0; t < 4 && !hit; ++t) {
            const std::size_t k = base + t;
            if (!b.valid[k]) continue;
            const std::uint32_t ii = 2 * b.node_i[k] + b.end_i[k];
            const std::uint32_t jj = 2 * b.node_j[k] + b.end_j[k];
            for (int u = 0; u < m && !hit; ++u) hit = idx[u] == ii || idx[u] == jj;
            idx[m++] = ii;
            idx[m++] = jj;
        }
        conflicted += hit;
    }
    return groups ? static_cast<double>(conflicted) / groups : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    auto opt = bench::BenchOptions::parse(argc, argv);

    std::cout << "== Update-kernel apply throughput (scalar vs simd) ==\n";
    const auto g = bench::build_lean(workloads::mhc_spec(opt.scale * 10));
    core::LayoutConfig cfg = opt.layout_config();

    rng::Xoshiro256Plus init_rng(cfg.seed ^ 0xa02bdbf7bb3c0a7ULL);
    const core::Layout initial =
        core::make_linear_initial_layout(g, init_rng);
    const core::PairSampler sampler(g, cfg);

    const std::vector<std::size_t> batch_sizes =
        opt.quick ? std::vector<std::size_t>{1024, 4096}
                  : std::vector<std::size_t>{1024, 4096, 16384};
    // Even --quick keeps a multi-millisecond timing window per cell: the
    // perf gate compares these rates across runs, and sub-millisecond
    // windows on a shared CI core are dominated by scheduler noise.
    const std::uint64_t target_terms = opt.quick ? 2'000'000 : 8'000'000;
    const std::uint32_t window = static_cast<std::uint32_t>(
        std::min<std::size_t>(48, std::max<std::size_t>(2, g.node_count())));
    const auto kernels = core::KernelRegistry::instance().names();

    bench::TablePrinter table(
        {"Kernel", "Variant", "Terms", "Batch", "Conf4", "Mupd/s", "vs scalar"},
        {9, 17, 10, 8, 8, 10, 10});
    table.print_header(std::cout);

    bench::JsonReporter json(opt.json_path);
    // (kernel, population, batch) -> updates/sec; scalar rows feed the
    // ratio column and the end-of-run simd summary.
    std::map<std::tuple<std::string, std::string, std::size_t>, double> rate;
    const auto scalar_base = [&](const std::string& population,
                                 std::size_t n) {
        const auto it = rate.find({"scalar", population, n});
        return it == rate.end() ? 0.0 : it->second;
    };

    for (const std::string population : {"sampled", "conflict"}) {
        for (const std::size_t n : batch_sizes) {
            rng::Xoshiro256Plus rng(cfg.seed + n);
            TermBatch batch;
            if (population == "sampled") {
                sampler.fill_batch_staged(false, rng, n, batch);
            } else {
                batch = make_conflict_batch(n, window, rng);
            }
            const std::uint64_t valid_terms = n - batch.invalid_count();
            const std::uint64_t reps = std::max<std::uint64_t>(
                1, target_terms / std::max<std::uint64_t>(1, valid_terms));
            const double conf4 = conflict_group_fraction(batch);

            for (const auto& name : kernels) {
                const auto kern = core::make_update_kernel(name);
                XYStore store(initial);
                kern->apply(batch, cfg.eps, store);  // warm caches and pages
                const auto t0 = std::chrono::steady_clock::now();
                for (std::uint64_t r = 0; r < reps; ++r) {
                    kern->apply(batch, cfg.eps, store);
                }
                const double seconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                const double ups =
                    seconds > 0.0 ? static_cast<double>(valid_terms * reps) /
                                        seconds
                                  : 0.0;
                rate[{name, population, n}] = ups;
                const double base = scalar_base(population, n);
                table.print_row(
                    std::cout,
                    {name, std::string(kern->variant()), population,
                     std::to_string(n), bench::fmt(100.0 * conf4, 1) + "%",
                     bench::fmt(ups / 1e6, 2),
                     base > 0.0 ? bench::fmt(ups / base, 2) + "x" : "-"});

                core::LayoutResult r;
                r.seconds = seconds;
                r.updates = valid_terms * reps;
                json.add(bench::make_record(
                    opt, "bench_kernels",
                    name + "-" + population + "-b" + std::to_string(n), r));
            }
        }
    }

    // The acceptance-gate summary: the vectorized fast path on real terms.
    std::cout << "\n";
    for (const std::size_t n : batch_sizes) {
        const double base = scalar_base("sampled", n);
        const auto it = rate.find({"simd", "sampled", n});
        if (base > 0.0 && it != rate.end()) {
            std::cout << "simd/scalar on sampled b" << n << ": "
                      << bench::fmt(it->second / base, 2) << "x\n";
        }
    }
    std::cout << "\nnote: \"Conf4\" is the fraction of 4-slot lane groups "
                 "containing a cross-slot\nduplicate endpoint (the SIMD "
                 "kernel's chained-fallback trigger)\n";
    return 0;
}

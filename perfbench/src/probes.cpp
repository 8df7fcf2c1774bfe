// Per-layer probes of the traced pass. Each one calls a module's public
// functions directly on the workload's own input and times the calls with
// the benchmark's spans.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/sampling.hpp"
#include "core/term_batch.hpp"
#include "core/thread_pool.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "metrics/path_stress.hpp"
#include "rng/xoshiro256.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace pgl;

namespace {

/// Fixed quality-metric settings: the stress of one layout is a pure
/// function of its bytes.
constexpr double kStressSamplesPerStep = 4.0;
constexpr std::uint64_t kStressSeed = 42;

/// Calls `fn` until `budget_s` has passed (at least `min_calls` times) and
/// returns seconds per call.
template <typename Fn>
double time_per_call(double budget_s, std::uint64_t min_calls, Fn&& fn) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    while (calls < min_calls || elapsed < budget_s) {
        fn();
        ++calls;
        elapsed = seconds_since(t0);
    }
    return elapsed / static_cast<double>(calls);
}

/// Last-level cache size from sysfs (bytes); 32 MiB when unknown.
std::uint64_t llc_bytes() {
    std::uint64_t best = 0;
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
        std::ifstream level(base + "/level"), size(base + "/size");
        int lv = 0;
        std::string s;
        if (!(level >> lv) || !(size >> s) || s.empty()) continue;
        std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
        if (s.back() == 'K') v <<= 10;
        if (s.back() == 'M') v <<= 20;
        best = std::max(best, v);
    }
    return best ? best : (std::uint64_t{32} << 20);
}

struct Rec16 {
    std::uint64_t a, b;
};

std::uint64_t fast_range(std::uint64_t x, std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(x) * n) >> 64);
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Random 16-byte gathers over `arr`: dependent (each index comes from the
/// previous load, so one miss at a time) or independent (indices from a
/// counter hash, so misses overlap). Returns wall ns per gather over all
/// threads.
double gather_ns(const std::vector<Rec16>& arr, bool dependent, unsigned threads,
                 std::uint64_t loads_per_thread) {
    const std::uint64_t n = arr.size();
    std::vector<std::uint64_t> sinks(threads * 8, 0);
    const auto body = [&](unsigned t) {
        std::uint64_t acc = 0;
        std::uint64_t idx = fast_range(mix(t + 1), n);
        if (dependent) {
            for (std::uint64_t i = 0; i < loads_per_thread; ++i) {
                const Rec16& r = arr[idx];
                acc += r.b;
                idx = fast_range(r.a ^ (i * 0x9e3779b97f4a7c15ULL), n);
            }
        } else {
            const std::uint64_t salt = (t + 1) * 0x632be59bd9b4e019ULL;
            for (std::uint64_t i = 0; i < loads_per_thread; ++i) {
                acc += arr[fast_range(mix(i ^ salt), n)].a;
            }
        }
        sinks[t * 8] = acc + idx;
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(body, t);
    body(0);
    for (auto& th : pool) th.join();
    const double s = seconds_since(t0);
    volatile std::uint64_t keep = sinks[0];
    (void)keep;
    return s * 1e9 / static_cast<double>(loads_per_thread * threads);
}

std::vector<Rec16> make_gather_array(std::uint64_t bytes) {
    std::vector<Rec16> arr(std::max<std::uint64_t>(bytes / sizeof(Rec16), 1024));
    const unsigned threads = 4;
    const std::size_t chunk = (arr.size() + threads - 1) / threads;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            const std::size_t end = std::min(arr.size(), (t + 1) * chunk);
            for (std::size_t i = t * chunk; i < end; ++i) arr[i] = {mix(i), i};
        });
    }
    for (auto& th : pool) th.join();
    return arr;
}

}  // namespace

void probe_ingest(const std::string& gfa, const std::string& pgg, Metrics& m) {
    std::vector<double> ingest, pgg_read;
    for (int i = 0; i < 3; ++i) {
        Span s("graph.ingest");
        const graph::LeanIngest g = io::load_graph_file(gfa);
        ingest.push_back(s.close());
    }
    for (int i = 0; i < 3; ++i) {
        Span s("io.pgg_read");
        const graph::LeanIngest g = io::read_pgg_file(pgg);
        pgg_read.push_back(s.close());
    }
    const double ingest_s = median(ingest);
    m.set("graph.ingest_s", ingest_s, "s");
    m.set("graph.ingest_mb_per_s", file_mb(gfa) / ingest_s, "MB/s");
    m.set("io.pgg_read_s", median(pgg_read), "s");
}

void probe_lay_write(const core::Layout& layout, const std::string& path, Metrics& m) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
        Span s("io.lay_write");
        io::write_layout_file(layout, path);
        t.push_back(s.close());
    }
    m.set("io.lay_write_s", median(t), "s");
}

void probe_sampling_and_kernels(const graph::LeanGraph& g,
                                const core::LayoutConfig& cfg, bool toy, Metrics& m) {
    const core::PairSampler sampler(g, cfg);
    rng::Xoshiro256Plus rng(cfg.seed);
    const std::size_t n = toy ? 4096 : 65536;
    const double budget = toy ? 0.02 : 0.25;

    // Sampling alternates the non-cooling iteration (per-term coin flip
    // between the two branches) and the cooling one (Zipf branch only), in
    // equal call counts, one slice of the pipelined engine's size per call.
    core::TermBatch batch;
    sampler.fill_batch_staged(false, rng, n, batch);  // sizes the buffer
    std::uint64_t terms = 0, invalid = 0;
    const std::uint64_t calls = toy ? 8 : 64;
    Span sampling("core.sampling");
    for (std::uint64_t c = 0; c < calls; ++c) {
        invalid += sampler.fill_batch_staged((c & 1) != 0, rng, n, batch);
        terms += n;
    }
    const double sampling_ns = sampling.close() * 1e9 / static_cast<double>(terms);
    m.set("core.sampling.ns_per_term", sampling_ns, "ns");
    m.set("core.sampling.valid_frac",
          1.0 - static_cast<double>(invalid) / static_cast<double>(terms), "1");

    // Kernels: the same sampled batches applied by each registered kernel.
    std::vector<core::TermBatch> batches(toy ? 2 : 16);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        sampler.fill_batch_staged((i & 1) != 0, rng, n, batches[i]);
    }
    core::XYStore store(core::make_initial_layout(g, cfg));
    for (const char* name : {"scalar", "simd"}) {
        const auto kernel = core::make_update_kernel(name);
        Span s(std::string("core.kernels.") + name);
        const double per_pass = time_per_call(budget, 2, [&] {
            for (const core::TermBatch& b : batches) kernel->apply(b, 1.0, store);
        });
        s.close();
        m.set(std::string("core.kernels.") + name + "_ns_per_term",
              per_pass * 1e9 / static_cast<double>(batches.size() * n), "ns");
    }
}

void probe_memory(std::uint64_t step_bytes, bool toy, Metrics& m) {
    const std::uint64_t dram_bytes =
        toy ? (std::uint64_t{16} << 20)
            : std::min<std::uint64_t>(4 * llc_bytes(), std::uint64_t{2} << 30);
    const std::uint64_t dep_loads = toy ? 1 << 14 : 1 << 20;
    const std::uint64_t indep_loads = toy ? 1 << 16 : 1 << 22;
    m.set("mem.step_array_mb", static_cast<double>(step_bytes) / 1048576.0, "MiB");
    m.set("mem.dram_array_mb", static_cast<double>(dram_bytes) / 1048576.0, "MiB");
    {
        const std::vector<Rec16> steps = make_gather_array(step_bytes);
        for (const unsigned t : {1u, 4u}) {
            const std::string sfx = ".t" + std::to_string(t);
            Span s("mem.gather" + sfx);
            m.set("mem.gather_dep_ns" + sfx, gather_ns(steps, true, t, dep_loads), "ns");
            m.set("mem.gather_indep_ns" + sfx, gather_ns(steps, false, t, indep_loads),
                  "ns");
        }
    }
    {
        const std::vector<Rec16> dram = make_gather_array(dram_bytes);
        for (const unsigned t : {1u, 4u}) {
            const std::string sfx = ".t" + std::to_string(t);
            Span s("mem.gather_dram" + sfx);
            m.set("mem.gather_dram_indep_ns" + sfx,
                  gather_ns(dram, false, t, indep_loads), "ns");
        }
    }
    // A term reads two step records; the ceiling is two independent
    // gathers over an array of the graph's step-record size.
    m.set("core.sampling.ceiling_x",
          m.get("core.sampling.ns_per_term") / (2.0 * m.get("mem.gather_indep_ns.t1")),
          "x");
}

void probe_pool(Metrics& m) {
    core::ThreadPool pool(4);
    Span s("core.pool");
    const double per = time_per_call(0.2, 1000, [&] { pool.run([](std::uint32_t) {}); });
    s.close();
    m.set("core.pool.dispatch_us", per * 1e6, "us");
}

void probe_engine(const graph::LeanGraph& g, const std::string& backend,
                  core::LayoutConfig cfg, std::uint32_t iterations, Metrics& m) {
    double run_s[2] = {0.0, 0.0};
    core::LayoutResult r4;
    for (const std::uint32_t threads : {4u, 1u}) {
        cfg.threads = threads;
        auto engine = core::make_engine(backend);
        const std::string sfx = ".t" + std::to_string(threads);
        {
            Span s("core.engine.init" + sfx);
            engine->init(g, cfg);
        }
        Span s("core.engine.run" + sfx);
        core::LayoutResult r = engine->run(iterations);
        run_s[threads == 4 ? 0 : 1] = s.close();
        if (threads == 4) r4 = std::move(r);
    }
    m.set("core.engine.run_s", run_s[0], "s");
    m.set("core.engine.scaling_x", run_s[1] / run_s[0], "x");
    const double kernel_ns = m.get("core.kernels." + cfg.kernel + "_ns_per_term");
    m.set("core.engine.apply_share",
          static_cast<double>(r4.updates) * kernel_ns * 1e-9 / run_s[0], "1");
    m.set("core.engine.skip_frac",
          r4.updates ? static_cast<double>(r4.skipped) / static_cast<double>(r4.updates)
                     : 0.0,
          "1");
}

double layout_stress(const graph::LeanGraph& g, const core::Layout& l, Metrics* m) {
    Span s("metrics.stress");
    const metrics::StressResult r =
        metrics::sampled_path_stress(g, l, kStressSamplesPerStep, kStressSeed, 1);
    const double secs = s.close();
    if (m) {
        m->set("metrics.stress", r.value, "1");
        m->set("metrics.stress_s", secs, "s");
        m->set("metrics.ns_per_term",
               r.terms ? secs * 1e9 / static_cast<double>(r.terms) : 0.0, "ns");
    }
    return r.value;
}

}  // namespace perfbench

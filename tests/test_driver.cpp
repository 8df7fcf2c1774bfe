// Tests for the layout driver facade (src/driver/): one RunRequest in, the
// whole load -> (partition|multilevel|flat) -> publish pipeline out. The
// contracts pinned here are the ones pgl_layout and the serve daemon rely
// on: a driver run is byte-identical to hand-wiring the subsystems, the
// .lay it publishes round-trips, a caller-supplied LeanIngest is adopted
// without a reload, save-graph-only requests stop after the cache write,
// a partitioned run holds the graph's step records once, an overwritten
// output holds the same bytes as a fresh one, a failed .svg/.ppm write
// fails the run, and the worker-spec codec used by the process executor
// round-trips.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/layout.hpp"
#include "driver/driver.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "io/lay_io.hpp"
#include "partition/executor.hpp"
#include "partition/partition.hpp"
#include "workloads/synthetic.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PGL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PGL_TEST_SANITIZED 1
#endif
#endif

namespace {

using namespace pgl;
namespace fs = std::filesystem;

// Two path-connected components (s1-s2-s3 and s4-s5) plus one isolated
// segment — enough shape to exercise the partition path end to end.
const std::string kMultiGfa =
    "H\tVN:Z:1.0\n"
    "S\ts1\tACGT\n"
    "S\ts2\tTT\n"
    "S\ts3\tG\n"
    "S\ts4\tACACAC\n"
    "S\ts5\tGGGG\n"
    "S\ts6\tC\n"
    "L\ts1\t+\ts2\t-\t0M\n"
    "L\ts2\t+\ts3\t+\t0M\n"
    "P\tp1\ts1+,s2-,s3+\t*\n"
    "P\tp2\ts1+,s2+\t*\n"
    "P\tp3\ts4+,s5-\t*\n";

class DriverTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("pgl-driver-test-" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        gfa_ = (dir_ / "g.gfa").string();
        std::ofstream(gfa_) << kMultiGfa;
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    static core::LayoutConfig quick_config() {
        core::LayoutConfig cfg;
        cfg.iter_max = 2;
        cfg.steps_per_iter_factor = 0.5;
        cfg.seed = 42;
        return cfg;
    }

    static void expect_layout_equal(const core::Layout& a,
                                    const core::Layout& b) {
        ASSERT_EQ(a.size(), b.size());
        std::uint64_t mismatches = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            mismatches +=
                (a[i].sx != b[i].sx) + (a[i].sy != b[i].sy) +
                (a[i].ex != b[i].ex) + (a[i].ey != b[i].ey);
        }
        EXPECT_EQ(mismatches, 0u);
    }

    fs::path dir_;
    std::string gfa_;
};

TEST_F(DriverTest, FlatRunPublishesLayoutAndReportsShape) {
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.out_path = path("flat.lay");
    req.config = quick_config();
    const auto out = driver::run_layout(req);

    EXPECT_FALSE(out.convert_only);
    EXPECT_FALSE(out.partitioned);
    EXPECT_EQ(out.nodes, 6u);
    EXPECT_EQ(out.paths, 3u);
    EXPECT_EQ(out.steps, 7u);
    EXPECT_EQ(out.components, 3u);
    EXPECT_EQ(out.engine_name, "cpu-pipelined");
    EXPECT_EQ(out.layout.size(), 6u);
    // The published file is the returned layout, byte for byte.
    ASSERT_TRUE(fs::exists(req.out_path));
    expect_layout_equal(io::read_layout_file(req.out_path), out.layout);
}

TEST_F(DriverTest, NarratesThroughLogHookOnly) {
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.out_path = path("logged.lay");
    req.config = quick_config();
    std::vector<std::string> lines;
    req.log = [&](const std::string& line) { lines.push_back(line); };
    driver::run_layout(req);

    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines.front().rfind("loaded ", 0), 0u) << lines.front();
    bool wrote = false;
    for (const auto& l : lines) wrote |= l.rfind("wrote ", 0) == 0;
    EXPECT_TRUE(wrote);
}

TEST_F(DriverTest, SaveGraphWithoutOutputConvertsAndStops) {
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.save_graph_path = path("g.pgg");
    req.config = quick_config();
    const auto out = driver::run_layout(req);
    EXPECT_TRUE(out.convert_only);
    EXPECT_EQ(out.layout.size(), 0u);
    ASSERT_TRUE(fs::exists(req.save_graph_path));

    // The cache reloads into the same layout bytes as the GFA.
    driver::RunRequest from_gfa;
    from_gfa.graph_path = gfa_;
    from_gfa.config = quick_config();
    driver::RunRequest from_pgg;
    from_pgg.graph_path = req.save_graph_path;
    from_pgg.config = quick_config();
    expect_layout_equal(driver::run_layout(from_gfa).layout,
                        driver::run_layout(from_pgg).layout);
}

TEST_F(DriverTest, AdoptedIngestMatchesFileLoad) {
    // The serve daemon hands the driver its cached ingest; the result must
    // be byte-identical to the driver loading the same file itself.
    auto ingest = std::make_shared<graph::LeanIngest>(graph::ingest_gfa_file(gfa_));

    driver::RunRequest from_file;
    from_file.graph_path = gfa_;
    from_file.partition = true;
    from_file.config = quick_config();
    driver::RunRequest from_ingest;
    from_ingest.ingest = ingest;
    from_ingest.partition = true;
    from_ingest.config = quick_config();

    const auto a = driver::run_layout(from_file);
    const auto b = driver::run_layout(from_ingest);
    EXPECT_TRUE(a.partitioned);
    EXPECT_EQ(a.partition.decomposition.count(), 3u);
    expect_layout_equal(a.layout, b.layout);
}

TEST_F(DriverTest, PartitionRunMatchesDirectPartitionLayout) {
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.partition = true;
    req.component_workers = 2;
    req.config = quick_config();
    const auto out = driver::run_layout(req);

    const auto ing = graph::ingest_gfa_file(gfa_);
    partition::ComponentLabels labels;
    labels.count = ing.component_count;
    labels.node_component = ing.node_component;
    labels.path_component = ing.path_component;
    core::LayoutRequest direct_req;
    direct_req.config = quick_config();
    direct_req.component_workers = 2;
    const auto direct = partition::partition_layout(
        ing.graph, std::move(labels), direct_req, {});

    ASSERT_TRUE(out.partitioned);
    EXPECT_EQ(out.updates, direct.updates);
    expect_layout_equal(out.layout, direct.stitched.layout);
}

TEST_F(DriverTest, ComponentProgressReachesPartitionedRuns) {
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.partition = true;
    req.config = quick_config();
    std::vector<std::uint32_t> seen;
    req.component_progress = [&](const partition::ComponentProgress& p) {
        seen.push_back(p.component);
        EXPECT_EQ(p.total, 3u);
    };
    driver::run_layout(req);
    EXPECT_EQ(seen.size(), 3u);
}

TEST_F(DriverTest, PathlessGraphsPublishTheInitialLayoutOnEveryBackend) {
    // Nodes but no paths: an empty objective. Every backend, flat or
    // multilevel, publishes the seeded initial layout instead of handing
    // an engine nothing to sample.
    const std::string seg_only = path("segments_only.gfa");
    std::ofstream(seg_only) << "H\tVN:Z:1.0\nS\ts1\tACGT\nS\ts2\tTT\n";
    auto from_parts = std::make_shared<graph::LeanIngest>();
    from_parts->graph = graph::LeanGraph::from_parts({4, 4, 4}, {});
    const graph::LeanGraph gfa_graph = graph::ingest_gfa_file(seg_only).graph;
    ASSERT_EQ(gfa_graph.node_count(), 2u);

    // An adopted in-memory graph, then the GFA file loaded by the driver.
    for (const bool load_file : {false, true}) {
        const core::Layout want = core::make_initial_layout(
            load_file ? gfa_graph : from_parts->graph, quick_config());
        for (const auto& backend : core::EngineRegistry::instance().names()) {
            for (const bool multilevel : {false, true}) {
                SCOPED_TRACE(backend + (multilevel ? " multilevel" : " flat") +
                             (load_file ? " gfa" : " from_parts"));
                driver::RunRequest req;
                if (load_file) {
                    req.graph_path = seg_only;
                } else {
                    req.ingest = from_parts;
                }
                req.backend = backend;
                req.multilevel = multilevel;
                req.config = quick_config();
                req.out_path = path("pathless.lay");
                const auto out = driver::run_layout(req);
                EXPECT_EQ(out.updates, 0u);
                expect_layout_equal(out.layout, want);
                expect_layout_equal(io::read_layout_file(req.out_path), want);
            }
        }
    }
}

TEST(WorkerSpec, RoundTripsFlatOptions) {
    core::LayoutRequest opt;
    opt.backend = "gpusim-base";
    opt.config.kernel = "simd";
    opt.config.iter_max = 9;
    opt.config.steps_per_iter_factor = 0.75;
    opt.config.threads = 3;
    opt.config.seed = 123;  // pre-mix; the spec carries the mixed seed
    const std::uint64_t mixed = partition::component_seed(123, 2);

    const auto parsed =
        partition::parse_worker_spec(partition::encode_worker_spec(opt, mixed));
    EXPECT_EQ(parsed.backend, "gpusim-base");
    EXPECT_EQ(parsed.config.kernel, "simd");
    EXPECT_EQ(parsed.config.iter_max, 9u);
    EXPECT_EQ(parsed.config.steps_per_iter_factor, 0.75);
    EXPECT_EQ(parsed.config.threads, 3u);
    EXPECT_EQ(parsed.config.seed, mixed);
    EXPECT_FALSE(parsed.multilevel);
    // A worker lays out exactly one component in-process.
    EXPECT_EQ(parsed.executor, "thread");
    EXPECT_EQ(parsed.component_workers, 1u);
}

/// A `Vm...:` field of /proc/self/status in kB, or -1 if absent.
std::int64_t status_kb(const std::string& field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0) {
            return std::stoll(line.substr(field.size()));
        }
    }
    return -1;
}

/// Runs `fn` in a forked child and returns the value it produced, or -1 if
/// the child threw, died or exited without one. The child never returns
/// into the test runner. Its VmHWM starts at its own RSS, so what the
/// parent process allocated earlier is not counted against it.
std::int64_t in_child(const std::function<std::int64_t()>& fn) {
    int pfd[2];
    if (::pipe(pfd) != 0) return -1;
    const pid_t pid = ::fork();
    if (pid < 0) return -1;
    if (pid == 0) {
        ::close(pfd[0]);
        std::int64_t v = -1;
        try {
            v = fn();
        } catch (...) {
        }
        const bool sent = ::write(pfd[1], &v, sizeof v) == sizeof v;
        ::_exit(sent ? 0 : 1);
    }
    ::close(pfd[1]);
    std::int64_t v = -1;
    if (::read(pfd[0], &v, sizeof v) != sizeof v) v = -1;
    ::close(pfd[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? v : -1;
}

TEST_F(DriverTest, PartitionedRunHoldsTheStepRecordsOnce) {
#ifdef PGL_TEST_SANITIZED
    GTEST_SKIP() << "sanitizer shadow memory swamps the peak RSS";
#endif
    // A 24-component genome at 2x segmentation (about 2M steps, 31 MB of
    // step records), generated in its own child so its memory is nowhere
    // near the measured one.
    const std::string gfa = path("genome24.gfa");
    const std::int64_t step_bytes = in_child([&] {
        std::vector<workloads::PangenomeSpec> specs =
            workloads::whole_genome_spec(24, 0.0002);
        for (auto& spec : specs) {
            spec = workloads::with_finer_segmentation(spec, 2);
        }
        const auto vg = workloads::generate_whole_genome(specs);
        graph::write_gfa_file(vg, gfa);
        return static_cast<std::int64_t>(vg.total_path_steps() *
                                         sizeof(graph::PathStepRecord));
    });
    ASSERT_GT(step_bytes, 10'000'000);

    // The partitioned run loads the graph and lays it out as the CLI does,
    // on one component worker. The ingest holds the step records once; the
    // subgraph and engine alive at any time are one component's share, so
    // the peak grows by well under one more copy of the step records.
    // Building every subgraph up front took it to 2.2x.
    const std::int64_t growth_kb = in_child([&] {
        const std::int64_t before = status_kb("VmHWM:");
        driver::RunRequest req;
        req.graph_path = gfa;
        req.out_path = path("genome24.lay");
        req.partition = true;
        req.component_workers = 1;
        req.config = quick_config();
        driver::run_layout(req);
        return status_kb("VmHWM:") - before;
    });
    ASSERT_GT(growth_kb, 0);
    const double growth = static_cast<double>(growth_kb) * 1024.0;
    std::cout << "peak RSS growth " << growth / 1e6 << " MB for "
              << step_bytes / 1e6 << " MB of step records ("
              << growth / step_bytes << "x)\n";
    // The peak cannot be below one copy: otherwise it did not see the run.
    EXPECT_GE(growth, static_cast<double>(step_bytes));
    EXPECT_LT(growth, 1.5 * static_cast<double>(step_bytes));
}

TEST(WorkerSpec, RoundTripsMultilevelOptions) {
    core::LayoutRequest opt;
    opt.multilevel = true;
    opt.ml.levels = 3;
    opt.ml.refine_iters = 4;
    opt.ml.exact_tail = true;

    const auto parsed =
        partition::parse_worker_spec(partition::encode_worker_spec(opt, 7));
    ASSERT_TRUE(parsed.multilevel);
    EXPECT_EQ(parsed.ml.levels, 3u);
    EXPECT_EQ(parsed.ml.refine_iters, 4u);
    EXPECT_TRUE(parsed.ml.exact_tail);
}

TEST(WorkerSpec, RejectsUnknownFields) {
    EXPECT_THROW(partition::parse_worker_spec("backend=cpu-pipelined;bogus=1;"),
                 std::invalid_argument);
    for (const char* removed :
         {"zipf_theta=0.99;", "init_jitter=1;",
          "multilevel=1;ml.coarse_iters=3;", "multilevel=1;ml.refine_eta=0.5;",
          "cooling_start=0.5;", "eps=0.01;", "eta_max=0;",
          "schedule_iter_max=0;", "zipf_space_max=1000;"}) {
        EXPECT_THROW(partition::parse_worker_spec(removed),
                     std::invalid_argument)
            << removed;
    }
}

TEST(WorkerSpec, RefusesPassLevelFieldsOffTheirDefaults) {
    // No spec carries a pass-level field, so a child would silently run
    // it at its default: encoding such a request must fail instead.
    const std::pair<const char*, void (*)(core::LayoutConfig&)> fields[] = {
        {"cooling_start", [](core::LayoutConfig& c) { c.cooling_start = 0.3; }},
        {"eps", [](core::LayoutConfig& c) { c.eps = 0.5; }},
        {"eta_max", [](core::LayoutConfig& c) { c.eta_max = 100.0; }},
        {"schedule_iter_max",
         [](core::LayoutConfig& c) { c.schedule_iter_max = 60; }},
        {"zipf_space_max", [](core::LayoutConfig& c) { c.zipf_space_max = 0; }},
    };
    EXPECT_NO_THROW(partition::encode_worker_spec(core::LayoutRequest{}, 7));
    for (const auto& [name, set] : fields) {
        core::LayoutRequest r;
        set(r.config);
        try {
            partition::encode_worker_spec(r, 7);
            ADD_FAILURE() << name << " was encoded";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }
}

TEST_F(DriverTest, AnUnpublishableOutputFailsBeforeTheGraphLoads) {
    // The graph does not exist and the output is a directory: the run must
    // fail on the output, before it reads (or lays out) anything.
    driver::RunRequest req;
    req.graph_path = path("missing.gfa");
    req.out_path = dir_.string();
    req.config = quick_config();
    try {
        driver::run_layout(req);
        FAIL() << "expected the output to be rejected";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cannot publish"), std::string::npos) << what;
        EXPECT_NE(what.find(dir_.string()), std::string::npos) << what;
    }
    // So does a directory given for any other output, even with a graph
    // that loads: no .lay is published ahead of the failing SVG.
    driver::RunRequest svg = req;
    svg.graph_path = gfa_;
    svg.out_path = path("ok.lay");
    svg.svg_path = dir_.string();
    EXPECT_THROW(driver::run_layout(svg), std::runtime_error);
    EXPECT_FALSE(fs::exists(svg.out_path));
}

TEST_F(DriverTest, ReplacingAnOutputPublishesTheSameBytesAsAFreshPath) {
    // An overwrite hands the old file to a reclaim thread that closes it
    // later; that close must never touch the newly published file.
    const auto bytes = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.out_path = path("same.lay");
    req.config = quick_config();
    driver::run_layout(req);
    const std::string first = bytes(req.out_path);
    driver::run_layout(req);
    const std::string second = bytes(req.out_path);
    req.out_path = path("fresh.lay");
    driver::run_layout(req);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(second, first);
    EXPECT_EQ(bytes(req.out_path), first);
}

TEST_F(DriverTest, AFailedSvgOrPpmWriteFailsTheRun) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    driver::RunRequest req;
    req.graph_path = gfa_;
    req.config = quick_config();
    driver::RunRequest svg = req;
    svg.svg_path = "/dev/full";
    EXPECT_THROW(driver::run_layout(svg), std::runtime_error);
    driver::RunRequest ppm = req;
    ppm.ppm_path = "/dev/full";
    EXPECT_THROW(driver::run_layout(ppm), std::runtime_error);
}

}  // namespace

// Tests for the layout driver facade (src/driver/): one RunRequest in, the
// whole load -> (partition|multilevel|flat) -> publish pipeline out. The
// contracts pinned here are the ones pgl_layout and the serve daemon rely
// on: a driver run is byte-identical to hand-wiring the subsystems, the
// .lay it publishes round-trips, a caller-supplied LeanIngest is adopted
// without a reload, save-graph-only requests stop after the cache write,
// and the worker-spec codec used by the process executor round-trips.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "graph/gfa_stream.hpp"
#include "io/lay_io.hpp"
#include "partition/executor.hpp"
#include "partition/partition.hpp"

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
                (a.start_x[i] != b.start_x[i]) + (a.start_y[i] != b.start_y[i]) +
                (a.end_x[i] != b.end_x[i]) + (a.end_y[i] != b.end_y[i]);
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
    EXPECT_EQ(out.engine_name, "cpu-soa");
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
    partition::PartitionOptions popt;
    popt.schedule.config = quick_config();
    popt.schedule.component_workers = 2;
    const auto direct =
        partition::partition_layout(ing.graph, std::move(labels), popt);

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

TEST(WorkerSpec, RoundTripsFlatOptions) {
    partition::SchedulerOptions opt;
    opt.backend = "cpu-pipelined";
    opt.config.kernel = "simd";
    opt.config.iter_max = 9;
    opt.config.steps_per_iter_factor = 0.75;
    opt.config.threads = 3;
    opt.config.pin = true;
    opt.config.numa = "node:1";
    opt.config.seed = 123;  // pre-mix; the spec carries the mixed seed
    const std::uint64_t mixed = partition::component_seed(123, 2);

    const auto parsed =
        partition::parse_worker_spec(partition::encode_worker_spec(opt, mixed));
    EXPECT_EQ(parsed.backend, "cpu-pipelined");
    EXPECT_EQ(parsed.config.kernel, "simd");
    EXPECT_EQ(parsed.config.iter_max, 9u);
    EXPECT_EQ(parsed.config.steps_per_iter_factor, 0.75);
    EXPECT_EQ(parsed.config.threads, 3u);
    EXPECT_TRUE(parsed.config.pin);
    EXPECT_EQ(parsed.config.numa, "node:1");
    EXPECT_EQ(parsed.config.seed, mixed);
    EXPECT_FALSE(parsed.multilevel);
    // A worker lays out exactly one component in-process.
    EXPECT_EQ(parsed.executor, "thread");
    EXPECT_EQ(parsed.component_workers, 1u);
}

TEST(WorkerSpec, RoundTripsMultilevelOptions) {
    partition::SchedulerOptions opt;
    opt.multilevel = true;
    opt.ml.levels = 3;
    opt.ml.coarse_iters = 11;
    opt.ml.refine_iters = 4;
    opt.ml.refine_eta = 0.125;
    opt.ml.exact_tail = true;

    const auto parsed =
        partition::parse_worker_spec(partition::encode_worker_spec(opt, 7));
    ASSERT_TRUE(parsed.multilevel);
    EXPECT_EQ(parsed.ml.levels, 3u);
    EXPECT_EQ(parsed.ml.coarse_iters, 11u);
    EXPECT_EQ(parsed.ml.refine_iters, 4u);
    EXPECT_EQ(parsed.ml.refine_eta, 0.125);
    EXPECT_TRUE(parsed.ml.exact_tail);
}

TEST(WorkerSpec, RejectsUnknownFields) {
    EXPECT_THROW(partition::parse_worker_spec("backend=cpu-soa;bogus=1;"),
                 std::invalid_argument);
}

}  // namespace

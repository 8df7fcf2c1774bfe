// Golden output digests: the .lay bytes of fixed runs through
// driver::run_layout, pinned as FNV-1a 64 hashes in a checked-in table. The
// byte-reproducible CPU engine (cpu-pipelined at any fixed thread count)
// must keep producing exactly these bytes on the flat, partitioned and
// multilevel paths (default multilevel, two levels with the exact
// flat-schedule tail, and partition with multilevel per component), and
// hit the same row under both update kernels. A change that
// moves any engine's output — deliberately or not — fails here, and the
// failure message prints the actual table in the checked-in format so a
// deliberate change can replace the rows verbatim.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "driver/driver.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "io/lay_io.hpp"
#include "serve/cache.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;

struct GoldenRow {
    const char* input;
    const char* backend;
    std::uint32_t threads;
    std::uint64_t flat;
    std::uint64_t partition;
    std::uint64_t multilevel;
    std::uint64_t multilevel2_exact;  ///< levels=2, exact_tail
    std::uint64_t partition_multilevel;
};

/// The core::kOutputEpoch the table below was generated under. A change
/// that moves the bytes regenerates the table and bumps both together, so
/// a persistent artifact cache keyed on the epoch never serves old bytes.
constexpr std::uint32_t kGoldenEpoch = 2;

// clang-format off
const GoldenRow kGolden[] = {
    {"walks_crlf", "cpu-pipelined", 1, 0x752ff99f33fecd93ULL, 0xce791ae5736762acULL, 0x45d08c265fd87152ULL, 0xdba41f385536cda0ULL, 0x987187e8998a2ceaULL},
    {"walks_crlf", "cpu-pipelined", 4, 0x592f73c9ee204003ULL, 0xbce966d9689cbdafULL, 0x0f80ab0ff8894c39ULL, 0x60ece3812e0c79fcULL, 0x3c161bba9e53b8c4ULL},
    {"whole_genome3", "cpu-pipelined", 1, 0x6af4a03b49f93201ULL, 0x8c0bcfdc04e2da12ULL, 0x68aff6230758b857ULL, 0x01d569d06016fe34ULL, 0x844c23aefd168ab6ULL},
    {"whole_genome3", "cpu-pipelined", 4, 0xeb2a36ecf38f43e3ULL, 0x0f44e2b0461704fdULL, 0x868ee8a6597a68b7ULL, 0x1c89ff1be9ddbf2cULL, 0x3d9d677026d40cdbULL},
};
// clang-format on

struct Input {
    const char* name;
    std::shared_ptr<const graph::LeanIngest> ingest;
};

std::vector<Input> inputs() {
    std::vector<Input> in;
    in.push_back({"walks_crlf",
                  std::make_shared<const graph::LeanIngest>(graph::ingest_gfa_file(
                      std::string(PGL_TEST_DATA_DIR) + "/walks_crlf.gfa"))});
    // Three path-disjoint components: enough for partition scheduling and
    // per-component coarsening to matter.
    std::stringstream gfa;
    graph::write_gfa(workloads::generate_whole_genome(
                         workloads::whole_genome_spec(3, 0.0)),
                     gfa);
    in.push_back({"whole_genome3",
                  std::make_shared<const graph::LeanIngest>(
                      graph::ingest_gfa_text(gfa.str()))});
    return in;
}

std::uint64_t digest(const core::Layout& l) {
    std::ostringstream bytes;
    io::write_layout(l, bytes);
    return serve::fnv1a64(bytes.str());
}

/// Which execution path a golden column pins.
enum class Mode { kFlat, kPartition, kMultilevel, kMultilevel2Exact,
                  kPartitionMultilevel };

std::uint64_t run_digest(const Input& in, const std::string& backend,
                         std::uint32_t threads, const std::string& kernel,
                         Mode mode) {
    driver::RunRequest req;
    req.ingest = in.ingest;
    req.backend = backend;
    req.partition =
        mode == Mode::kPartition || mode == Mode::kPartitionMultilevel;
    req.multilevel = mode == Mode::kMultilevel ||
                     mode == Mode::kMultilevel2Exact ||
                     mode == Mode::kPartitionMultilevel;
    if (mode == Mode::kMultilevel2Exact) {
        req.ml.levels = 2;
        req.ml.exact_tail = true;
    }
    req.config.iter_max = 6;
    req.config.steps_per_iter_factor = 1.0;
    req.config.seed = 42;
    req.config.threads = threads;
    req.config.kernel = kernel;
    return digest(driver::run_layout(req).layout);
}

std::string format_row(const GoldenRow& r) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", \"%s\", %u, 0x%016llxULL, 0x%016llxULL, "
                  "0x%016llxULL, 0x%016llxULL, 0x%016llxULL},\n",
                  r.input, r.backend, r.threads,
                  static_cast<unsigned long long>(r.flat),
                  static_cast<unsigned long long>(r.partition),
                  static_cast<unsigned long long>(r.multilevel),
                  static_cast<unsigned long long>(r.multilevel2_exact),
                  static_cast<unsigned long long>(r.partition_multilevel));
    return line;
}

TEST(GoldenDigests, TableWasGeneratedUnderTheCurrentOutputEpoch) {
    EXPECT_EQ(kGoldenEpoch, core::kOutputEpoch)
        << "kOutputEpoch moved without regenerating the golden table, or "
           "the table was regenerated without bumping kOutputEpoch";
}

TEST(GoldenDigests, ByteReproducibleEnginesMatchCheckedInTable) {
    struct Engine {
        const char* backend;
        std::uint32_t threads;
    };
    const Engine engines[] = {
        {"cpu-pipelined", 1}, {"cpu-pipelined", 4},
    };

    std::string actual;
    std::vector<std::string> mismatches;
    for (const Input& in : inputs()) {
        for (const Engine& e : engines) {
            GoldenRow got{in.name, e.backend, e.threads, 0, 0, 0, 0, 0};
            for (const char* kernel : {"scalar", "simd"}) {
                const auto d = [&](Mode m) {
                    return run_digest(in, e.backend, e.threads, kernel, m);
                };
                const GoldenRow run{in.name,
                                    e.backend,
                                    e.threads,
                                    d(Mode::kFlat),
                                    d(Mode::kPartition),
                                    d(Mode::kMultilevel),
                                    d(Mode::kMultilevel2Exact),
                                    d(Mode::kPartitionMultilevel)};
                if (std::string(kernel) == "scalar") got = run;

                const GoldenRow* want = nullptr;
                for (const GoldenRow& r : kGolden) {
                    if (std::string(r.input) == in.name &&
                        std::string(r.backend) == e.backend &&
                        r.threads == e.threads) {
                        want = &r;
                    }
                }
                const std::string label = std::string(in.name) + " " +
                                          e.backend + "@" +
                                          std::to_string(e.threads) + " " +
                                          kernel;
                if (want == nullptr) {
                    mismatches.push_back(label + ": no golden row");
                    continue;
                }
                if (run.flat != want->flat) mismatches.push_back(label + " flat");
                if (run.partition != want->partition) {
                    mismatches.push_back(label + " partition");
                }
                if (run.multilevel != want->multilevel) {
                    mismatches.push_back(label + " multilevel");
                }
                if (run.multilevel2_exact != want->multilevel2_exact) {
                    mismatches.push_back(label + " multilevel2_exact");
                }
                if (run.partition_multilevel != want->partition_multilevel) {
                    mismatches.push_back(label + " partition_multilevel");
                }
            }
            actual += format_row(got);
        }
    }

    if (!mismatches.empty()) {
        std::string msg = "golden digest mismatches:\n";
        for (const auto& m : mismatches) msg += "  " + m + "\n";
        msg += "actual table (scalar kernel):\n" + actual;
        ADD_FAILURE() << msg;
    }
}

}  // namespace

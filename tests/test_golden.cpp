// Golden output digests: the .lay bytes of fixed runs through
// driver::run_layout, pinned as FNV-1a 64 hashes in a checked-in table. The
// byte-reproducible CPU engines (cpu-soa at one thread, cpu-batched and
// cpu-pipelined at any fixed thread count) must keep producing exactly these
// bytes on the flat, partitioned and multilevel paths; the batch-draining
// engines must hit the same row under both update kernels. A change that
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
};

// clang-format off
const GoldenRow kGolden[] = {
    {"walks_crlf", "cpu-soa", 1, 0x6d65e5520a78b925ULL, 0x62555a9eba001e05ULL, 0xfacd10674003b5f7ULL},
    {"walks_crlf", "cpu-batched", 1, 0x6d65e5520a78b925ULL, 0x62555a9eba001e05ULL, 0xfacd10674003b5f7ULL},
    {"walks_crlf", "cpu-batched", 2, 0x1f481eb6cb2bea29ULL, 0x37f63055e9ee4ca3ULL, 0x5950e0491e3c0844ULL},
    {"walks_crlf", "cpu-batched", 4, 0xa296a22e9ee25c5cULL, 0x79991af60e7b43bcULL, 0xa76990351ba854d0ULL},
    {"walks_crlf", "cpu-pipelined", 1, 0xfa2ee4000c9d862eULL, 0x0b469efb20c27aaeULL, 0x18641d69dbd958baULL},
    {"walks_crlf", "cpu-pipelined", 4, 0x71bc6ff5c8805274ULL, 0x64da28dcfa1f9d74ULL, 0xc14407c77aaacf95ULL},
    {"whole_genome3", "cpu-soa", 1, 0x61c94f5f67414688ULL, 0xd7ebf904343374f4ULL, 0x7945cc0269550deaULL},
    {"whole_genome3", "cpu-batched", 1, 0x61c94f5f67414688ULL, 0xd7ebf904343374f4ULL, 0x7945cc0269550deaULL},
    {"whole_genome3", "cpu-batched", 2, 0x51a696939170a83aULL, 0x2c5c8f671cd816b9ULL, 0x5d6a9f6b5ba516b2ULL},
    {"whole_genome3", "cpu-batched", 4, 0x1782d396cea620c5ULL, 0x3fe4665ee8c1d66dULL, 0x7b1e99562a15dcdcULL},
    {"whole_genome3", "cpu-pipelined", 1, 0xbcf6b8c7fd416d0dULL, 0xfcbf33d757c2ab79ULL, 0xaafd394b87bd82a7ULL},
    {"whole_genome3", "cpu-pipelined", 4, 0x51106736d2769294ULL, 0xe0798dcbafd3318fULL, 0xfa47517906cb9da6ULL},
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
                  std::make_shared<const graph::LeanIngest>(graph::ingest_gfa(gfa))});
    return in;
}

std::uint64_t digest(const core::Layout& l) {
    std::ostringstream bytes;
    io::write_layout(l, bytes);
    return serve::fnv1a64(bytes.str());
}

std::uint64_t run_digest(const Input& in, const std::string& backend,
                         std::uint32_t threads, const std::string& kernel,
                         bool partition, bool multilevel) {
    driver::RunRequest req;
    req.ingest = in.ingest;
    req.backend = backend;
    req.partition = partition;
    req.multilevel = multilevel;
    req.config.iter_max = 6;
    req.config.steps_per_iter_factor = 1.0;
    req.config.seed = 42;
    req.config.threads = threads;
    req.config.kernel = kernel;
    return digest(driver::run_layout(req).layout);
}

std::string format_row(const GoldenRow& r) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", \"%s\", %u, 0x%016llxULL, 0x%016llxULL, "
                  "0x%016llxULL},\n",
                  r.input, r.backend, r.threads,
                  static_cast<unsigned long long>(r.flat),
                  static_cast<unsigned long long>(r.partition),
                  static_cast<unsigned long long>(r.multilevel));
    return line;
}

TEST(GoldenDigests, ByteReproducibleEnginesMatchCheckedInTable) {
    struct Engine {
        const char* backend;
        std::uint32_t threads;
    };
    const Engine engines[] = {
        {"cpu-soa", 1},     {"cpu-batched", 1},   {"cpu-batched", 2},
        {"cpu-batched", 4}, {"cpu-pipelined", 1}, {"cpu-pipelined", 4},
    };

    std::string actual;
    std::vector<std::string> mismatches;
    for (const Input& in : inputs()) {
        for (const Engine& e : engines) {
            // cpu-soa applies terms as it samples them and never drains a
            // batch through a kernel; the batch engines run both kernels.
            const bool hogwild = std::string(e.backend) == "cpu-soa";
            GoldenRow got{in.name, e.backend, e.threads, 0, 0, 0};
            for (const char* kernel : {"scalar", "simd"}) {
                if (hogwild && std::string(kernel) == "simd") continue;
                const GoldenRow run{
                    in.name, e.backend, e.threads,
                    run_digest(in, e.backend, e.threads, kernel, false, false),
                    run_digest(in, e.backend, e.threads, kernel, true, false),
                    run_digest(in, e.backend, e.threads, kernel, false, true)};
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

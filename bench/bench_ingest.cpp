// Ingestion bench: GFA -> layout-ready LeanGraph through the two routes
// `pgl_layout` loads a graph by — the streaming GFA reader (gfa_stream) and
// the binary .pgg graph cache — reporting wall-clock, peak RSS and
// steps/second for each. The cache is expected to come in below the GFA
// reader on both time and peak RSS. The GFA reader's byte-window count
// (one per allowed CPU, none under gfa_detail::kMinWindowBytes) is printed
// beside the table; it does not enter the JSON records.
//
//   ./bench_ingest [--scale F] [--seed N] [--quick] [--json FILE]
//
// Each route runs in a forked child process (re-exec of this binary), so
// peak RSS comes from the kernel's per-process high-water mark
// (wait4 -> ru_maxrss) uncontaminated by the other routes or by workload
// generation. With --json FILE one record per route is written — the
// ingest entries of CI's perf-regression gate.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "graph/gfa_util.hpp"
#include "io/pgg_io.hpp"
#include "workloads/synthetic.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace {

using namespace pgl;

struct RouteResult {
    std::uint64_t steps = 0;
    double seconds = 0.0;
    double peak_rss_mb = 0.0;  ///< 0 when unavailable (non-Linux fallback)
};

/// Runs one ingestion route in-process and reports steps + wall time.
RouteResult run_route(const std::string& mode, const std::string& path) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t steps = 0;
    if (mode == "gfa-stream") {
        const auto ingest = graph::ingest_gfa_file(path);
        steps = ingest.graph.total_path_steps();
    } else if (mode == "pgg-cache") {
        const auto ingest = io::read_pgg_file(path);
        steps = ingest.graph.total_path_steps();
    } else {
        std::cerr << "unknown ingest mode " << mode << "\n";
        std::exit(2);
    }
    RouteResult r;
    r.steps = steps;
    r.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return r;
}

#if defined(__linux__)
/// Re-execs this binary as `--__child MODE PATH`, parses the child's
/// "steps seconds" stdout line and collects its ru_maxrss. A child process
/// per route keeps every high-water mark independent: the fork+exec resets
/// RSS, so the kernel measures exactly one ingestion.
RouteResult run_route_forked(const std::string& mode, const std::string& path) {
    int fds[2];
    if (pipe(fds) != 0) {
        std::cerr << "pipe failed, falling back to in-process timing\n";
        return run_route(mode, path);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::cerr << "fork failed, falling back to in-process timing\n";
        close(fds[0]);
        close(fds[1]);
        return run_route(mode, path);
    }
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execl("/proc/self/exe", "bench_ingest", "--__child", mode.c_str(),
              path.c_str(), static_cast<char*>(nullptr));
        std::perror("execl");
        _exit(127);
    }
    close(fds[1]);
    std::string child_out;
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
        child_out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru {};
    if (wait4(pid, &status, 0, &ru) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        std::cerr << "ingest child for route '" << mode << "' failed\n";
        std::exit(1);
    }
    RouteResult r;
    std::istringstream is(child_out);
    if (!(is >> r.steps >> r.seconds)) {
        std::cerr << "cannot parse child output: " << child_out << "\n";
        std::exit(1);
    }
    r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
    return r;
}
#else
RouteResult run_route_forked(const std::string& mode, const std::string& path) {
    return run_route(mode, path);  // no per-route RSS off Linux
}
#endif

}  // namespace

int main(int argc, char** argv) {
    // Hidden child mode: one ingestion, machine-readable result, exit.
    if (argc == 4 && std::strcmp(argv[1], "--__child") == 0) {
        const RouteResult r = run_route(argv[2], argv[3]);
        std::cout << r.steps << " " << r.seconds << "\n";
        return 0;
    }

    auto opt = bench::BenchOptions::parse(argc, argv);
    const std::uint32_t n_components = opt.quick ? 2 : 4;

    namespace fs = std::filesystem;
#if defined(__linux__)
    const std::string uniq = std::to_string(::getpid());
#else
    const std::string uniq = "local";
#endif
    const fs::path dir = fs::temp_directory_path() / ("pgl_bench_ingest_" + uniq);
    fs::create_directories(dir);
    const std::string gfa_path = (dir / "genome.gfa").string();
    const std::string pgg_path = (dir / "genome.pgg").string();

    std::cout << "== GFA ingestion (" << n_components
              << " components, scale " << opt.scale << ") ==\n";
    {
        // Workload generation stays out of every measured child.
        const auto vg = workloads::generate_whole_genome(
            workloads::whole_genome_spec(n_components, opt.scale, opt.seed));
        graph::write_gfa_file(vg, gfa_path);
        std::cout << "genome: " << vg.node_count() << " nodes, "
                  << vg.edge_count() << " edges, " << vg.path_count()
                  << " paths, " << vg.total_path_steps() << " steps -> "
                  << gfa_path << "\n";
    }
    io::write_pgg_file(graph::ingest_gfa_file(gfa_path), pgg_path);
    std::cout << "gfa-stream windows: "
              << graph::gfa_detail::window_count(fs::file_size(gfa_path)) << "\n";

    const std::vector<std::string> routes{"gfa-stream", "pgg-cache"};
    bench::TablePrinter table({"Route", "Seconds", "PeakRSS_MB", "Steps/s"},
                              {21, 10, 12, 12});
    table.print_header(std::cout);

    bench::JsonReporter json(opt.json_path);
    for (const std::string& route : routes) {
        const std::string& input = route == "pgg-cache" ? pgg_path : gfa_path;
        const RouteResult r = run_route_forked(route, input);
        table.print_row(
            std::cout,
            {route, bench::fmt(r.seconds, 4),
             r.peak_rss_mb > 0.0 ? bench::fmt(r.peak_rss_mb, 1) : "n/a",
             bench::fmt_sci(r.seconds > 0.0
                                ? static_cast<double>(r.steps) / r.seconds
                                : 0.0,
                            2)});
        core::LayoutResult summary;
        summary.updates = r.steps;
        summary.seconds = r.seconds;
        json.add(bench::make_record(opt, "bench_ingest", route, summary));
    }

    fs::remove_all(dir);
    return 0;
}

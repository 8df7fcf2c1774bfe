// The "process" component executor and the worker-side entry point behind
// `pgl_layout --component-worker`. Components are farmed to child
// processes over the formats the repo already trusts:
//
//   parent                          child (pgl_layout --component-worker)
//   ------                          -------------------------------------
//   write c<id>.pgg  ------------>  read_pgg_file (bit-identical graph)
//   fork/exec with --worker-spec    parse_worker_spec -> run_component_graph
//   read status pipe (fd 3)  <----  "result <updates> <skipped> <seconds>"
//                            <----  "telemetry\n<snapshot_wire>"
//   waitpid, read c<id>.lay  <----  write_layout_file (atomic temp+rename)
//
// Status frames are length-prefixed (u32 LE length, then payload) so the
// parent never guesses at message boundaries. Crash containment falls out
// of the file formats: the worker publishes its .lay atomically, so a
// child killed mid-run leaves no partial layout — the parent sees the
// signal in waitpid (or a missing result frame / missing .lay), records a
// diagnostic for that component, lets every other component finish, and
// only then throws. The parent merges each worker's telemetry wire
// snapshot into its own Registry, so --timing and --trace aggregate
// process-tree-wide exactly as they do in-process.
//
// Between fork() and execv() only async-signal-safe calls are made (the
// argv block is built before forking): this executor runs inside a
// ThreadPool, and another thread's malloc lock must not deadlock a child.
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/request.hpp"
#include "core/thread_pool.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "partition/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::partition {

namespace {

namespace fs = std::filesystem;

/// write(2) the whole buffer, riding out EINTR and short writes.
bool write_all(int fd, const void* data, std::size_t n) noexcept {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/// One length-prefixed status frame: u32 LE payload length, then payload.
bool write_frame(int fd, const std::string& payload) noexcept {
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    if (!write_all(fd, &len, sizeof len)) return false;
    return write_all(fd, payload.data(), payload.size());
}

/// read(2) exactly n bytes. Returns 1 on success, 0 on clean EOF before
/// the first byte, -1 on error or EOF mid-record.
int read_exact(int fd, void* data, std::size_t n) noexcept {
    char* p = static_cast<char*>(data);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR) continue;
            return -1;
        }
        if (r == 0) return got == 0 ? 0 : -1;
        got += static_cast<std::size_t>(r);
    }
    return 1;
}

/// What a worker reported over its status pipe.
struct WorkerReport {
    bool have_result = false;
    std::uint64_t updates = 0;
    std::uint64_t skipped = 0;
    double seconds = 0.0;
    std::string telemetry;
};

/// Drains status frames until EOF (child exit closes the pipe). Unknown
/// frame kinds are skipped so the protocol can grow without breaking old
/// parents. Returns false on a torn frame (child died mid-write).
bool read_reports(int fd, WorkerReport& report) noexcept {
    constexpr std::uint32_t kMaxFrame = 64u << 20;  // corrupt-length guard
    for (;;) {
        std::uint32_t len = 0;
        const int h = read_exact(fd, &len, sizeof len);
        if (h == 0) return true;
        if (h < 0 || len > kMaxFrame) return false;
        std::string payload(len, '\0');
        if (read_exact(fd, payload.data(), len) != 1) return false;
        if (payload.rfind("result ", 0) == 0) {
            unsigned long long updates = 0, skipped = 0;
            double seconds = 0.0;
            if (std::sscanf(payload.c_str(), "result %llu %llu %lf", &updates,
                            &skipped, &seconds) == 3) {
                report.have_result = true;
                report.updates = updates;
                report.skipped = skipped;
                report.seconds = seconds;
            }
        } else if (payload.rfind("telemetry\n", 0) == 0) {
            report.telemetry = payload.substr(10);
        }
    }
}

/// Worker binary resolution order: explicit option, PGL_LAYOUT_WORKER,
/// then the pgl_layout sitting next to this executable (every build
/// target lands in the same build directory, so benches and the serve
/// daemon resolve it without configuration).
std::string resolve_worker_binary(const SchedulerOptions& opt) {
    if (!opt.worker_binary.empty()) return opt.worker_binary;
    if (const char* env = std::getenv("PGL_LAYOUT_WORKER"); env && *env) {
        return env;
    }
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (!ec) {
        const fs::path sibling = self.parent_path() / "pgl_layout";
        if (fs::exists(sibling, ec) && !ec) return sibling.string();
    }
    throw std::runtime_error(
        "process executor: cannot resolve the pgl_layout worker binary "
        "(set SchedulerOptions::worker_binary or PGL_LAYOUT_WORKER, or run "
        "from a directory containing pgl_layout)");
}

/// Scratch directory for the per-component .pgg/.lay files, removed on
/// scope exit (success or throw).
struct ScratchDir {
    fs::path path;
    explicit ScratchDir() {
        static std::atomic<std::uint64_t> seq{0};
        const auto n = seq.fetch_add(1, std::memory_order_relaxed);
        path = fs::temp_directory_path() /
               ("pgl-mp-" + std::to_string(::getpid()) + "-" +
                std::to_string(n));
        fs::create_directories(path);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path, ec);  // best effort; scratch only
    }
};

/// Spawns one worker, streams its status pipe to EOF, reaps it, and
/// explains any failure. On success fills `result` (layout read back from
/// the worker's .lay) and returns an empty string; otherwise returns the
/// diagnostic.
std::string run_one_worker(const std::string& worker,
                           const fs::path& graph_path,
                           const fs::path& lay_path, const std::string& spec,
                           core::LayoutResult& result) {
    // argv must be fully materialized before fork(): no allocation is
    // allowed on the child side.
    const std::string graph_arg = graph_path.string();
    const std::string lay_arg = lay_path.string();
    std::vector<std::string> args = {
        worker, "--component-worker", "--load-graph", graph_arg,
        "-o",   lay_arg,              "--worker-spec", spec,
        "--status-fd", "3"};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    // O_CLOEXEC on both ends: a concurrently-spawned sibling's exec must
    // not inherit this pipe's write end, or EOF would stall until that
    // unrelated child exits. The child re-arms its own end via dup2 onto
    // fd 3, which clears the flag on the duplicate only.
    int pfd[2];
    if (::pipe2(pfd, O_CLOEXEC) != 0) {
        return std::string("pipe2 failed: ") + std::strerror(errno);
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        const int err = errno;
        ::close(pfd[0]);
        ::close(pfd[1]);
        return std::string("fork failed: ") + std::strerror(err);
    }
    if (pid == 0) {
        // Child: async-signal-safe calls only.
        if (::dup2(pfd[1], 3) < 0) _exit(126);
        ::execv(argv[0], argv.data());
        _exit(127);  // exec failed; 127 is the shell's "not runnable"
    }
    ::close(pfd[1]);

    WorkerReport report;
    const bool frames_ok = read_reports(pfd[0], report);
    ::close(pfd[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            return std::string("waitpid failed: ") + std::strerror(errno);
        }
    }

    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        return "worker killed by signal " + std::to_string(sig) + " (" +
               ::strsignal(sig) + ")";
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return "worker exited with status " +
               std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
    if (!frames_ok || !report.have_result) {
        return "worker exited cleanly but sent no result frame";
    }
    std::error_code ec;
    if (!fs::exists(lay_path, ec) || ec) {
        return "worker reported success but wrote no layout file";
    }

    result.layout = io::read_layout_file(lay_path.string());
    result.updates = report.updates;
    result.skipped = report.skipped;
    result.seconds = report.seconds;
    if (!report.telemetry.empty()) {
        telemetry::merge_snapshot_wire(report.telemetry);
    }
    return std::string();
}

class ProcessExecutor final : public Executor {
public:
    std::string_view name() const noexcept override { return "process"; }

    std::vector<core::LayoutResult> run(
        const Decomposition& d, const SchedulerOptions& opt,
        const ComponentHook& hook) const override {
        const std::uint32_t n = d.count();
        std::vector<core::LayoutResult> results(n);
        if (n == 0) return results;

        const std::string worker = resolve_worker_binary(opt);
        ScratchDir scratch;

        // Same largest-first admission as the thread executor: the queue
        // order is shared policy, only the mechanism differs.
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return d.components[a].graph.node_count() >
                                    d.components[b].graph.node_count();
                         });

        std::atomic<std::uint32_t> next{0};
        std::atomic<std::uint32_t> completed{0};
        std::mutex hook_mutex;
        std::mutex failure_mutex;
        std::vector<std::string> failures;

        const auto work = [&](std::uint32_t) {
            for (;;) {
                const std::uint32_t k =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (k >= n) return;
                const std::uint32_t c = order[k];
                telemetry::StageSpan span("component",
                                          "c" + std::to_string(c));
                const fs::path gpath =
                    scratch.path / ("c" + std::to_string(c) + ".pgg");
                const fs::path lpath =
                    scratch.path / ("c" + std::to_string(c) + ".lay");
                const std::string spec = encode_worker_spec(
                    opt, component_seed(opt.config.seed, c));

                std::string error;
                try {
                    io::write_pgg_graph_file(d.components[c].graph,
                                             gpath.string());
                    error = run_one_worker(worker, gpath, lpath, spec,
                                           results[c]);
                } catch (const std::exception& e) {
                    error = e.what();
                }
                const std::uint32_t done =
                    completed.fetch_add(1, std::memory_order_relaxed) + 1;
                if (!error.empty()) {
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    failures.push_back("component " + std::to_string(c) +
                                       ": " + error);
                    continue;
                }
                if (hook) {
                    ComponentProgress p;
                    p.component = c;
                    p.completed = done;
                    p.total = n;
                    p.nodes = d.components[c].graph.node_count();
                    p.updates = results[c].updates;
                    p.seconds = results[c].seconds;
                    std::lock_guard<std::mutex> lock(hook_mutex);
                    hook(p);
                }
            }
        };

        const std::uint32_t procs = opt.processes == 0 ? 1 : opt.processes;
        core::ThreadPool pool(procs <= 1 ? 0 : std::min(procs, n));
        pool.run(work);

        if (!failures.empty()) {
            std::sort(failures.begin(), failures.end());
            std::string msg = "multi-process partition failed (" +
                              std::to_string(failures.size()) + " of " +
                              std::to_string(n) + " components):";
            for (const std::string& f : failures) {
                msg += "\n  ";
                msg += f;
            }
            throw std::runtime_error(msg);
        }
        return results;
    }
};

}  // namespace

namespace detail {

std::unique_ptr<Executor> make_process_executor() {
    return std::make_unique<ProcessExecutor>();
}

}  // namespace detail

int run_component_worker(const std::string& graph_path,
                         const std::string& out_path, const std::string& spec,
                         int status_fd) {
    try {
        const SchedulerOptions opt{parse_worker_spec(spec), {}};
        graph::LeanIngest ingest = io::read_pgg_file(graph_path);

        // Crash-injection hook for the containment tests: when the env
        // var's value is a substring of the output path (e.g. "/c0.lay"),
        // this worker dies exactly as an OOM-killed child would — after
        // loading the graph, before publishing any output.
        if (const char* crash = std::getenv("PGL_COMPONENT_WORKER_CRASH");
            crash && *crash && out_path.find(crash) != std::string::npos) {
            ::raise(SIGKILL);
        }

        const core::LayoutResult r = run_component_graph(ingest.graph, opt);
        io::write_layout_file(r.layout, out_path);
        if (status_fd >= 0) {
            const std::string result_frame =
                "result " + std::to_string(r.updates) + " " +
                std::to_string(r.skipped) + " " +
                core::canonical_double(r.seconds);
            if (!write_frame(status_fd, result_frame) ||
                !write_frame(status_fd,
                             "telemetry\n" + telemetry::snapshot_wire())) {
                std::fprintf(stderr,
                             "pgl_layout --component-worker: status pipe "
                             "write failed\n");
                return 1;
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pgl_layout --component-worker: %s\n", e.what());
        return 1;
    }
}

}  // namespace pgl::partition

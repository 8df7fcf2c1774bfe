#pragma once
// Shared harness for the table/figure reproduction benches: command-line
// parsing (--scale, --iters, --factor, --threads, --seed), table printing,
// and workload caching so the same scaled graph is reused across benches.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "graph/lean_graph.hpp"
#include "workloads/synthetic.hpp"

namespace pgl::bench {

/// Options common to every reproduction bench. Defaults are sized so the
/// whole suite finishes on a small 1-core container; raise --scale and
/// --factor on bigger machines to approach paper-scale workloads.
struct BenchOptions {
    double scale = 0.004;        ///< graph-size multiplier vs paper scale
    std::uint32_t iters = 12;    ///< SGD iterations (paper default: 30)
    double factor = 1.0;         ///< steps-per-iteration factor (paper: 10)
    std::uint32_t threads = 1;   ///< CPU threads
    std::uint64_t seed = 42;
    bool quick = false;          ///< further reduce work (CI smoke mode)
    std::string backend = "cpu-pipelined";  ///< EngineRegistry name (--backend)
    std::string kernel = "scalar";    ///< KernelRegistry name (--kernel)
    std::string json_path;       ///< --json FILE: machine-readable records
    std::string input_path;      ///< --input FILE: real GFA/.pgg instead of
                                 ///< the synthetic workload (where supported)

    static BenchOptions parse(int argc, char** argv);

    core::LayoutConfig layout_config() const;
};

/// One machine-readable measurement, the unit of the bench JSON schema and
/// of the CI perf gate (bench/baseline.json):
///   {"bench": ..., "backend": ..., "scale": ..., "iters": ...,
///    "threads": ..., "seconds": ..., "updates_per_sec": ...}
struct BenchRecord {
    std::string bench;    ///< emitting benchmark, e.g. "bench_backends"
    std::string backend;  ///< EngineRegistry name (or a series label)
    double scale = 0.0;
    std::uint32_t iters = 0;
    std::uint32_t threads = 0;
    double seconds = 0.0;
    double updates_per_sec = 0.0;

    /// Optional gated metric. When `direction` is non-empty the record
    /// emits {"value": ..., "direction": "lower"|"higher"} and
    /// check_regression.py gates `value` with that polarity instead of
    /// updates_per_sec (lower-is-better: fail when current exceeds
    /// baseline * (1 + tolerance)).
    double value = 0.0;
    std::string direction;

    /// Optional per-stage wall-clock breakdown, emitted as
    /// {"stages": {"coarsen": ..., ...}} when non-empty. Purely
    /// informational — the gate never reads it.
    std::vector<std::pair<std::string, double>> stages;

    /// Optional telemetry-sourced metrics (counter values, histogram
    /// quantiles), emitted as {"telemetry": {"name": value, ...}} when
    /// non-empty. Informational like `stages`: check_regression.py matches
    /// records on (bench, backend, threads) and gates value /
    /// updates_per_sec only, so adding keys here never perturbs the gate.
    std::vector<std::pair<std::string, double>> telemetry;
};

/// Builds the record for one engine run under the bench's options.
BenchRecord make_record(const BenchOptions& opt, std::string bench,
                        std::string backend, const core::LayoutResult& r);

/// Collects BenchRecords and writes them as a JSON array. Constructed from
/// BenchOptions::json_path; with an empty path every call is a no-op, so
/// benches can emit records unconditionally alongside their tables. The
/// file is written by write() or, failing that, the destructor.
class JsonReporter {
public:
    JsonReporter() = default;
    explicit JsonReporter(std::string path) : path_(std::move(path)) {}
    ~JsonReporter() { write(); }

    JsonReporter(const JsonReporter&) = delete;
    JsonReporter& operator=(const JsonReporter&) = delete;

    bool enabled() const noexcept { return !path_.empty(); }
    void add(BenchRecord record);

    /// Writes the collected records; idempotent. Prints a diagnostic and
    /// exits with status 2 if the file cannot be written.
    void write();

private:
    std::string path_;
    std::vector<BenchRecord> records_;
    bool written_ = false;
};

/// Runs the layout through the registered engine named `backend`, printing
/// a diagnostic and exiting with status 2 on an unknown name.
core::LayoutResult run_backend(const std::string& backend,
                               const graph::LeanGraph& g,
                               const core::LayoutConfig& cfg);

/// Fixed-width table printer used by all benches so outputs read like the
/// paper's tables.
class TablePrinter {
public:
    explicit TablePrinter(std::vector<std::string> headers,
                          std::vector<int> widths);

    void print_header(std::ostream& os) const;
    void print_row(std::ostream& os, const std::vector<std::string>& cells) const;

private:
    std::vector<std::string> headers_;
    std::vector<int> widths_;
};

/// Formats seconds as the paper's h:mm:ss (with fractional seconds below 10 s).
std::string format_hms(double seconds);

/// Formats a double with the given precision.
std::string fmt(double v, int precision = 2);

/// Formats in scientific notation like the paper ("1.1e7").
std::string fmt_sci(double v, int precision = 1);

/// Builds the lean graph for a preset, printing a one-line summary.
graph::LeanGraph build_lean(const workloads::PangenomeSpec& spec, bool verbose = true);

/// Paper-default full-scale update count for a graph generated at `scale`:
/// 30 iterations x 10 x (total path steps scaled back up). Used to
/// extrapolate modeled per-update costs to the paper's workload sizes.
double full_scale_updates(const graph::LeanGraph& scaled, double scale);

}  // namespace pgl::bench

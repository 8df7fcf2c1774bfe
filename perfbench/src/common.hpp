#pragma once
// Shared vocabulary of the benchmark driver: options, the metric table a
// run fills in, the outcome counters, and small statistics/IO helpers.
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one benchmark run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured duration of the timed loop
    bool trace = false;     ///< per-layer pass instead of the end-to-end one
    bool toy = false;       ///< toy-scale fixtures (self-check mode)
    std::string work_dir;   ///< fixtures and outputs; removed at exit
    std::string trace_path; ///< Chrome trace JSON (traced runs)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Metrics of one run, in the order they were first set.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    bool has(const std::string& name) const;
    double get(const std::string& name) const;  ///< 0 when absent
    const std::vector<Metric>& items() const noexcept { return items_; }

private:
    std::vector<Metric> items_;
};

/// What one run reports besides its metrics: operations attempted and
/// failed (an exception, a digest mismatch, a job not ending `done`).
struct Outcome {
    Metrics metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void count(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
};

double median(std::vector<double> v);
/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// True when the two files exist and hold the same bytes.
bool same_bytes(const std::string& a, const std::string& b);
double file_mb(const std::string& path);

/// Current virtual size (VmSize in /proc/self/status), MB; 0 if unknown.
double vm_size_mb();

/// Runs `fn` in a forked child and waits for it, so its time and memory
/// stay out of this process (fixture generation, cold set-up runs). The
/// child's payload (what `fn` returns) comes back as a string, and its
/// peak resident set in `peak_rss_mb` when given. Throws when the child
/// fails.
std::string run_in_child(const std::function<std::string()>& fn,
                         double* peak_rss_mb = nullptr);

/// Log line on stderr (stdout carries only metrics and the result line).
void note(const std::string& line);

}  // namespace perfbench

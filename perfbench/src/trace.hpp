#pragma once
// The benchmark's own spans. Every call the benchmark makes into a layer of
// pgl is timed by a Span; with tracing on, the span is also recorded with
// its name, start, end, parent span and operation id, kept in memory and
// written as Chrome/Perfetto trace JSON when the run ends. Nothing inside
// the library is instrumented: the spans sit around its public calls.
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t op = 0;      ///< operation (repetition, job) it belongs to
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t tid = 0;

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
public:
    static Tracer& instance();

    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
    void record(SpanRecord r);
    std::vector<SpanRecord> spans() const;

    /// Writes every recorded span as Chrome trace JSON ("X" events).
    void write_chrome_json(const std::string& path) const;

private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> ids_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

std::uint64_t now_ns();

/// A fresh operation id (one per repetition or job).
std::uint64_t new_op();

/// Small dense id of the calling thread (the trace's tid).
std::uint32_t thread_index();

/// Times one layer call. The parent defaults to the innermost open span on
/// this thread, and a span opened with none starts a new operation; pass
/// `parent`/`op` explicitly for work that runs on a thread the benchmark
/// does not own (engine passes on pool workers).
class Span {
public:
    explicit Span(std::string name);
    Span(std::string name, std::uint64_t parent, std::uint64_t op);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double close();
    std::uint64_t id() const noexcept { return rec_.id; }
    std::uint64_t op() const noexcept { return rec_.op; }

private:
    SpanRecord rec_;
    bool open_ = true;
    bool scoped_ = false;  ///< pushed on this thread's open-span stack
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_op_ = 0;
    double seconds_ = 0.0;
};

/// A span's self time: its duration minus the part its children cover.
double self_seconds(const std::vector<SpanRecord>& spans, const SpanRecord& s);

}  // namespace perfbench

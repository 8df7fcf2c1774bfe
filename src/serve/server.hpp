#pragma once
// The layout job server — the long-lived heart of `pgl_serve`, usable
// in-process (bench_serve, tests) or behind the socket front end
// (serve/daemon). Lifecycle follows the samgraph CPUEngine shape: construct
// -> start() spins up the worker pool's background loops -> submit/cancel/
// wait from any thread -> shutdown() drains and joins.
//
// One core::ThreadPool owns the job workers; each worker runs one job at a
// time through exactly the engine / partition / multilevel machinery
// `pgl_layout` uses, so a daemon result is byte-identical to a direct CLI
// run for deterministic backends — the serve-smoke CI job cmp's this.
//
// Scheduling is fairness-aware by smallest-first admission: the queue is
// ordered by graph file size (ascending, FIFO within a size), the inverse
// of the partition scheduler's largest-first component order. There, every
// component must finish before the run ends, so starting the largest first
// minimizes makespan; here, jobs are independent requests and p99 latency
// is the target, so a whole-genome job must never make twenty small ones
// wait behind it. Large jobs cannot starve outright: workers only take the
// front of the queue, so once a large job is at the front (no smaller work
// left) it runs.
//
// Results are served from the content-addressed ArtifactCache; a submit
// whose key is already cached completes instantly without an engine. A
// submit whose key is currently *in flight* joins the running job as a
// follower — the work runs exactly once and every follower completes with
// the same artifact (the concurrent double-submit contract).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "graph/gfa_stream.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::serve {

enum class JobState : std::uint8_t {
    kQueued,     ///< waiting for a worker (or for a leader's result)
    kRunning,    ///< a worker is executing it
    kDone,       ///< artifact published
    kFailed,     ///< error set
    kCancelled,  ///< cancelled before or during execution
};

const char* job_state_name(JobState s) noexcept;
inline bool is_terminal(JobState s) noexcept { return s >= JobState::kDone; }

/// Point-in-time public view of a job.
struct JobStatus {
    std::uint64_t id = 0;
    JobState state = JobState::kQueued;
    std::string key;       ///< 32-hex artifact cache key
    std::string artifact;  ///< .lay path (kDone only)
    std::string error;     ///< diagnostic (kFailed only)
    double progress = 0.0;  ///< 0..1, iteration/component granularity
    bool cache_hit = false;  ///< completed without running an engine
    std::uint64_t size = 0;  ///< fairness size proxy (graph bytes on disk)
    double queue_seconds = 0.0;  ///< submit -> start (or terminal)
    double run_seconds = 0.0;    ///< start -> terminal
};

struct ServerOptions {
    std::string cache_dir = ".pgl-cache";
    std::uint32_t workers = 2;  ///< jobs executed concurrently
    /// Parsed graphs kept in memory (keyed by fingerprint, FIFO evicted) so
    /// a burst of jobs against one pangenome loads it once.
    std::uint32_t graph_cache_entries = 4;
};

struct ServerStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t cache_hits = 0;    ///< submits served straight from disk
    std::uint64_t dedup_joins = 0;   ///< submits that joined an in-flight job
    std::uint64_t queued = 0;        ///< current queue depth
    std::uint64_t running = 0;       ///< jobs executing now
};

class Server {
public:
    explicit Server(ServerOptions opt);
    ~Server();  ///< shutdown() if still running

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Spawns the worker pool's background job loops. Idempotent.
    void start();

    /// Stops admission, cancels queued and running jobs cooperatively, and
    /// joins the workers. Idempotent; submit() after shutdown throws.
    void shutdown();

    /// Validates (core::validate) and enqueues a request; returns the job
    /// id. Requests whose key is cached complete immediately; requests
    /// whose key is in flight join the running job. Throws
    /// std::runtime_error on an invalid request or an unreadable graph
    /// file.
    std::uint64_t submit(const JobRequest& r);

    /// Throws std::out_of_range for an unknown id.
    JobStatus status(std::uint64_t id) const;

    /// Requests cooperative cancellation. Returns false for unknown ids and
    /// jobs already terminal, true when the cancel was delivered (queued
    /// jobs die before starting; running engines exit at the next
    /// iteration boundary).
    bool cancel(std::uint64_t id);

    /// Blocks until the job reaches a terminal state; returns it.
    JobStatus wait(std::uint64_t id);

    ServerStats stats() const;
    const ArtifactCache& cache() const noexcept { return cache_; }

private:
    struct Job {
        std::uint64_t id = 0;
        JobRequest request;
        std::string key;
        std::uint64_t graph_fp = 0;
        std::uint64_t size = 0;  ///< graph bytes on disk (fairness proxy)
        JobState state = JobState::kQueued;
        std::shared_ptr<std::atomic<bool>> cancel_flag;
        std::atomic<double> progress{0.0};
        std::string artifact;
        std::string error;
        bool cache_hit = false;
        std::vector<std::uint64_t> followers;  ///< same-key joiners
        std::chrono::steady_clock::time_point submitted_at{};
        std::uint64_t submitted_ns = 0;  ///< telemetry clock at submit
        double queue_seconds = 0.0;
        double run_seconds = 0.0;
    };

    JobStatus snapshot(const Job& j) const;
    Job* find_job(std::uint64_t id);
    const Job* find_job(std::uint64_t id) const;
    void worker_loop();
    /// What one run produced: the published artifact, or the error.
    struct Outcome {
        std::string artifact;
        std::string error;
    };
    /// Runs and publishes a job without mutex_ held; the caller stores the
    /// outcome in the Job under the lock, where status() reads it.
    Outcome execute(Job& job);
    core::Layout run_job(Job& job);
    std::shared_ptr<const graph::LeanIngest> load_graph(const JobRequest& r,
                                                        std::uint64_t fp);
    /// Terminal transition + follower propagation; call with mutex_ held.
    void finish(Job& job, JobState state);

    ServerOptions opt_;
    ArtifactCache cache_;

    mutable std::mutex mutex_;
    std::condition_variable cv_work_;  ///< queue became non-empty / stopping
    std::condition_variable cv_done_;  ///< some job reached a terminal state
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    /// Admission order: (size, id) ascending — smallest-first, FIFO within
    /// a size class.
    std::set<std::pair<std::uint64_t, std::uint64_t>> queue_;
    std::map<std::string, std::uint64_t> inflight_;  ///< key -> leader job

    /// In-memory parsed-graph cache (fingerprint-keyed, FIFO eviction).
    std::map<std::uint64_t, std::shared_ptr<const graph::LeanIngest>> graphs_;
    std::deque<std::uint64_t> graph_order_;

    std::unique_ptr<core::ThreadPool> pool_;
    std::uint64_t next_id_ = 1;
    bool started_ = false;
    bool stopping_ = false;
    ServerStats stats_;

    /// Telemetry handles, resolved once in the constructor:
    /// serve.queue_wait_ns (submit -> worker pickup) and serve.run_ns
    /// (pickup -> terminal). The daemon's `stats` command serves their
    /// quantiles; each job's queue wait also lands in the trace as a
    /// "job.queue" async event.
    telemetry::Histogram queue_wait_hist_;
    telemetry::Histogram run_hist_;
};

}  // namespace pgl::serve

#include "serve/server.hpp"

#include <filesystem>
#include <stdexcept>

#include "driver/driver.hpp"
#include "io/pgg_io.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* job_state_name(JobState s) noexcept {
    switch (s) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kFailed: return "failed";
        case JobState::kCancelled: return "cancelled";
    }
    return "unknown";
}

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_dir),
      queue_wait_hist_(telemetry::Registry::instance().histogram(
          "serve.queue_wait_ns")),
      run_hist_(telemetry::Registry::instance().histogram("serve.run_ns")) {
    if (opt_.workers == 0) opt_.workers = 1;
}

Server::~Server() {
    try {
        shutdown();
    } catch (...) {
        // Destructor must not throw; a failed drain leaves the pool to its
        // own destructor.
    }
}

void Server::start() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return;
    if (stopping_) throw std::logic_error("Server restarted after shutdown");
    pool_ = std::make_unique<core::ThreadPool>(opt_.workers);
    // One long-lived dispatch: every pool worker enters the job loop and
    // stays there until shutdown flips stopping_ (the samgraph
    // Start()/background-loop shape on top of our barrier pool).
    pool_->launch([this](std::uint32_t) { worker_loop(); });
    started_ = true;
}

void Server::shutdown() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Cancel everything cooperatively: queued jobs are finished right here
    // (their workers may never see them); running engines observe the flag
    // at their next iteration boundary and return early.
    for (auto& [id, job] : jobs_) {
        if (is_terminal(job->state)) continue;
        job->cancel_flag->store(true, std::memory_order_relaxed);
        if (job->state == JobState::kQueued) {
            queue_.erase({job->size, job->id});
            finish(*job, JobState::kCancelled);
        }
    }
    cv_work_.notify_all();
    if (started_) {
        lock.unlock();
        pool_->wait();  // workers drain their current (cancelled) job
        lock.lock();
        pool_.reset();
    }
}

std::uint64_t Server::submit(const JobRequest& r) {
    // Validate up front, on the caller's thread: a bad request must fail
    // the submit, not a worker later.
    core::validate(r, core::Spelling::kWire);
    const std::uint64_t graph_fp = graph_fingerprint(r.graph);  // throws if unreadable
    std::error_code ec;
    const auto fsize = std::filesystem::file_size(r.graph, ec);
    const std::string key =
        cache_key(graph_fp, fnv1a64(canonical_request(r)));

    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("server is shutting down");

    auto job = std::make_unique<Job>();
    Job& j = *job;
    j.id = next_id_++;
    j.request = r;
    j.key = key;
    j.graph_fp = graph_fp;
    j.size = ec ? 0 : static_cast<std::uint64_t>(fsize);
    j.cancel_flag = std::make_shared<std::atomic<bool>>(false);
    j.submitted_at = std::chrono::steady_clock::now();
    j.submitted_ns = telemetry::now_ns();
    jobs_.emplace(j.id, std::move(job));
    ++stats_.submitted;
    telemetry::Registry::instance().counter("serve.submitted").add(1);

    // Fast path 1: the artifact already exists — done without an engine.
    if (auto hit = cache_.lookup(key)) {
        j.artifact = *hit;
        j.cache_hit = true;
        j.progress.store(1.0, std::memory_order_relaxed);
        ++stats_.cache_hits;
        finish(j, JobState::kDone);
        return j.id;
    }
    // Fast path 2: the same key is being computed right now — join it.
    // The work runs exactly once; the leader's completion finishes us.
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
        Job* leader = find_job(it->second);
        if (leader && !is_terminal(leader->state)) {
            leader->followers.push_back(j.id);
            ++stats_.dedup_joins;
            telemetry::Registry::instance().counter("serve.dedup_joins").add(1);
            return j.id;
        }
    }
    inflight_[key] = j.id;
    queue_.insert({j.size, j.id});
    cv_work_.notify_one();
    return j.id;
}

JobStatus Server::snapshot(const Job& j) const {
    JobStatus s;
    s.id = j.id;
    s.state = j.state;
    s.key = j.key;
    s.artifact = j.artifact;
    s.error = j.error;
    s.progress = j.progress.load(std::memory_order_relaxed);
    s.cache_hit = j.cache_hit;
    s.size = j.size;
    s.queue_seconds = j.queue_seconds;
    s.run_seconds = j.run_seconds;
    if (!is_terminal(j.state) && j.state == JobState::kQueued) {
        s.queue_seconds = seconds_between(j.submitted_at,
                                          std::chrono::steady_clock::now());
    }
    return s;
}

Server::Job* Server::find_job(std::uint64_t id) {
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

const Server::Job* Server::find_job(std::uint64_t id) const {
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

JobStatus Server::status(std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Job* j = find_job(id);
    if (!j) throw std::out_of_range("unknown job " + std::to_string(id));
    return snapshot(*j);
}

bool Server::cancel(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    Job* j = find_job(id);
    if (!j || is_terminal(j->state)) return false;
    j->cancel_flag->store(true, std::memory_order_relaxed);
    if (j->state == JobState::kQueued) {
        // Queued leaders leave the queue now; followers have no queue entry.
        queue_.erase({j->size, j->id});
        const auto infl = inflight_.find(j->key);
        const bool is_follower = infl != inflight_.end() &&
                                 infl->second != j->id;
        if (!is_follower) {
            finish(*j, JobState::kCancelled);
        } else {
            // A cancelled follower detaches from its leader and dies.
            if (Job* leader = find_job(infl->second)) {
                std::erase(leader->followers, j->id);
            }
            finish(*j, JobState::kCancelled);
        }
    }
    // Running jobs transition when their worker observes the flag.
    return true;
}

JobStatus Server::wait(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const Job* j = find_job(id);
    if (!j) throw std::out_of_range("unknown job " + std::to_string(id));
    cv_done_.wait(lock, [&] { return is_terminal(j->state); });
    return snapshot(*j);
}

ServerStats Server::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats s = stats_;
    s.queued = queue_.size();  // derived, so erase paths can't drift it
    return s;
}

void Server::finish(Job& job, JobState state) {
    job.state = state;
    switch (state) {
        case JobState::kDone: ++stats_.completed; break;
        case JobState::kFailed: ++stats_.failed; break;
        case JobState::kCancelled: ++stats_.cancelled; break;
        default: break;
    }
    if (job.queue_seconds == 0.0 && job.run_seconds == 0.0) {
        job.queue_seconds = seconds_between(job.submitted_at,
                                            std::chrono::steady_clock::now());
    }

    // Followers complete with the leader's outcome — except when the leader
    // failed or was cancelled: then the first live follower is promoted to
    // a fresh leader and re-queued, so a cancel of one client's job can
    // never silently kill another client's identical request.
    std::vector<std::uint64_t> followers = std::move(job.followers);
    job.followers.clear();
    if (state == JobState::kDone) {
        for (const std::uint64_t fid : followers) {
            if (Job* f = find_job(fid)) {
                if (is_terminal(f->state)) continue;
                f->artifact = job.artifact;
                f->cache_hit = true;
                f->progress.store(1.0, std::memory_order_relaxed);
                finish(*f, JobState::kDone);
            }
        }
        inflight_.erase(job.key);
    } else {
        Job* promoted = nullptr;
        for (const std::uint64_t fid : followers) {
            Job* f = find_job(fid);
            if (!f || is_terminal(f->state)) continue;
            if (!promoted &&
                !f->cancel_flag->load(std::memory_order_relaxed) &&
                !stopping_) {
                promoted = f;
                continue;
            }
            f->error = job.error;
            finish(*f, state);
        }
        if (promoted) {
            inflight_[job.key] = promoted->id;
            queue_.insert({promoted->size, promoted->id});
            cv_work_.notify_one();
        } else {
            inflight_.erase(job.key);
        }
    }
    cv_done_.notify_all();
}

void Server::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_) return;
            continue;
        }
        // Smallest-first admission: the set is ordered by (size, id).
        const auto front = *queue_.begin();
        queue_.erase(queue_.begin());
        Job* job = find_job(front.second);
        if (!job) continue;
        if (job->cancel_flag->load(std::memory_order_relaxed)) {
            finish(*job, JobState::kCancelled);
            continue;
        }
        job->state = JobState::kRunning;
        ++stats_.running;
        const auto started = std::chrono::steady_clock::now();
        job->queue_seconds = seconds_between(job->submitted_at, started);
        const std::uint64_t started_ns = telemetry::now_ns();
        queue_wait_hist_.record(started_ns - job->submitted_ns);
        // Queue waits go on their own async track (keyed by job id) so they
        // can overlap the worker's job.run span without fighting its stack.
        telemetry::Tracer::instance().record_async(
            "job.queue", "serve", job->id, job->submitted_ns, started_ns);

        lock.unlock();
        execute(*job);
        lock.lock();

        --stats_.running;
        run_hist_.record(telemetry::now_ns() - started_ns);
        job->run_seconds =
            seconds_between(started, std::chrono::steady_clock::now());
        if (!job->error.empty()) {
            finish(*job, JobState::kFailed);
        } else if (job->cancel_flag->load(std::memory_order_relaxed) &&
                   job->artifact.empty()) {
            finish(*job, JobState::kCancelled);
        } else {
            finish(*job, JobState::kDone);
        }
    }
}

void Server::execute(Job& job) {
    try {
        core::Layout layout;
        {
            telemetry::StageSpan span("job.run",
                                      "job" + std::to_string(job.id));
            layout = run_job(job);
        }
        if (job.cancel_flag->load(std::memory_order_relaxed)) {
            return;  // partial layout: never published
        }
        {
            telemetry::StageSpan span("job.publish",
                                      "job" + std::to_string(job.id));
            job.artifact = cache_.publish(job.key, layout);
        }
        job.progress.store(1.0, std::memory_order_relaxed);
    } catch (const std::exception& e) {
        job.error = e.what();
    }
}

std::shared_ptr<const graph::LeanIngest> Server::load_graph(
    const JobRequest& r, std::uint64_t fp) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto it = graphs_.find(fp); it != graphs_.end()) {
            return it->second;
        }
    }
    // Parse outside the lock: two workers may race to load the same graph;
    // the duplicate parse is wasted work, not a correctness problem, and
    // blocking every submit/status behind a whole-genome parse would be
    // worse.
    auto ingest = std::make_shared<graph::LeanIngest>(
        io::load_graph_file(r.graph));  // .pgg auto-detected by extension
    std::lock_guard<std::mutex> lock(mutex_);
    if (graphs_.emplace(fp, ingest).second) {
        graph_order_.push_back(fp);
        while (graph_order_.size() > opt_.graph_cache_entries) {
            graphs_.erase(graph_order_.front());
            graph_order_.pop_front();
        }
    }
    return ingest;
}

core::Layout Server::run_job(Job& job) {
    const JobRequest& r = job.request;

    // The same driver pipeline `pgl_layout` runs, fed the daemon's cached
    // ingest (the driver copies the labels it needs; the shared entry
    // stays intact for the next job) and no output paths — the artifact
    // cache publishes the layout under the job's canonical key instead.
    driver::RunRequest req;
    static_cast<core::LayoutRequest&>(req) = r;
    req.ingest = load_graph(r, job.graph_fp);
    req.config.cancel = job.cancel_flag;
    req.component_progress = [&job](const partition::ComponentProgress& p) {
        job.progress.store(
            p.total ? static_cast<double>(p.completed) / p.total : 1.0,
            std::memory_order_relaxed);
    };
    req.iteration_progress = [&job](const core::IterationStats& s) {
        job.progress.store(
            s.iter_max ? static_cast<double>(s.iteration + 1) / s.iter_max
                       : 1.0,
            std::memory_order_relaxed);
    };
    return driver::run_layout(req).layout;
}

}  // namespace pgl::serve

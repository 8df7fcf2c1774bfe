// serve-mix: a serve::Daemon on a unix socket, fed by one open-loop
// generator on a seeded arrival schedule and drained by one waiter; each
// session ends with a closed-loop burst that measures the daemon's
// throughput. The end-to-end pass splits its seconds over several such
// sessions, each in a fresh process with its own daemon and cache.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "graph/gfa.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "rng/xoshiro256.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "trace.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

using namespace pgl;

namespace {

/// The mix shares are assumptions, not taken from recorded traffic: some
/// requests repeat a finished layout (a viewer reloading it), and some new
/// requests arrive twice while the first is still running (a client retry).
struct ServeParams {
    double mhc_scale = 0.004;     ///< the GFA graph: mhc_spec(mhc_scale)
    std::uint32_t iters = 3;      ///< engine iterations per job
    double factor = 3.0;          ///< updates per iteration / total path steps
    std::uint32_t workers = 2;    ///< daemon job workers
    /// Submits per second (Poisson arrivals). The mix offers 1.14 jobs per
    /// arrival, so 16/s offers about 18 jobs/s: a fifth of the burst
    /// throughput (jobs_per_s, 70-95/s) the daemon reaches on a 4-core
    /// host, where its queue waits stay far below a job's run time.
    double rate = 16.0;
    double p_repeat = 0.3;        ///< repeat of a completed key (cache hit)
    double p_dup = 0.2;           ///< a new key's in-flight duplicate (dedup)
    /// A new key targets the (larger) GFA graph; kept well away from 0.5 so
    /// the latency median and p90 each sit inside one graph's cluster.
    double p_gfa = 0.3;
    double repeat_age_s = 0.5;    ///< a repeated key was due at least this long ago
    /// Jobs of the closed-loop burst that ends each session, in the same
    /// mix, sent back to back once every open-loop job has settled.
    std::uint32_t burst_jobs = 64;
    /// Seconds of each session's share of the run left to its burst, about
    /// what burst_jobs take on a 4-core host.
    double burst_s = 0.8;
    /// The run's seconds split over fresh daemon processes. One process
    /// runs every job up to 1.5x slower or faster than the next, so the
    /// pooled latencies and burst rates need many of them.
    int sessions = 12;
};

ServeParams serve_params(const Options& opt) {
    ServeParams p;
    if (opt.toy) {
        p.mhc_scale = 0.002;
        p.iters = 2;
        p.rate = 20.0;
        p.repeat_age_s = 0.3;
        p.burst_jobs = 12;
        p.burst_s = 0.0;
        p.sessions = 2;
    }
    return p;
}

struct JobPlan {
    std::string graph;
    std::uint64_t seed = 0;  ///< config seed: one cache key per (graph, seed)
    double due_s = 0.0;      ///< a burst job's is the burst's start
    bool burst = false;      ///< part of the closed-loop burst
};

struct JobRecord {
    JobPlan plan;
    double sent_s = 0.0, reply_s = 0.0;
    bool submitted = false;
    std::uint64_t id = 0;
    std::string state;
    bool cached = false;  ///< completed without running an engine
    double queue_s = 0.0, run_s = 0.0;
    std::string artifact;

    bool done() const { return submitted && state == "done"; }
    /// From due time to the terminal state: the submit reply arrives
    /// after the daemon's submit clock starts, and queue + run seconds
    /// are measured from that clock.
    double terminal_s() const { return reply_s + queue_s + run_s; }
    double latency_s() const { return terminal_s() - plan.due_s; }
};

/// A long-lived client connection: one request line out, one reply line
/// back, in order.
class Connection {
public:
    explicit Connection(const std::string& path) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            if (fd_ >= 0) ::close(fd_);
            throw std::runtime_error("cannot connect to " + path);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    std::string request(const std::string& line) {
        const std::string out = line + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
            const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("send failed");
            off += static_cast<std::size_t>(n);
        }
        std::size_t pos;
        while ((pos = buf_.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("daemon closed the connection");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
        std::string reply = buf_.substr(0, pos);
        buf_.erase(0, pos + 1);
        return reply;
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// A serve::Daemon running on its own thread for the life of the object.
class DaemonThread {
public:
    DaemonThread(const std::string& socket, const std::string& cache_dir,
                 std::uint32_t workers)
        : socket_(socket), daemon_(make_options(socket, cache_dir, workers)) {
        thread_ = std::thread([this] {
            try {
                daemon_.run();
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mutex_);
                error_ = e.what();
            }
        });
        const auto t0 = Clock::now();
        for (;;) {
            try {
                serve::send_request(socket_, "{\"cmd\":\"ping\"}");
                return;
            } catch (const std::exception&) {
            }
            bool failed = false;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                failed = !error_.empty();
            }
            if (failed || seconds_since(t0) > 10.0) {
                stop();
                throw std::runtime_error("daemon did not start");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    ~DaemonThread() { stop(); }
    DaemonThread(const DaemonThread&) = delete;
    DaemonThread& operator=(const DaemonThread&) = delete;

    const std::string& socket() const { return socket_; }

    void stop() {
        if (!thread_.joinable()) return;
        daemon_.stop();
        thread_.join();
    }

private:
    static serve::DaemonOptions make_options(const std::string& socket,
                                             const std::string& cache_dir,
                                             std::uint32_t workers) {
        serve::DaemonOptions o;
        o.socket_path = socket;
        o.server.cache_dir = cache_dir;
        o.server.workers = workers;
        return o;
    }

    std::string socket_;
    serve::Daemon daemon_;
    std::mutex mutex_;
    std::string error_;  ///< guarded by mutex_
    std::thread thread_;
};

serve::JobRequest job_request(const std::string& graph, const core::LayoutConfig& cfg,
                              const std::string& backend, std::uint64_t seed) {
    serve::JobRequest r;
    r.graph = graph;
    r.backend = backend;
    r.config = cfg;
    r.config.seed = seed;
    return r;
}

std::string submit_line(const serve::JobRequest& r) {
    serve::JsonObject o = serve::request_to_json(r).as_object();
    o["cmd"] = serve::JsonValue("submit");
    return serve::JsonValue(std::move(o)).dump();
}

void read_status(const std::string& reply, JobRecord& j) {
    const serve::JsonValue v = serve::json_parse(reply);
    const serve::JsonValue* ok = v.find("ok");
    if (!ok || !ok->as_bool()) {
        const serve::JsonValue* err = v.find("error");
        throw std::runtime_error(err ? err->as_string() : reply);
    }
    j.id = v.find("id")->as_uint();
    j.state = v.find("state")->as_string();
    j.cached = v.find("cached")->as_bool();
    j.queue_s = v.find("queue_seconds")->as_double();
    j.run_s = v.find("run_seconds")->as_double();
    if (const serve::JsonValue* a = v.find("artifact")) j.artifact = a->as_string();
}

struct SessionSpec {
    std::string dir;  ///< socket and cache live here
    std::vector<std::string> graphs;  ///< one warm-up job each
    core::LayoutConfig cfg;
    std::string backend;
    std::uint32_t workers = 2;
    std::vector<JobPlan> schedule;  ///< empty: set-up only
};

struct SessionResult {
    double setup_s = 0.0;
    std::vector<JobRecord> jobs;
    double vm_growth_mb = 0.0;
    std::uint64_t submitted = 0, cache_hits = 0, dedup_joins = 0;
};

/// Starts a daemon on a fresh cache, runs one warm-up job per graph (the
/// set-up), then plays the schedule: the generator submits each open-loop
/// job at its due time over a new connection, as a command-line client
/// does, and the burst jobs back to back once every earlier job has
/// settled; the waiter collects the jobs in submission order with
/// `result` + `wait` over one long-lived connection.
SessionResult run_session(const SessionSpec& s) {
    std::filesystem::remove_all(s.dir);
    std::filesystem::create_directories(s.dir);
    SessionResult out;
    const auto t_setup = Clock::now();
    DaemonThread daemon(s.dir + "/d.sock", s.dir + "/cache", s.workers);
    {
        Connection waiter(daemon.socket());
        for (std::size_t g = 0; g < s.graphs.size(); ++g) {
            JobRecord w;
            read_status(serve::send_request(daemon.socket(),
                                            submit_line(job_request(s.graphs[g], s.cfg,
                                                                    s.backend, 1 + g))),
                        w);
            read_status(waiter.request("{\"cmd\":\"result\",\"id\":" +
                                       std::to_string(w.id) + ",\"wait\":true}"),
                        w);
            if (w.state != "done") throw std::runtime_error("warm-up job " + w.state);
        }
    }
    out.setup_s = seconds_since(t_setup);
    if (s.schedule.empty()) return out;

    std::vector<std::string> lines;
    for (const JobPlan& p : s.schedule) {
        lines.push_back(submit_line(job_request(p.graph, s.cfg, s.backend, p.seed)));
    }
    out.jobs.resize(s.schedule.size());
    const double vm0 = vm_size_mb();

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> ready;  ///< submitted jobs, guarded by mutex
    std::size_t settled = 0;        ///< jobs collected or refused, guarded by mutex
    bool generator_done = false;    ///< guarded by mutex
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto since_start = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    std::thread waiter_thread([&] {
        Connection waiter(daemon.socket());
        for (;;) {
            std::size_t k = 0;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !ready.empty() || generator_done; });
                if (ready.empty()) return;
                k = ready.front();
                ready.pop_front();
            }
            JobRecord& j = out.jobs[k];
            try {
                Span span("serve.result_wait");
                read_status(waiter.request("{\"cmd\":\"result\",\"id\":" +
                                           std::to_string(j.id) + ",\"wait\":true}"),
                            j);
            } catch (const std::exception& e) {
                note(std::string("result failed: ") + e.what());
                j.state = "error";
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                ++settled;
            }
            cv.notify_all();
        }
    });

    double burst_start = 0.0;
    for (std::size_t k = 0; k < s.schedule.size(); ++k) {
        JobRecord& j = out.jobs[k];
        j.plan = s.schedule[k];
        if (j.plan.burst) {
            if (k == 0 || !s.schedule[k - 1].burst) {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return settled == k; });
                burst_start = since_start();
            }
            j.plan.due_s = burst_start;
        } else {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(j.plan.due_s)));
        }
        j.sent_s = since_start();
        try {
            Span span("serve.submit");
            read_status(serve::send_request(daemon.socket(), lines[k]), j);
            j.submitted = true;
        } catch (const std::exception& e) {
            note(std::string("submit refused: ") + e.what());
        }
        j.reply_s = since_start();
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (j.submitted) {
                ready.push_back(k);
            } else {
                ++settled;
            }
        }
        cv.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        generator_done = true;
    }
    cv.notify_all();
    waiter_thread.join();
    out.vm_growth_mb = vm_size_mb() - vm0;

    const serve::JsonValue stats =
        serve::json_parse(serve::send_request(daemon.socket(), "{\"cmd\":\"stats\"}"));
    out.submitted = stats.find("submitted")->as_uint() - s.graphs.size();
    out.cache_hits = stats.find("cache_hits")->as_uint();
    out.dedup_joins = stats.find("dedup_joins")->as_uint();
    daemon.stop();

    // Each job as one span from its due time to its terminal state.
    if (Tracer::instance().enabled()) {
        const std::uint64_t base = now_ns() - static_cast<std::uint64_t>(since_start() * 1e9);
        for (const JobRecord& j : out.jobs) {
            SpanRecord r;
            r.name = "serve.job";
            r.id = Tracer::instance().next_id();
            r.op = r.id;
            r.tid = 0;
            r.start_ns = base + static_cast<std::uint64_t>(j.plan.due_s * 1e9);
            r.end_ns = base + static_cast<std::uint64_t>(std::max(j.terminal_s(), j.plan.due_s) * 1e9);
            Tracer::instance().record(std::move(r));
        }
    }
    return out;
}

/// run_session in a fresh child process; the report comes back as text.
SessionResult run_session_in_child(const SessionSpec& s, double* rss_mb) {
    std::istringstream in(run_in_child(
        [&] {
            const SessionResult r = run_session(s);
            std::ostringstream os;
            os.precision(17);
            os << r.setup_s << ' ' << r.vm_growth_mb << ' ' << r.submitted << ' '
               << r.cache_hits << ' ' << r.dedup_joins << '\n';
            for (const JobRecord& j : r.jobs) {
                os << j.plan.due_s << ' ' << j.sent_s << ' ' << j.reply_s << ' '
                   << j.submitted << ' ' << (j.state.empty() ? "-" : j.state) << ' '
                   << j.cached << ' ' << j.queue_s << ' ' << j.run_s << ' '
                   << (j.artifact.empty() ? "-" : j.artifact) << '\n';
            }
            return os.str();
        },
        rss_mb));
    SessionResult r;
    in >> r.setup_s >> r.vm_growth_mb >> r.submitted >> r.cache_hits >> r.dedup_joins;
    r.jobs.resize(s.schedule.size());
    for (std::size_t k = 0; k < s.schedule.size(); ++k) {
        JobRecord& j = r.jobs[k];
        j.plan = s.schedule[k];
        in >> j.plan.due_s >> j.sent_s >> j.reply_s >> j.submitted >> j.state >> j.cached >>
            j.queue_s >> j.run_s >> j.artifact;
        if (j.artifact == "-") j.artifact.clear();
    }
    if (!in) throw std::runtime_error("malformed session report");
    return r;
}

/// Open-loop Poisson arrivals over [0, seconds): new keys on either graph
/// (a share of them followed 2 ms later by a duplicate while in flight),
/// and repeats of keys due at least repeat_age_s earlier. Then the burst:
/// burst_jobs more in the same mix, whose repeats draw on the open-loop
/// keys, all finished by the time the burst starts.
std::vector<JobPlan> mix_schedule(const ServeParams& p, std::uint64_t seed, double seconds,
                                  const std::string& pgg, const std::string& gfa) {
    rng::Xoshiro256Plus rng(seed ^ 0x5e7e5e7eULL);
    std::vector<JobPlan> plan, news;
    std::uint64_t next_seed = 1000;
    // A new key at `t` and maybe its duplicate; returns the last due time.
    const auto add_new = [&](double t, bool burst) {
        JobPlan n{rng.next_double() < p.p_gfa ? gfa : pgg, next_seed++, t, burst};
        plan.push_back(n);
        if (!burst) news.push_back(n);
        if (rng.next_double() < p.p_dup) {
            n.due_s = t + 0.002;
            plan.push_back(n);
        }
        return plan.back().due_s;
    };
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.next_double()) / p.rate;
        if (t >= seconds) break;
        std::size_t old = 0;
        while (old < news.size() && news[old].due_s <= t - p.repeat_age_s) ++old;
        if (old > 0 && rng.next_double() < p.p_repeat) {
            JobPlan r = news[rng.next_bounded(old)];
            r.due_s = t;
            plan.push_back(r);
            continue;
        }
        t = add_new(t, false);
    }
    const std::size_t open = plan.size();
    while (plan.size() < open + p.burst_jobs) {
        if (!news.empty() && rng.next_double() < p.p_repeat) {
            JobPlan r = news[rng.next_bounded(news.size())];
            r.burst = true;
            plan.push_back(r);
        } else {
            add_new(seconds, true);
        }
    }
    return plan;
}

/// The per-layer view of a finished session's open-loop jobs.
void serve_layer_metrics(const SessionResult& r, std::uint32_t workers, Metrics& m) {
    std::vector<double> rtt, queue, run, late;
    double busy = 0.0, first_due = 1e300, last_done = 0.0;
    for (const JobRecord& j : r.jobs) {
        if (j.plan.burst) continue;
        rtt.push_back((j.reply_s - j.sent_s) * 1e3);
        late.push_back((j.sent_s - j.plan.due_s) * 1e3);
        first_due = std::min(first_due, j.plan.due_s);
        if (j.done()) last_done = std::max(last_done, j.terminal_s());
        if (j.done() && !j.cached) {
            queue.push_back(j.queue_s);
            run.push_back(j.run_s);
            busy += j.run_s;
        }
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(r.submitted, 1));
    m.set("serve.submit_rtt_ms", median(rtt), "ms");
    m.set("serve.queue_p50_s", quantile(queue, 0.5), "s");
    m.set("serve.queue_p90_s", quantile(queue, 0.9), "s");
    m.set("serve.run_p50_s", quantile(run, 0.5), "s");
    m.set("serve.busy_frac",
          last_done > first_due ? busy / (workers * (last_done - first_due)) : 0.0, "1");
    m.set("serve.cache_hit_frac", static_cast<double>(r.cache_hits) / n, "1");
    m.set("serve.dedup_frac", static_cast<double>(r.dedup_joins) / n, "1");
    m.set("serve.vm_growth_mb", r.vm_growth_mb, "MB");
    m.set("bench.gen_late_p90_ms", quantile(late, 0.9), "ms");
}

/// Due-to-terminal latency of each open-loop job.
std::vector<double> latencies(const SessionResult& r, double session_s) {
    std::vector<double> lat;
    for (const JobRecord& j : r.jobs) {
        if (j.plan.burst) continue;
        // A refused or failed job counts as missing any latency limit.
        lat.push_back(j.done() ? j.latency_s() : session_s);
    }
    return lat;
}

/// Mean queue wait of the computed open-loop jobs due in the first and in
/// the last third of the schedule: a growing backlog shows as the second
/// well above the first.
std::pair<double, double> queue_trend(const SessionResult& r) {
    double end = 0.0;
    for (const JobRecord& j : r.jobs) {
        if (!j.plan.burst) end = std::max(end, j.plan.due_s);
    }
    double sum[2] = {0.0, 0.0};
    int n[2] = {0, 0};
    for (const JobRecord& j : r.jobs) {
        if (j.plan.burst || !j.done() || j.cached) continue;
        const int third = j.plan.due_s < end / 3 ? 0 : j.plan.due_s >= 2 * end / 3 ? 1 : -1;
        if (third < 0) continue;
        sum[third] += j.queue_s;
        ++n[third];
    }
    return {n[0] ? sum[0] / n[0] : 0.0, n[1] ? sum[1] / n[1] : 0.0};
}

}  // namespace

void probe_serve(const std::string& graph, const core::LayoutConfig& cfg,
                 const std::string& backend, const std::string& dir, Metrics& m) {
    SessionSpec s;
    s.dir = dir;
    s.cfg = cfg;
    s.backend = backend;
    // Four new keys, a duplicate of the first while it runs, and two
    // repeats once the first keys have completed.
    for (int k = 0; k < 4; ++k) s.schedule.push_back({graph, 100u + k, 0.01 * k});
    s.schedule.push_back({graph, 100, 0.005});
    s.schedule.push_back({graph, 100, 3.0});
    s.schedule.push_back({graph, 101, 3.01});
    std::sort(s.schedule.begin(), s.schedule.end(),
              [](const JobPlan& a, const JobPlan& b) { return a.due_s < b.due_s; });
    serve_layer_metrics(run_session(s), s.workers, m);
}

Outcome run_serve_workload(const Options& opt) {
    const ServeParams p = serve_params(opt);
    const std::string pgg = opt.work_dir + "/hla_drb1.pgg";
    const std::string gfa = opt.work_dir + "/mhc.gfa";
    run_in_child([&] {
        auto hla = workloads::hla_drb1_spec();
        hla.seed = opt.seed;
        io::write_pgg_file(io::load_graph_file([&] {
                               const std::string tmp = opt.work_dir + "/hla.gfa";
                               graph::write_gfa_file(workloads::generate_pangenome(hla), tmp);
                               return tmp;
                           }()),
                           pgg);
        std::filesystem::remove(opt.work_dir + "/hla.gfa");
        auto mhc = workloads::mhc_spec(p.mhc_scale);
        mhc.seed = opt.seed + 1;
        graph::write_gfa_file(workloads::generate_pangenome(mhc), gfa);
        return std::string();
    });

    core::LayoutConfig cfg;
    cfg.iter_max = p.iters;
    cfg.steps_per_iter_factor = p.factor;
    cfg.threads = 1;
    const std::string backend = "cpu-pipelined";

    SessionSpec s;
    s.cfg = cfg;
    s.backend = backend;
    s.workers = p.workers;
    s.graphs = {pgg, gfa};

    Outcome o;
    Metrics& m = o.metrics;
    if (opt.trace) {
        // Untraced and traced halves for the tracing overhead.
        const double half = std::max(1.0, opt.seconds / 2);
        s.schedule = mix_schedule(p, opt.seed, half, pgg, gfa);
        s.dir = opt.work_dir + "/plain";
        Tracer::instance().set_enabled(false);
        const double plain = median(latencies(run_session(s), half));
        Tracer::instance().set_enabled(true);
        s.dir = opt.work_dir + "/traced";
        const SessionResult r = run_session(s);
        for (const JobRecord& j : r.jobs) o.count(j.done());
        serve_layer_metrics(r, p.workers, m);
        m.set("bench.trace_overhead_frac", median(latencies(r, half)) / plain - 1.0, "1");

        // The other layers on this workload's own inputs.
        probe_ingest(gfa, pgg, m);
        const graph::LeanIngest g = io::load_graph_file(gfa);
        driver::RunRequest req;
        req.graph_path = gfa;
        req.out_path = opt.work_dir + "/probe.lay";
        req.backend = backend;
        req.config = cfg;
        driver::run_layout(req);
        const core::Layout layout = io::read_layout_file(req.out_path);
        probe_lay_write(layout, opt.work_dir + "/probe_write.lay", m);
        layout_breakdown(req, m);
        driver::RunRequest ml = req;
        ml.out_path = opt.work_dir + "/probe_ml.lay";
        ml.partition = true;
        ml.multilevel = true;
        ml.component_workers = 2;
        Metrics pm;
        layout_breakdown(ml, pm);
        for (const Metric& x : pm.items()) {
            if (!m.has(x.name)) m.set(x.name, x.value, x.unit);
        }
        probe_sampling_and_kernels(g.graph, cfg, opt.toy, m);
        probe_memory(16 * g.graph.total_path_steps(), opt.toy, m);
        probe_pool(m);
        probe_engine(g.graph, backend, cfg, 0, m);
        layout_stress(g.graph, layout, &m);
        return o;
    }

    // The mix runs as several shorter sessions, each in a fresh process
    // with its own daemon and cache, so no one process's memory placement
    // decides the run; twenty more sessions only set up. Every session's
    // set-up is a sample of setup_s.
    std::vector<double> setup, lat;
    std::vector<JobRecord> jobs;
    double rss = 0.0, burst_span = 0.0;
    std::uint64_t hits = 0, joins = 0, burst_done = 0;
    const double open_s = std::max(opt.seconds / p.sessions - p.burst_s, 1.0);
    for (int k = 0; k < p.sessions + 20; ++k) {
        s.dir = opt.work_dir + "/session" + std::to_string(k);
        s.schedule.clear();
        if (k < p.sessions) s.schedule = mix_schedule(p, opt.seed * 64 + k, open_s, pgg, gfa);
        double session_rss = 0.0;
        const SessionResult r = run_session_in_child(s, &session_rss);
        setup.push_back(r.setup_s);
        rss = std::max(rss, session_rss);
        hits += r.cache_hits;
        joins += r.dedup_joins;
        if (r.jobs.empty()) continue;
        const std::vector<double> l = latencies(r, opt.seconds);
        lat.insert(lat.end(), l.begin(), l.end());
        // The burst's completed jobs over burst start to last terminal state.
        double burst_start = 0.0, last_done = 0.0;
        for (const JobRecord& j : r.jobs) {
            if (!j.plan.burst) continue;
            burst_start = j.plan.due_s;
            if (!j.done()) continue;
            ++burst_done;
            last_done = std::max(last_done, j.terminal_s());
        }
        burst_span += std::max(last_done - burst_start, 0.0);
        Metrics sm;
        serve_layer_metrics(r, p.workers, sm);
        const auto [first, last] = queue_trend(r);
        note("session " + std::to_string(k) + ": busy_frac " +
             std::to_string(sm.get("serve.busy_frac")) + ", mean queue wait first/last third " +
             std::to_string(first * 1e3) + "/" + std::to_string(last * 1e3) + " ms, p90 " +
             std::to_string(quantile(l, 0.9)) + " s, burst " +
             std::to_string(last_done - burst_start) + " s, run p50 " +
             std::to_string(sm.get("serve.run_p50_s")) + " s");
        jobs.insert(jobs.end(), r.jobs.begin(), r.jobs.end());
    }

    double run_total = 0.0;
    std::vector<double> ran;
    std::vector<const JobRecord*> ran_jobs;
    for (const JobRecord& j : jobs) {
        o.count(j.done());
        if (j.done() && !j.cached && !j.plan.burst) {
            ran.push_back(j.run_s);
            run_total += j.run_s;
            ran_jobs.push_back(&j);
        }
    }

    // Correctness: a seeded sample of one computed key per graph must be
    // byte-identical to a direct run_layout of the same request, which
    // also gives each graph's update count.
    rng::Xoshiro256Plus pick(opt.seed);
    double updates = 0.0;
    for (const std::string& graph : {pgg, gfa}) {
        std::vector<const JobRecord*> on_graph;
        for (const JobRecord* j : ran_jobs) {
            if (j->plan.graph == graph) on_graph.push_back(j);
        }
        if (on_graph.empty()) continue;
        const JobRecord& j = *on_graph[pick.next_bounded(on_graph.size())];
        driver::RunRequest req;
        req.graph_path = graph;
        req.out_path = opt.work_dir + "/direct.lay";
        req.backend = backend;
        req.config = cfg;
        req.config.seed = j.plan.seed;
        bool ok = false;
        try {
            const driver::RunOutcome direct = driver::run_layout(req);
            ok = same_bytes(req.out_path, j.artifact);
            updates += static_cast<double>(direct.updates) *
                       static_cast<double>(on_graph.size());
        } catch (const std::exception& e) {
            note(std::string("direct run failed: ") + e.what());
        }
        if (!ok) note("artifact of " + graph + " differs from a direct run");
        o.count(ok);
    }

    m.set("layout_s", median(ran), "s");
    m.set("updates_per_s", run_total > 0 ? updates / run_total : 0.0, "1/s");
    m.set("jobs_per_s", burst_span > 0 ? static_cast<double>(burst_done) / burst_span : 0.0,
          "1/s");
    m.set("job_p50_s", quantile(lat, 0.5), "s");
    m.set("job_p90_s", quantile(lat, 0.9), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("setup_s", median(setup), "s");
    note("jobs " + std::to_string(jobs.size()) + " (" + std::to_string(ran.size()) +
         " computed open-loop, " + std::to_string(hits) + " hits, " + std::to_string(joins) +
         " joins, " + std::to_string(burst_done) + " burst)");
    return o;
}

}  // namespace perfbench

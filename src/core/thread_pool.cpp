#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#if defined(__linux__)
#include <sched.h>
#endif

namespace pgl::core {

std::vector<std::uint32_t> allowed_cpus_self() {
    std::vector<std::uint32_t> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (std::uint32_t c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
        }
    }
#endif
    if (cpus.empty()) {
        const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
        for (std::uint32_t c = 0; c < hc; ++c) cpus.push_back(c);
    }
    return cpus;
}

ThreadPool::ThreadPool(std::uint32_t n_threads)
    : dispatches_(telemetry::Registry::instance().counter("pool.dispatches")),
      dispatch_wait_(
          telemetry::Registry::instance().histogram("pool.dispatch_wait_ns")),
      barrier_wait_(
          telemetry::Registry::instance().histogram("pool.barrier_wait_ns")) {
    workers_.reserve(n_threads);
    for (std::uint32_t tid = 0; tid < n_threads; ++tid) {
        workers_.emplace_back([this, tid] { worker_loop(tid); });
    }
}

void ThreadPool::worker_loop(std::uint32_t tid) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] {
            return stopping_ || generation_ != seen_generation;
        });
        if (stopping_) return;
        seen_generation = generation_;
        dispatch_wait_.record(telemetry::now_ns() - launch_ns_);
        // job_ stays untouched until every worker checks in below, so
        // reading it by reference outside the lock is safe.
        const Job& job = job_;
        lock.unlock();

        job(tid);

        lock.lock();
        if (--remaining_ == 0) {
            in_flight_ = false;
            lock.unlock();
            cv_done_.notify_all();
        } else {
            lock.unlock();
        }
        spin_for_dispatch(seen_generation);
    }
}

void ThreadPool::spin_for_dispatch(std::uint64_t seen) const noexcept {
    const auto until = std::chrono::steady_clock::now() + kDispatchSpin;
    while (posted_.load(std::memory_order_relaxed) == seen &&
           std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
    }
}

ThreadPool::~ThreadPool() {
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    posted_.fetch_add(1, std::memory_order_relaxed);  // ends every poll now
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::launch(Job job) {
    if (workers_.empty()) {
        job(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = std::move(job);
        remaining_ = size();
        in_flight_ = true;
        ++generation_;
        posted_.store(generation_, std::memory_order_relaxed);
        launch_ns_ = telemetry::now_ns();
    }
    dispatches_.add(1);
    cv_work_.notify_all();
}

void ThreadPool::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!in_flight_) return;
    const std::uint64_t t0 = telemetry::now_ns();
    cv_done_.wait(lock, [this] { return !in_flight_; });
    barrier_wait_.record(telemetry::now_ns() - t0);
}

}  // namespace pgl::core

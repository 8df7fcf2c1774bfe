#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const Metric& m) { return m.name == name; });
}

double Metrics::get(const std::string& name) const {
    for (const Metric& m : items_) {
        if (m.name == name) return m.value;
    }
    return 0.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool same_bytes(const std::string& a, const std::string& b) {
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    if (!fa || !fb) return false;
    return std::equal(std::istreambuf_iterator<char>(fa), std::istreambuf_iterator<char>(),
                      std::istreambuf_iterator<char>(fb), std::istreambuf_iterator<char>());
}

double file_mb(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<double>(in.tellg()) / 1e6 : 0.0;
}

double vm_size_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmSize:", 0) == 0) {
            return std::strtod(line.c_str() + 7, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

std::string run_in_child(const std::function<std::string()>& fn, double* peak_rss_mb) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        close(fds[0]);
        int code = 0;
        try {
            const std::string out = fn();
            std::size_t off = 0;
            while (off < out.size()) {
                const ssize_t n = write(fds[1], out.data() + off, out.size() - off);
                if (n <= 0) break;
                off += static_cast<std::size_t>(n);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: child failed: %s\n", e.what());
            code = 1;
        }
        close(fds[1]);
        _exit(code);
    }
    close(fds[1]);
    std::string payload;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        payload.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (peak_rss_mb) *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("child process failed");
    }
    return payload;
}

void note(const std::string& line) { std::cerr << "perfbench: " << line << "\n"; }

}  // namespace perfbench

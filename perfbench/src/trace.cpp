#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t t_open_span = 0;
thread_local std::uint64_t t_open_op = 0;

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

Tracer& Tracer::instance() {
    static Tracer t;
    return t;
}

void Tracer::record(SpanRecord r) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(r));
}

std::vector<SpanRecord> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans()) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"name\":\"" << json_escape(s.name)
            << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write on trace " + path);
}

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t new_op() { return Tracer::instance().next_id(); }

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid = next.fetch_add(1);
    return tid;
}

Span::Span(std::string name)
    : Span(std::move(name), t_open_span, t_open_op ? t_open_op : new_op()) {
    scoped_ = true;
    saved_parent_ = t_open_span;
    saved_op_ = t_open_op;
    t_open_span = rec_.id;
    t_open_op = rec_.op;
}

Span::Span(std::string name, std::uint64_t parent, std::uint64_t op) {
    rec_.name = std::move(name);
    rec_.id = Tracer::instance().next_id();
    rec_.parent = parent;
    rec_.op = op;
    rec_.tid = thread_index();
    rec_.start_ns = now_ns();
}

double Span::close() {
    if (!open_) return seconds_;
    open_ = false;
    rec_.end_ns = now_ns();
    seconds_ = rec_.seconds();
    if (scoped_) {
        t_open_span = saved_parent_;
        t_open_op = saved_op_;
    }
    if (Tracer::instance().enabled()) Tracer::instance().record(std::move(rec_));
    return seconds_;
}

double self_seconds(const std::vector<SpanRecord>& spans, const SpanRecord& s) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const SpanRecord& r : spans) {
        if (r.parent != s.id) continue;
        const std::uint64_t b = std::max(r.start_ns, s.start_ns);
        const std::uint64_t e = std::min(r.end_ns, s.end_ns);
        if (b < e) kids.emplace_back(b, e);
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [b, e] : kids) {
        const std::uint64_t from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
    }
    return static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
}

}  // namespace perfbench

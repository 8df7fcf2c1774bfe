#include "bench_common.hpp"

#include "core/kernels/update_kernel.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace pgl::bench {

BenchOptions BenchOptions::parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scale") {
            o.scale = std::atof(next());
        } else if (arg == "--iters") {
            o.iters = static_cast<std::uint32_t>(std::atoi(next()));
        } else if (arg == "--factor") {
            o.factor = std::atof(next());
        } else if (arg == "--threads") {
            o.threads = static_cast<std::uint32_t>(std::atoi(next()));
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--backend") {
            o.backend = next();
            if (!core::EngineRegistry::instance().contains(o.backend)) {
                std::cerr << "unknown backend " << o.backend << "; available:";
                for (const auto& n : core::EngineRegistry::instance().names()) {
                    std::cerr << " " << n;
                }
                std::cerr << "\n";
                std::exit(2);
            }
        } else if (arg == "--kernel") {
            o.kernel = next();
            if (!core::KernelRegistry::instance().contains(o.kernel)) {
                std::cerr << "unknown kernel " << o.kernel << "; available:";
                for (const auto& n : core::KernelRegistry::instance().names()) {
                    std::cerr << " " << n;
                }
                std::cerr << "\n";
                std::exit(2);
            }
        } else if (arg == "--json") {
            o.json_path = next();
        } else if (arg == "--input") {
            o.input_path = next();
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --scale F --iters N --factor F --threads N"
                         " --seed N --quick --backend NAME --kernel NAME"
                         " --json FILE --input FILE\n";
            std::cout << "backends:";
            for (const auto& n : core::EngineRegistry::instance().names()) {
                std::cout << " " << n;
            }
            std::cout << "\nkernels:";
            for (const auto& n : core::KernelRegistry::instance().names()) {
                std::cout << " " << n;
            }
            std::cout << "\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option " << arg << "\n";
            std::exit(2);
        }
    }
    if (o.quick) {
        o.scale = std::min(o.scale, 0.001);
        o.iters = std::min<std::uint32_t>(o.iters, 4);
        o.factor = std::min(o.factor, 0.5);
    }
    return o;
}

core::LayoutConfig BenchOptions::layout_config() const {
    core::LayoutConfig cfg;
    cfg.iter_max = iters;
    cfg.steps_per_iter_factor = factor;
    cfg.threads = threads;
    cfg.seed = seed;
    cfg.kernel = kernel;
    return cfg;
}

core::LayoutResult run_backend(const std::string& backend,
                               const graph::LeanGraph& g,
                               const core::LayoutConfig& cfg) {
    auto engine = core::EngineRegistry::instance().create(backend);
    if (!engine) {
        std::cerr << "unknown backend " << backend << "\n";
        std::exit(2);
    }
    engine->init(g, cfg);
    return engine->run();
}

BenchRecord make_record(const BenchOptions& opt, std::string bench,
                        std::string backend, const core::LayoutResult& r) {
    BenchRecord rec;
    rec.bench = std::move(bench);
    rec.backend = std::move(backend);
    rec.scale = opt.scale;
    rec.iters = opt.iters;
    rec.threads = opt.threads;
    rec.seconds = r.seconds;
    rec.updates_per_sec =
        r.seconds > 0.0 ? static_cast<double>(r.updates) / r.seconds : 0.0;
    return rec;
}

namespace {

/// Minimal JSON string escaping — record fields are plain identifiers, but
/// a hand-written path or label must not corrupt the file.
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

}  // namespace

void JsonReporter::add(BenchRecord record) {
    if (!enabled()) return;
    records_.push_back(std::move(record));
}

void JsonReporter::write() {
    if (!enabled() || written_) return;
    std::ofstream os(path_);
    if (!os) {
        std::cerr << "cannot write " << path_ << "\n";
        std::exit(2);
    }
    os << std::setprecision(12);
    os << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const BenchRecord& r = records_[i];
        os << "  {\"bench\": \"" << json_escape(r.bench) << "\", \"backend\": \""
           << json_escape(r.backend) << "\", \"scale\": " << r.scale
           << ", \"iters\": " << r.iters << ", \"threads\": " << r.threads
           << ", \"seconds\": " << r.seconds
           << ", \"updates_per_sec\": " << r.updates_per_sec;
        if (!r.direction.empty()) {
            os << ", \"value\": " << r.value << ", \"direction\": \""
               << json_escape(r.direction) << "\"";
        }
        if (!r.stages.empty()) {
            os << ", \"stages\": {";
            for (std::size_t s = 0; s < r.stages.size(); ++s) {
                os << "\"" << json_escape(r.stages[s].first)
                   << "\": " << r.stages[s].second
                   << (s + 1 < r.stages.size() ? ", " : "");
            }
            os << "}";
        }
        if (!r.telemetry.empty()) {
            os << ", \"telemetry\": {";
            for (std::size_t s = 0; s < r.telemetry.size(); ++s) {
                os << "\"" << json_escape(r.telemetry[s].first)
                   << "\": " << r.telemetry[s].second
                   << (s + 1 < r.telemetry.size() ? ", " : "");
            }
            os << "}";
        }
        os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "]\n";
    os.flush();
    os.close();
    if (os.fail()) {
        std::cerr << "failed writing " << path_ << "\n";
        std::exit(2);
    }
    written_ = true;
    std::cerr << "wrote " << records_.size() << " bench records to " << path_
              << "\n";
}

TablePrinter::TablePrinter(std::vector<std::string> headers, std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {}

void TablePrinter::print_header(std::ostream& os) const {
    std::size_t total = 0;
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::left << std::setw(widths_[c]) << headers_[c];
        total += static_cast<std::size_t>(widths_[c]);
    }
    os << '\n' << std::string(total, '-') << '\n';
}

void TablePrinter::print_row(std::ostream& os,
                             const std::vector<std::string>& cells) const {
    for (std::size_t c = 0; c < cells.size() && c < widths_.size(); ++c) {
        os << std::left << std::setw(widths_[c]) << cells[c];
    }
    os << '\n';
}

std::string format_hms(double seconds) {
    if (seconds < 0) seconds = 0;
    const int total = static_cast<int>(seconds);
    const int h = total / 3600;
    const int m = (total / 60) % 60;
    const double s = seconds - h * 3600 - m * 60;
    char buf[64];
    if (h == 0 && m == 0 && s < 10.0) {
        std::snprintf(buf, sizeof buf, "0:00:%06.3f", s);
    } else {
        std::snprintf(buf, sizeof buf, "%d:%02d:%02d", h, m, static_cast<int>(s));
    }
    return buf;
}

std::string fmt(double v, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string fmt_sci(double v, int precision) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(precision) << v;
    return os.str();
}

double full_scale_updates(const graph::LeanGraph& scaled, double scale) {
    const double full_steps =
        static_cast<double>(scaled.total_path_steps()) / std::max(1e-12, scale);
    return 30.0 * 10.0 * full_steps;
}

graph::LeanGraph build_lean(const workloads::PangenomeSpec& spec, bool verbose) {
    const auto g = workloads::generate_pangenome(spec);
    if (verbose) {
        const auto s = g.stats();
        std::cout << "# " << spec.name << ": " << s.nodes << " nodes, " << s.edges
                  << " edges, " << s.paths << " paths, " << s.total_path_steps
                  << " total steps\n";
    }
    return workloads::to_ingest(g).graph;
}

}  // namespace pgl::bench

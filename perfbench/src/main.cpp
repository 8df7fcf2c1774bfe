// perfbench: runs one workload of the repository benchmark and prints its
// measurements as one JSON line. `python3 perfbench/run.py` builds this
// binary, runs it, checks the metrics against BENCHMARK.json and prints
// them; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work DIR [--trace-out FILE] [--toy]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--work") {
            o.work_dir = value();
        } else if (a == "--trace-out") {
            o.trace_path = value();
        } else if (a == "--toy") {
            o.toy = true;
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (o.workload.empty() || o.work_dir.empty()) {
        throw std::invalid_argument("--workload and --work are required");
    }
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return o;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options opt = parse(argc, argv);
        std::filesystem::create_directories(opt.work_dir);
        Tracer::instance().set_enabled(opt.trace);

        Outcome o;
        if (opt.workload == "wg-bp-ml") {
            o = run_layout_workload(opt);
        } else if (opt.workload == "serve-mix") {
            o = run_serve_workload(opt);
        } else {
            throw std::invalid_argument("unknown workload " + opt.workload);
        }
        if (opt.trace && !opt.trace_path.empty()) {
            Tracer::instance().write_chrome_json(opt.trace_path);
        }

        std::string line = "{\"attempted\":" + std::to_string(o.attempted) +
                           ",\"failed\":" + std::to_string(o.failed) + ",\"metrics\":{";
        bool first = true;
        for (const Metric& m : o.metrics.items()) {
            line += (first ? "\"" : ",\"") + m.name + "\":{\"value\":" + json_number(m.value) +
                    ",\"unit\":\"" + m.unit + "\"}";
            first = false;
        }
        line += "}}";
        std::cout << line << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}

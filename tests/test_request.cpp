// Tests for the layout request and its field table: the canonical_request
// strings of a spread of requests are pinned byte for byte, so no refactor
// of the request codecs can silently move a key (a moved key orphans every
// artifact a persistent daemon cache holds); every table row changes the
// key exactly when it selects bytes and round-trips through the wire JSON,
// the worker spec and its command-line flag; and every entry point rejects
// the same invalid requests.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "partition/executor.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

namespace {

using namespace pgl;

struct PinnedKey {
    const char* name;
    serve::JobRequest request;
    const char* key;
};

std::vector<PinnedKey> pinned_keys() {
    std::vector<PinnedKey> out;
    {
        serve::JobRequest r;
        out.push_back({"default", r,
                       "backend=cpu-soa;cooling_start=0.5;eps=0.01;eta_max=0;"
                       "init_jitter=1;iter_max=30;kernel=scalar;"
                       "schedule_iter_max=0;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;zipf_space_max=1000;"
                       "zipf_theta=0.99;partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.backend = "cpu-pipelined";
        r.config.kernel = "simd";
        r.config.threads = 4;
        r.config.seed = 42;
        r.config.iter_max = 7;
        out.push_back({"engine_knobs", r,
                       "backend=cpu-pipelined;cooling_start=0.5;eps=0.01;"
                       "eta_max=0;init_jitter=1;iter_max=7;kernel=simd;"
                       "schedule_iter_max=0;seed=42;steps_per_iter_factor=10;"
                       "threads=4;zipf_space_max=1000;zipf_theta=0.99;"
                       "partition=0;multilevel=0;"});
    }
    {
        // Execution-only knobs ride along and must not reach the key.
        serve::JobRequest r;
        r.partition = true;
        r.component_workers = 3;
        r.executor = "process";
        r.processes = 2;
        r.config.pin = true;
        r.config.numa = "interleave";
        out.push_back({"partition", r,
                       "backend=cpu-soa;cooling_start=0.5;eps=0.01;eta_max=0;"
                       "init_jitter=1;iter_max=30;kernel=scalar;"
                       "schedule_iter_max=0;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;zipf_space_max=1000;"
                       "zipf_theta=0.99;partition=1;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.multilevel = true;
        r.ml.levels = 2;
        r.ml.coarse_iters = 11;
        r.ml.refine_iters = 4;
        r.ml.refine_eta = 0.125;
        r.ml.exact_tail = true;
        out.push_back({"multilevel_every_field", r,
                       "backend=cpu-soa;cooling_start=0.5;eps=0.01;eta_max=0;"
                       "init_jitter=1;iter_max=30;kernel=scalar;"
                       "schedule_iter_max=0;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;zipf_space_max=1000;"
                       "zipf_theta=0.99;partition=0;multilevel=2;"
                       "ml.coarse_iters=11;ml.refine_iters=4;ml.refine_eta=0.125;"
                       "ml.exact_tail=1;"});
    }
    {
        // The ml.* options are not part of the key while multilevel is off.
        serve::JobRequest r;
        r.ml.levels = 3;
        r.ml.refine_iters = 9;
        r.ml.exact_tail = true;
        out.push_back({"multilevel_off", r,
                       "backend=cpu-soa;cooling_start=0.5;eps=0.01;eta_max=0;"
                       "init_jitter=1;iter_max=30;kernel=scalar;"
                       "schedule_iter_max=0;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;zipf_space_max=1000;"
                       "zipf_theta=0.99;partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.config.steps_per_iter_factor = 0.1;
        r.config.eps = 1.0 / 3.0;
        r.config.eta_max = 123.456;
        r.config.cooling_start = 0.3;
        r.config.zipf_theta = 1.5;
        r.config.init_jitter = 0.0;
        r.config.zipf_space_max = 5000;
        r.config.schedule_iter_max = 60;
        out.push_back({"schedule_floats", r,
                       "backend=cpu-soa;cooling_start=0.3;"
                       "eps=0.3333333333333333;eta_max=123.456;init_jitter=0;"
                       "iter_max=30;kernel=scalar;schedule_iter_max=60;"
                       "seed=9399220614123047;steps_per_iter_factor=0.1;"
                       "threads=1;zipf_space_max=5000;zipf_theta=1.5;"
                       "partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.config.steps_per_iter_factor = 1e-7;
        r.config.eta_max = 1e300;
        r.config.seed = 18446744073709551615ULL;
        r.config.zipf_space_max = 0;
        out.push_back({"extremes", r,
                       "backend=cpu-soa;cooling_start=0.5;eps=0.01;"
                       "eta_max=1e+300;init_jitter=1;iter_max=30;kernel=scalar;"
                       "schedule_iter_max=0;seed=18446744073709551615;"
                       "steps_per_iter_factor=1e-07;threads=1;zipf_space_max=0;"
                       "zipf_theta=0.99;partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.backend = "gpusim-optimized";
        r.partition = true;
        r.multilevel = true;
        r.config.iter_max = 3;
        r.config.seed = 18446744073709551557ULL;
        out.push_back({"partition_multilevel_defaults", r,
                       "backend=gpusim-optimized;cooling_start=0.5;eps=0.01;"
                       "eta_max=0;init_jitter=1;iter_max=3;kernel=scalar;"
                       "schedule_iter_max=0;seed=18446744073709551557;"
                       "steps_per_iter_factor=10;threads=1;zipf_space_max=1000;"
                       "zipf_theta=0.99;partition=1;multilevel=1;"
                       "ml.coarse_iters=0;ml.refine_iters=0;ml.refine_eta=0;"
                       "ml.exact_tail=0;"});
    }
    return out;
}

TEST(RequestKey, PinnedCanonicalStrings) {
    for (const PinnedKey& p : pinned_keys()) {
        EXPECT_EQ(serve::canonical_request(p.request), p.key) << p.name;
    }
}

/// A value of `f` other than its value in `r`, and valid for validate().
core::FieldValue other_value(const core::RequestField& f,
                             const core::LayoutRequest& r) {
    const core::FieldValue v = f.get(r);
    switch (f.type) {
        case core::FieldType::kBool: return !std::get<bool>(v);
        case core::FieldType::kUint:
        case core::FieldType::kLevels: return std::get<std::uint64_t>(v) + 1;
        case core::FieldType::kDouble: return std::get<double>(v) + 0.25;
        case core::FieldType::kString: break;
    }
    static const std::map<std::string_view, std::string> kStrings = {
        {"backend", "cpu-pipelined"},
        {"kernel", "simd"},
        {"numa", "interleave"},
        {"executor", "process"},
    };
    const auto it = kStrings.find(f.key);
    if (it == kStrings.end()) {
        ADD_FAILURE() << "no alternative value for string row " << f.key;
        return v;
    }
    return it->second;
}

/// The default request with every gate switch on, so every row is live.
core::LayoutRequest all_gates_open() {
    core::LayoutRequest r;
    r.partition = true;
    r.multilevel = true;
    return r;
}

std::string flag_text(const core::FieldValue& v) {
    if (const auto* u = std::get_if<std::uint64_t>(&v)) {
        return std::to_string(*u);
    }
    if (const auto* d = std::get_if<double>(&v)) {
        return core::canonical_double(*d);
    }
    return std::get<std::string>(v);
}

TEST(RequestTable, KeyChangesExactlyForBytesRows) {
    const core::LayoutRequest base = all_gates_open();
    const std::string base_key = core::canonical_request(base);
    for (const core::RequestField& f : core::request_fields()) {
        core::LayoutRequest r = base;
        f.set(r, other_value(f, base));
        const bool moved = core::canonical_request(r) != base_key;
        EXPECT_EQ(moved, f.kind == core::FieldKind::kBytes) << f.key;
    }
}

TEST(RequestTable, GatedRowsLeaveTheKeyAndFailValidationWhileOff) {
    const core::LayoutRequest base;
    for (const core::RequestField& f : core::request_fields()) {
        if (f.gate.empty()) continue;
        core::LayoutRequest r = base;
        f.set(r, other_value(f, base));
        ASSERT_FALSE(core::gate_open(f, r)) << f.key;
        EXPECT_EQ(core::canonical_request(r), core::canonical_request(base))
            << f.key;
        EXPECT_THROW(core::validate(r, core::Spelling::kKey),
                     std::runtime_error)
            << f.key;
    }
}

TEST(RequestTable, EveryRowRoundTripsTheWire) {
    const core::LayoutRequest base = all_gates_open();
    for (const core::RequestField& f : core::request_fields()) {
        serve::JobRequest r;
        static_cast<core::LayoutRequest&>(r) = base;
        r.graph = "g.gfa";
        const core::FieldValue v = other_value(f, base);
        f.set(r, v);
        const std::string text = serve::request_to_json(r).dump();
        const serve::JobRequest back =
            serve::parse_request(serve::json_parse(text));
        EXPECT_EQ(f.get(back), v) << f.key << " via " << text;
        EXPECT_EQ(serve::canonical_request(back), serve::canonical_request(r))
            << f.key;
    }
}

TEST(RequestTable, EveryWorkerRowRoundTripsTheWorkerSpec) {
    const core::LayoutRequest base = all_gates_open();
    for (const core::RequestField& f : core::request_fields()) {
        if (!f.worker) continue;
        partition::SchedulerOptions opt;
        static_cast<core::LayoutRequest&>(opt) = base;
        const core::FieldValue v = other_value(f, base);
        f.set(opt, v);
        const std::string spec =
            partition::encode_worker_spec(opt, opt.config.seed);
        const auto back = partition::parse_worker_spec(spec);
        EXPECT_EQ(f.get(back), v) << f.key << " via " << spec;
    }
}

TEST(RequestTable, EveryFlagRoundTripsTheCommandLine) {
    const core::LayoutRequest base;
    for (const core::RequestField& f : core::request_fields()) {
        if (f.flag.empty()) continue;
        const core::FieldValue v = other_value(f, base);
        std::vector<std::string> args = {"tool"};
        if (f.type == core::FieldType::kLevels) {
            args.push_back(std::string(f.flag) + "=" + flag_text(v));
        } else {
            args.push_back(std::string(f.flag));
            if (f.type != core::FieldType::kBool) args.push_back(flag_text(v));
        }
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        core::LayoutRequest r;
        int i = 1;
        ASSERT_TRUE(core::parse_flag(static_cast<int>(argv.size()),
                                     argv.data(), i, r))
            << f.flag;
        EXPECT_EQ(i + 1, static_cast<int>(argv.size())) << f.flag;
        EXPECT_EQ(f.get(r), v) << f.flag;
    }
}

TEST(RequestWire, DefaultRequestRoundTripsExactly) {
    // The default seed is above 2^53: a double-backed JSON number would
    // round it and move the key.
    serve::JobRequest r;
    r.graph = "g.gfa";
    const std::string text = serve::request_to_json(r).dump();
    EXPECT_NE(text.find("\"seed\":9399220614123047"), std::string::npos)
        << text;
    const serve::JobRequest back =
        serve::parse_request(serve::json_parse(text));
    EXPECT_EQ(back.config.seed, r.config.seed);
    EXPECT_EQ(serve::canonical_request(back), serve::canonical_request(r));
}

/// The error message of parsing `config` as a submit's config object.
std::string wire_error(const std::string& config) {
    try {
        serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":)" + config + "}"));
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(RequestValidate, WireRejectsWhatTheCommandLineRejects) {
    EXPECT_EQ(wire_error(R"({"refine_iters":2})"),
              "config.refine_iters requires config.multilevel");
    EXPECT_EQ(wire_error(R"({"exact_tail":true})"),
              "config.exact_tail requires config.multilevel");
    EXPECT_EQ(wire_error(R"({"coarse_iters":3})"),
              "config.coarse_iters requires config.multilevel");
    EXPECT_EQ(wire_error(R"({"component_workers":2})"),
              "config.component_workers requires config.partition");
    EXPECT_EQ(wire_error(R"({"executor":"process"})"),
              "config.executor requires config.partition");
    EXPECT_EQ(wire_error(R"({"partition":true,"processes":0})"),
              "config.processes requires N >= 1");
    EXPECT_NE(wire_error(R"({"partition":true,"executor":"bogus"})")
                  .find("config.executor: unknown partition executor"),
              std::string::npos);
    EXPECT_NE(wire_error(R"({"iters":4294967296})").find("config.iters"),
              std::string::npos);
    EXPECT_EQ(wire_error(R"({"multilevel":0,"partition":true})"), "");
}

TEST(RequestValidate, FlagsNameTheFlag) {
    core::LayoutRequest r;
    r.executor = "process";  // what --processes selects
    try {
        core::validate(r, core::Spelling::kFlag);
        FAIL() << "expected a partition error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "--processes requires --partition");
    }
    std::string arg = "--multilevel=0";
    char* argv[] = {arg.data(), arg.data()};
    int i = 1;
    EXPECT_THROW(core::parse_flag(2, argv, i, r), std::invalid_argument);
}

}  // namespace

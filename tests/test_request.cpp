// Tests for the layout request and its field table: the canonical_request
// strings of a spread of requests are pinned byte for byte, so no refactor
// of the request codecs can silently move a key (a moved key orphans every
// artifact a persistent daemon cache holds); every table row changes the
// key exactly when it selects bytes and round-trips through the wire JSON,
// the worker spec and its command-line flag; and every entry point rejects
// the same invalid requests.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
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
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;"
                       "partition=0;multilevel=0;"});
    }
    {
        // The kernel is an execution row: simd writes scalar's bytes.
        serve::JobRequest r;
        r.backend = "cpu-pipelined";
        r.config.kernel = "simd";
        r.config.threads = 4;
        r.config.seed = 42;
        r.config.iter_max = 7;
        out.push_back({"engine_knobs", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=7;seed=42;"
                       "steps_per_iter_factor=10;threads=4;"
                       "partition=0;multilevel=0;"});
    }
    {
        // Execution-only knobs ride along and must not reach the key.
        serve::JobRequest r;
        r.partition = true;
        r.component_workers = 3;
        r.executor = "process";
        out.push_back({"partition", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;"
                       "partition=1;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.multilevel = true;
        r.ml.levels = 2;
        r.ml.refine_iters = 4;
        r.ml.exact_tail = true;
        out.push_back({"multilevel_every_field", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;"
                       "partition=0;multilevel=2;ml.refine_iters=4;"
                       "ml.exact_tail=1;"});
    }
    {
        // The ml.* options are not part of the key while multilevel is off.
        serve::JobRequest r;
        r.ml.levels = 3;
        r.ml.refine_iters = 9;
        r.ml.exact_tail = true;
        out.push_back({"multilevel_off", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;seed=9399220614123047;"
                       "steps_per_iter_factor=10;threads=1;"
                       "partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.config.steps_per_iter_factor = 1.0 / 3.0;
        out.push_back({"factor_float", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;seed=9399220614123047;"
                       "steps_per_iter_factor=0.3333333333333333;threads=1;"
                       "partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.config.steps_per_iter_factor = 1e-7;
        r.config.seed = 18446744073709551615ULL;
        out.push_back({"extremes", r,
                       "epoch=2;"
                       "backend=cpu-pipelined;iter_max=30;"
                       "seed=18446744073709551615;steps_per_iter_factor=1e-07;"
                       "threads=1;partition=0;multilevel=0;"});
    }
    {
        serve::JobRequest r;
        r.backend = "gpusim-optimized";
        r.partition = true;
        r.multilevel = true;
        r.config.iter_max = 3;
        r.config.seed = 18446744073709551557ULL;
        out.push_back({"partition_multilevel_defaults", r,
                       "epoch=2;"
                       "backend=gpusim-optimized;iter_max=3;"
                       "seed=18446744073709551557;steps_per_iter_factor=10;"
                       "threads=1;partition=1;"
                       "multilevel=1;ml.refine_iters=0;ml.exact_tail=0;"});
    }
    return out;
}

TEST(RequestKey, PinnedCanonicalStrings) {
    for (const PinnedKey& p : pinned_keys()) {
        EXPECT_EQ(serve::canonical_request(p.request), p.key) << p.name;
    }
}

TEST(RequestKey, KernelDoesNotSplitTheKey) {
    // Every kernel writes the scalar kernel's bytes, so a simd request is
    // served the artifact of the same scalar request.
    serve::JobRequest scalar;
    scalar.backend = "cpu-pipelined";
    serve::JobRequest simd = scalar;
    simd.config.kernel = "simd";
    EXPECT_EQ(serve::canonical_request(simd), serve::canonical_request(scalar));
    EXPECT_EQ(serve::canonical_request(simd).find("kernel"), std::string::npos);
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
        {"backend", "gpusim-base"},
        {"kernel", "simd"},
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

TEST(RequestTable, EveryRowHasAKeyAWireNameAndAFlag) {
    for (const core::RequestField& f : core::request_fields()) {
        EXPECT_FALSE(f.wire.empty()) << f.key;
        EXPECT_TRUE(f.flag.starts_with("--")) << f.key;
    }
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
        core::LayoutRequest r = base;
        const core::FieldValue v = other_value(f, base);
        f.set(r, v);
        const std::string spec =
            partition::encode_worker_spec(r, r.config.seed);
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

    EXPECT_EQ(wire_error(R"({"component_workers":2})"),
              "config.component_workers requires config.partition");
    EXPECT_EQ(wire_error(R"({"executor":"process"})"),
              "config.executor requires config.partition");
    EXPECT_NE(wire_error(R"({"partition":true,"executor":"bogus"})")
                  .find("config.executor: unknown partition executor"),
              std::string::npos);
    EXPECT_NE(wire_error(R"({"iters":4294967296})").find("config.iters"),
              std::string::npos);
    EXPECT_EQ(wire_error(R"({"multilevel":0,"partition":true})"), "");
}

TEST(RequestValidate, RetiredBackendIsAnUnknownEngineEverywhere) {
    // The Hogwild CPU backend is gone: a wire request, a worker spec and a
    // flag naming it get the typed unknown-engine error with the names
    // that remain.
    const std::string want =
        "unknown layout engine \"cpu-soa\"; available: cpu-pipelined";
    EXPECT_NE(wire_error(R"({"backend":"cpu-soa"})").find("config.backend: " + want),
              std::string::npos);
    try {
        core::parse_worker_spec("backend=cpu-soa;");
        FAIL() << "expected an unknown-engine error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("backend: " + want), std::string::npos)
            << e.what();
    }
    core::LayoutRequest r;
    r.backend = "cpu-soa";
    try {
        core::validate(r, core::Spelling::kFlag);
        FAIL() << "expected an unknown-engine error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("--backend: " + want), std::string::npos)
            << e.what();
    }
}

/// The error message of validating `r` in `spelling`.
std::string validate_error(const core::LayoutRequest& r,
                           core::Spelling spelling) {
    try {
        core::validate(r, spelling);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(RequestValidate, EveryDoubleRowRejectsNonFiniteValues) {
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (const core::RequestField& f : core::request_fields()) {
        if (f.type != core::FieldType::kDouble) continue;
        for (const double v : bad) {
            core::LayoutRequest r = all_gates_open();
            f.set(r, v);
            EXPECT_EQ(validate_error(r, core::Spelling::kKey),
                      std::string(f.key) + ": expected a finite number")
                << f.key << " = " << v;
            EXPECT_EQ(validate_error(r, core::Spelling::kWire),
                      "config." + std::string(f.wire) +
                          ": expected a finite number")
                << f.key << " = " << v;
        }
    }
}

TEST(RequestValidate, PassLevelFieldsOffTheirDefaultsAreRejected) {
    // No text form carries them, so the key could not tell such a request
    // from the default one.
    const std::pair<const char*, void (*)(core::LayoutConfig&)> fields[] = {
        {"cooling_start", [](core::LayoutConfig& c) { c.cooling_start = 0.3; }},
        {"eps", [](core::LayoutConfig& c) { c.eps = 0.5; }},
        {"eta_max", [](core::LayoutConfig& c) { c.eta_max = 100.0; }},
        {"schedule_iter_max",
         [](core::LayoutConfig& c) { c.schedule_iter_max = 60; }},
        {"zipf_space_max", [](core::LayoutConfig& c) { c.zipf_space_max = 0; }},
    };
    for (const auto& [name, set] : fields) {
        core::LayoutRequest r;
        set(r.config);
        EXPECT_EQ(validate_error(r, core::Spelling::kWire),
                  std::string(name) +
                      " is not a request field; a request runs it at its "
                      "default");
    }
}

TEST(RequestValidate, NonFiniteFlagIsRejectedByName) {
    for (const char* text : {"nan", "inf", "-inf"}) {
        std::string flag = "--factor";
        std::string value = text;
        char* argv[] = {flag.data(), flag.data(), value.data()};
        core::LayoutRequest r;
        int i = 1;
        ASSERT_TRUE(core::parse_flag(3, argv, i, r)) << text;
        EXPECT_EQ(validate_error(r, core::Spelling::kFlag),
                  "--factor: expected a finite number")
            << text;
    }
}

TEST(RequestValidate, NonFiniteWorkerSpecKeyIsRejectedByName) {
    try {
        core::parse_worker_spec("backend=cpu-pipelined;steps_per_iter_factor=nan;");
        FAIL() << "expected a non-finite rejection";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(),
                     "steps_per_iter_factor: expected a finite number");
    }
}

TEST(LayoutConfig, OversizedCoolingStartConvertsWithoutOverflow) {
    // A finite 1e300 is a valid double; cooling() clamps the product into
    // range before it converts.
    core::LayoutConfig cfg;
    cfg.iter_max = 4;
    cfg.cooling_start = 1e300;
    EXPECT_FALSE(cfg.cooling(0));
    EXPECT_FALSE(cfg.cooling(3));
    cfg.cooling_start = -1e300;
    EXPECT_TRUE(cfg.cooling(0));
    cfg.cooling_start = 0.5;
    EXPECT_FALSE(cfg.cooling(1));
    EXPECT_TRUE(cfg.cooling(2));
}

TEST(RequestValidate, FlagsNameTheFlag) {
    core::LayoutRequest r;
    r.executor = "process";
    try {
        core::validate(r, core::Spelling::kFlag);
        FAIL() << "expected a partition error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "--executor requires --partition");
    }
    std::string arg = "--multilevel=0";
    char* argv[] = {arg.data(), arg.data()};
    int i = 1;
    EXPECT_THROW(core::parse_flag(2, argv, i, r), std::invalid_argument);
}

}  // namespace

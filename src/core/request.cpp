#include "core/request.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <utility>

#include "core/engine.hpp"
#include "core/kernels/update_kernel.hpp"
#include "core/topology.hpp"
#include "partition/executor.hpp"

namespace pgl::core {

namespace {

/// r.*First.*Rest... — a member reached through nested structs.
template <auto First, auto... Rest>
constexpr auto& member(auto& obj) {
    if constexpr (sizeof...(Rest) == 0) {
        return obj.*First;
    } else {
        return member<Rest...>(obj.*First);
    }
}

/// A row whose accessor, type and range come from the member at `Path`.
template <auto... Path>
constexpr RequestField row(RequestField f) {
    using T = std::remove_cvref_t<decltype(member<Path...>(
        std::declval<LayoutRequest&>()))>;
    using Stored = std::conditional_t<std::is_same_v<T, bool> ||
                                          !std::is_integral_v<T>,
                                      T, std::uint64_t>;
    if constexpr (std::is_same_v<T, bool>) {
        f.type = FieldType::kBool;
    } else if constexpr (std::is_integral_v<T>) {
        static_assert(std::is_unsigned_v<T>);
        f.type = FieldType::kUint;
        f.max = std::numeric_limits<T>::max();
    } else if constexpr (std::is_same_v<T, double>) {
        f.type = FieldType::kDouble;
    } else {
        static_assert(std::is_same_v<T, std::string>);
        f.type = FieldType::kString;
    }
    f.get = [](const LayoutRequest& r) {
        return FieldValue(std::in_place_type<Stored>, member<Path...>(r));
    };
    f.set = [](LayoutRequest& r, const FieldValue& v) {
        member<Path...>(r) = static_cast<T>(std::get<Stored>(v));
    };
    return f;
}

// The multilevel switch and its level count share one field: 0 is off, so
// an off request can never collide with any on request.
FieldValue get_levels(const LayoutRequest& r) {
    return std::uint64_t{r.multilevel ? r.ml.levels : 0u};
}

void set_levels(LayoutRequest& r, const FieldValue& v) {
    const std::uint64_t levels = std::get<std::uint64_t>(v);
    r.multilevel = levels != 0;
    if (levels != 0) r.ml.levels = static_cast<std::uint32_t>(levels);
}

using R = LayoutRequest;
using C = LayoutConfig;
using M = multilevel::MultilevelOptions;
constexpr FieldKind kExec = FieldKind::kExecution;

// Table order is canonical key order: the key of a request is its bytes
// rows in this order, so reordering or respelling a bytes row moves every
// cache key. Key names and wire names differ where the wire took the
// shorter CLI spelling (iters, factor, ...); both stay as they are.
constexpr RequestField kFields[] = {
    row<&R::backend>({.key = "backend", .wire = "backend",
        .flag = "--backend", .metavar = " NAME",
        .help = "registered engine (see --list-backends; default cpu-soa)"}),
    row<&R::config, &C::cooling_start>({.key = "cooling_start",
        .wire = "cooling_start",
        .help = "fraction of iterations before every step cools (0.5)"}),
    row<&R::config, &C::eps>({.key = "eps", .wire = "eps",
        .help = "final learning rate of the anneal (0.01)"}),
    row<&R::config, &C::eta_max>({.key = "eta_max", .wire = "eta_max",
        .help = "anneal ceiling; 0 derives it from the graph"}),
    row<&R::config, &C::init_jitter>({.key = "init_jitter",
        .wire = "init_jitter",
        .help = "initial y-jitter, in mean node lengths (1)"}),
    row<&R::config, &C::iter_max>({.key = "iter_max", .wire = "iters",
        .flag = "--iters", .metavar = " N",
        .help = "SGD iterations (default 30)"}),
    row<&R::config, &C::kernel>({.key = "kernel", .wire = "kernel",
        .flag = "--kernel", .metavar = " NAME",
        .help = "update kernel (see --list-kernels; default scalar)"}),
    row<&R::config, &C::schedule_iter_max>({.key = "schedule_iter_max",
        .wire = "schedule_iters",
        .help = "iterations the anneal is computed over; 0 = iters"}),
    row<&R::config, &C::seed>({.key = "seed", .wire = "seed",
        .flag = "--seed", .metavar = " N", .help = "PRNG seed"}),
    row<&R::config, &C::steps_per_iter_factor>({
        .key = "steps_per_iter_factor", .wire = "factor",
        .flag = "--factor", .metavar = " F",
        .help = "updates per iteration = F x total steps (default 10)"}),
    row<&R::config, &C::threads>({.key = "threads", .wire = "threads",
        .flag = "--threads", .metavar = " N",
        .help = "CPU threads, also the ordered engines' shard count (1)"}),
    row<&R::config, &C::zipf_space_max>({.key = "zipf_space_max",
        .wire = "zipf_space_max",
        .help = "largest cooling hop distance; 0 = path length (1000)"}),
    row<&R::config, &C::zipf_theta>({.key = "zipf_theta",
        .wire = "zipf_theta",
        .help = "Zipf exponent of the cooling hops (0.99)"}),
    row<&R::partition>({.key = "partition", .wire = "partition",
        .flag = "--partition",
        .help = "lay out each connected component with its own engine",
        .worker = false}),
    {.key = "multilevel", .wire = "multilevel", .flag = "--multilevel",
     .metavar = "[=LEVELS]",
     .help = "coarsen LEVELS times (default 1), lay out, interpolate, "
             "refine",
     .type = FieldType::kLevels,
     .max = std::numeric_limits<std::uint32_t>::max(), .get = get_levels,
     .set = set_levels},
    row<&R::ml, &M::coarse_iters>({.key = "ml.coarse_iters",
        .wire = "coarse_iters",
        .help = "coarse-level iterations; 0 = the hot five-sixths",
        .gate = "multilevel"}),
    row<&R::ml, &M::refine_iters>({.key = "ml.refine_iters",
        .wire = "refine_iters", .flag = "--refine-iters", .metavar = " N",
        .help = "refinement iterations (default max(2, iters / 2))",
        .gate = "multilevel"}),
    row<&R::ml, &M::refine_eta>({.key = "ml.refine_eta",
        .wire = "refine_eta",
        .help = "refine restart temperature; 0 derives it",
        .gate = "multilevel"}),
    row<&R::ml, &M::exact_tail>({.key = "ml.exact_tail",
        .wire = "exact_tail", .flag = "--exact-tail",
        .help = "refine with the flat schedule's own tail temperatures",
        .gate = "multilevel"}),
    row<&R::config, &C::pin>({.key = "pin", .wire = "pin", .flag = "--pin",
        .help = "pin pool workers to CPUs (never changes the bytes)",
        .kind = kExec}),
    row<&R::config, &C::numa>({.key = "numa", .wire = "numa",
        .flag = "--numa", .metavar = " MODE",
        .help = "NUMA placement: off (default), auto, interleave, node:K",
        .kind = kExec}),
    row<&R::component_workers>({.key = "component_workers",
        .wire = "component_workers", .flag = "--component-workers",
        .metavar = " N",
        .help = "components laid out concurrently (default 1)",
        .kind = kExec, .worker = false, .gate = "partition"}),
    row<&R::executor>({.key = "executor", .wire = "executor",
        .help = "partition executor: thread (default) or process",
        .kind = kExec, .worker = false, .gate = "partition"}),
    row<&R::processes>({.key = "processes", .wire = "processes",
        .flag = "--processes", .metavar = " N",
        .help = "farm components to N child worker processes",
        .implies = "executor=process", .kind = kExec, .worker = false,
        .gate = "partition"}),
};

const RequestField* find_field(std::string_view key) {
    for (const RequestField& f : kFields) {
        if (f.key == key) return &f;
    }
    return nullptr;
}

std::string field_text(const FieldValue& v) {
    return std::visit(
        [](const auto& x) -> std::string {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, bool>) {
                return x ? "1" : "0";
            } else if constexpr (std::is_same_v<T, std::uint64_t>) {
                return std::to_string(x);
            } else if constexpr (std::is_same_v<T, double>) {
                return canonical_double(x);
            } else {
                return x;
            }
        },
        v);
}

template <typename T>
T parse_number(std::string_view text, const char* expected) {
    T v{};
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec == std::errc::result_out_of_range) {
        throw std::invalid_argument("out of range");
    }
    if (ec != std::errc() || ptr != last) throw std::invalid_argument(expected);
    return v;
}

/// Parses the key/spec/flag text of one value of `f`; a failure names the
/// field as `name`.
FieldValue parse_value(const RequestField& f, std::string_view text,
                       std::string_view name) try {
    switch (f.type) {
        case FieldType::kBool:
            if (text != "0" && text != "1") {
                throw std::invalid_argument("expected 0 or 1");
            }
            return text == "1";
        case FieldType::kUint:
        case FieldType::kLevels: {
            const auto v = parse_number<std::uint64_t>(
                text, "expected a non-negative integer");
            if (v > f.max) throw std::invalid_argument("out of range");
            return v;
        }
        case FieldType::kDouble:
            return parse_number<double>(text, "expected a number");
        case FieldType::kString: return std::string(text);
    }
    throw std::logic_error("unhandled field type");
} catch (const std::invalid_argument& e) {
    throw std::invalid_argument("invalid value for " + std::string(name) +
                                ": '" + std::string(text) + "' (" + e.what() +
                                ")");
}

/// The `name=value;` text of the rows `select` accepts, in table order,
/// leaving out rows whose gate is off.
std::string encode_fields(const LayoutRequest& r,
                          bool (*select)(const RequestField&)) {
    std::string s;
    for (const RequestField& f : kFields) {
        if (!select(f) || !gate_open(f, r)) continue;
        s += f.key;
        s += '=';
        s += field_text(f.get(r));
        s += ';';
    }
    return s;
}

bool is_bytes(const RequestField& f) { return f.kind == FieldKind::kBytes; }
bool is_worker(const RequestField& f) { return f.worker; }

}  // namespace

std::span<const RequestField> request_fields() { return kFields; }

bool gate_open(const RequestField& f, const LayoutRequest& r) {
    if (f.gate.empty()) return true;
    const FieldValue v = find_field(f.gate)->get(r);
    return std::holds_alternative<bool>(v) ? std::get<bool>(v)
                                           : std::get<std::uint64_t>(v) != 0;
}

std::string canonical_double(double v) {
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc()) return "nan";  // to_chars cannot fail on binary64
    return std::string(buf, ptr);
}

std::string encode_worker_spec(const LayoutRequest& r,
                               std::uint64_t mixed_seed) {
    LayoutRequest mixed = r;
    mixed.config.seed = mixed_seed;
    return encode_fields(mixed, is_worker);
}

LayoutRequest parse_worker_spec(std::string_view spec) {
    LayoutRequest r;
    while (!spec.empty()) {
        const std::size_t semi = spec.find(';');
        const std::string_view item = spec.substr(0, semi);
        const std::size_t eq = item.find('=');
        if (semi == std::string_view::npos || eq == std::string_view::npos) {
            throw std::invalid_argument("malformed worker spec item: '" +
                                        std::string(item) + "'");
        }
        spec.remove_prefix(semi + 1);
        const std::string_view name = item.substr(0, eq);
        const RequestField* f = find_field(name);
        if (!f || !f->worker) {
            throw std::invalid_argument("unknown worker spec field: " +
                                        std::string(name));
        }
        f->set(r, parse_value(*f, item.substr(eq + 1), name));
    }
    validate(r, Spelling::kKey);
    return r;
}

std::string canonical_request(const LayoutRequest& r) {
    return encode_fields(r, is_bytes);
}

void validate(const LayoutRequest& r, Spelling spelling) {
    const auto label = [&](std::string_view key) -> std::string {
        const RequestField& f = *find_field(key);
        if (spelling == Spelling::kWire) return "config." + std::string(f.wire);
        if (spelling == Spelling::kKey) return std::string(key);
        if (!f.flag.empty()) return std::string(f.flag);
        // A flagless row is named by the flag that implies it (executor by
        // --processes).
        for (const RequestField& g : kFields) {
            if (g.implies.substr(0, g.implies.find('=')) == key) {
                return std::string(g.flag);
            }
        }
        return std::string(key);
    };
    const auto fail = [&](std::string_view key, const std::string& what) {
        throw std::runtime_error(label(key) + ": " + what);
    };
    const auto need = [&](std::string_view key, const std::string& what) {
        throw std::runtime_error(label(key) + " requires " + what);
    };

    const auto& engines = EngineRegistry::instance();
    if (!engines.contains(r.backend)) {
        fail("backend", engines.unknown(r.backend, "layout engine"));
    }
    const auto& kernels = KernelRegistry::instance();
    if (!kernels.contains(r.config.kernel)) {
        fail("kernel", kernels.unknown(r.config.kernel, "update kernel"));
    }
    const auto& executors = partition::ExecutorRegistry::instance();
    if (!executors.contains(r.executor)) {
        fail("executor", executors.unknown(r.executor, "partition executor"));
    }
    try {
        parse_numa_policy(r.config.numa);
    } catch (const std::exception& e) {
        fail("numa", e.what());
    }
    if (r.processes == 0) need("processes", "N >= 1");
    if (r.multilevel && r.ml.levels == 0) need("multilevel", "LEVELS >= 1");

    const LayoutRequest defaults;
    for (const RequestField& f : kFields) {
        if (!gate_open(f, r) && f.get(r) != f.get(defaults)) {
            need(f.key, label(f.gate));
        }
    }
}

bool parse_flag(int argc, char** argv, int& i, LayoutRequest& r) {
    const std::string_view arg = argv[i];
    for (const RequestField& f : kFields) {
        if (f.flag.empty() || !arg.starts_with(f.flag)) continue;
        const std::string_view rest = arg.substr(f.flag.size());
        if (f.type == FieldType::kLevels && rest.starts_with('=')) {
            const FieldValue v = parse_value(f, rest.substr(1), f.flag);
            if (std::get<std::uint64_t>(v) == 0) {
                throw std::invalid_argument(std::string(f.flag) +
                                            "=LEVELS requires LEVELS >= 1");
            }
            f.set(r, v);
        } else if (!rest.empty()) {
            continue;
        } else if (f.type == FieldType::kBool) {
            f.set(r, true);
        } else if (f.type == FieldType::kLevels) {
            // Bare --multilevel: on, keeping a level count already given.
            if (std::get<std::uint64_t>(f.get(r)) == 0) f.set(r, 1ul);
        } else if (i + 1 < argc) {
            f.set(r, parse_value(f, argv[++i], f.flag));
        } else {
            throw std::invalid_argument("option " + std::string(f.flag) +
                                        " requires an argument");
        }
        if (!f.implies.empty()) {
            const std::size_t eq = f.implies.find('=');
            const std::string_view key = f.implies.substr(0, eq);
            const RequestField& target = *find_field(key);
            target.set(r, parse_value(target, f.implies.substr(eq + 1), key));
        }
        return true;
    }
    return false;
}

std::string flag_usage() {
    std::string out;
    for (const RequestField& f : kFields) {
        if (f.flag.empty()) continue;
        std::string line = "  " + std::string(f.flag) + std::string(f.metavar);
        line.resize(std::max<std::size_t>(line.size() + 2, 22), ' ');
        out += line;
        out += f.help;
        out += '\n';
    }
    return out;
}

}  // namespace pgl::core

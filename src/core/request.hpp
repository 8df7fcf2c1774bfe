#pragma once
// A layout request and the one table of its fields.
//
// Each row of the field table (request_fields) is one knob: its key name,
// wire name and command-line flag, whether it selects output bytes, a
// typed accessor and one help line. Every text form of a request is
// generated from it: the canonical key (the config half of the serve
// daemon's artifact-cache key), the worker spec of the process executor,
// the serve wire's "config" object (serve/request.hpp), and the layout
// flags and usage lines both command-line tools share. A row gated by a
// switch (ml.* by multilevel; component_workers and executor by
// partition) is left out of every text form while its switch is off, and
// validate() rejects a non-default value for it.
//
// A request holds only what callers set. The pass-level LayoutConfig
// fields (cooling_start, eps, eta_max, schedule_iter_max, zipf_space_max)
// are set on engine configs — multilevel passes, truncated runs — and no
// text form carries them: a request runs them at their defaults, and
// validate() and encode_worker_spec() refuse one that holds another
// value.
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "core/config.hpp"
#include "multilevel/multilevel.hpp"

namespace pgl::core {

/// The knobs of one layout run. LayoutConfig's runtime hand-offs (cancel
/// token, warm-start layout) are not fields: they select no bytes of a
/// completed run and have no text form. Neither are its pass-level fields
/// (see above).
struct LayoutRequest {
    std::string backend = "cpu-pipelined";  ///< EngineRegistry name
    LayoutConfig config;
    /// Decompose into connected components, one engine per component.
    bool partition = false;
    /// Components laid out at once: threads, or child processes under
    /// the "process" executor.
    std::uint32_t component_workers = 1;
    std::string executor = "thread";  ///< partition::check_executor name
    bool multilevel = false;
    multilevel::MultilevelOptions ml;
};

enum class FieldKind : std::uint8_t {
    kBytes,      ///< selects output bytes: part of the canonical key
    kExecution,  ///< where and how the work runs, never the bytes
};

enum class FieldType : std::uint8_t {
    kBool,    ///< key/spec text 1|0; a bare command-line flag
    kUint,    ///< decimal, at most RequestField::max
    kDouble,  ///< shortest round-trip decimal
    kString,
    kLevels,  ///< multilevel: 0 = off, N = on with N levels;
              ///< flag form --multilevel[=N]
};

using FieldValue = std::variant<bool, std::uint64_t, double, std::string>;

struct RequestField {
    std::string_view key = {};      ///< canonical key and worker-spec name
    std::string_view wire = {};     ///< name in a submit's "config" object
    std::string_view flag = {};     ///< command-line flag
    std::string_view metavar = {};  ///< flag value in usage lines (" N")
    std::string_view help = {};     ///< one usage line
    FieldKind kind = FieldKind::kBytes;
    bool worker = true;             ///< carried to a component worker
    std::string_view gate = {};     ///< key of the switch this row needs on
    FieldType type = FieldType::kBool;
    std::uint64_t max = 0;          ///< kUint/kLevels: largest value
    FieldValue (*get)(const LayoutRequest&) = nullptr;
    void (*set)(LayoutRequest&, const FieldValue&) = nullptr;
};

/// Every field, in canonical key order.
std::span<const RequestField> request_fields();

/// True when `f`'s gate switch is on in `r` (always, for ungated rows).
bool gate_open(const RequestField& f, const LayoutRequest& r);

/// Shortest round-trip rendering of a double (std::to_chars), the number
/// format of every text form — exposed so other writers render doubles
/// identically.
std::string canonical_double(double v);

/// The output epoch. Bump it in the same change that moves the output
/// bytes of an unchanged request (the sampler's draw sequence, the update
/// arithmetic, the .lay encoding): it leads canonical_request, so a
/// persistent artifact cache never serves a layout of an older algorithm.
/// tests/test_golden.cpp records the epoch its digests were generated
/// under. Epoch 1: every term draws exactly four PRNG words.
/// Epoch 2: the one-thread CPU engine applies per-slice blocks.
inline constexpr std::uint32_t kOutputEpoch = 2;

/// The canonical `epoch=N;name=value;...` string: kOutputEpoch, then every
/// bytes row. Two requests that must produce identical output share it,
/// whatever order or spelling their fields arrived in.
std::string canonical_request(const LayoutRequest& r);

/// The `name=value;` spec a component worker process is started with
/// (partition/executor.hpp): every row a child reads, in the key's
/// grammar, with `mixed_seed` in place of the base seed. Throws
/// std::invalid_argument naming the field when `r.config` holds a
/// pass-level field off its default: no spec carries one, so a child
/// would run under different settings.
std::string encode_worker_spec(const LayoutRequest& r,
                               std::uint64_t mixed_seed);

/// Inverse of encode_worker_spec, validated like every entry point. A spec
/// carries no partition rows, so the result always has executor "thread"
/// and one component worker: a worker lays out exactly one component
/// in-process. Throws std::invalid_argument on an unknown field or a
/// malformed value, std::runtime_error on an invalid request.
LayoutRequest parse_worker_spec(std::string_view spec);

/// How validate() names a field in an error message.
enum class Spelling : std::uint8_t {
    kKey,   ///< the canonical key name
    kWire,  ///< config.<wire name>
    kFlag,  ///< the command-line flag
};

/// The one check of a whole request, run by every entry point (both CLIs,
/// the server's submit and wire parse, the worker-spec parse): registered
/// backend, kernel and executor names, finite values in every double
/// row, at least one multilevel level, no non-default gated field while
/// its switch is off, and no pass-level config field off its default
/// (the key leaves them out). Throws std::runtime_error naming
/// the field in `spelling`.
void validate(const LayoutRequest& r, Spelling spelling);

/// Applies the layout flag at argv[i] — and its value, advancing i — to
/// `r`. Returns false when argv[i] is not a layout flag. Throws
/// std::invalid_argument naming the flag on a missing, malformed or
/// out-of-range value.
bool parse_flag(int argc, char** argv, int& i, LayoutRequest& r);

/// One usage line per layout flag, in table order.
std::string flag_usage();

}  // namespace pgl::core

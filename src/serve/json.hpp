#pragma once
// Minimal JSON value model + parser/serializer for the serve daemon's
// line-delimited protocol. Deliberately tiny: the protocol is flat objects
// with one level of nesting ("config"), so this supports exactly RFC 8259
// objects/arrays/strings/numbers/bools/null with UTF-8 passed through
// opaquely and \uXXXX escapes decoded, and nothing else (no comments, no
// trailing commas, no NaN/Infinity). An integer literal is held exactly,
// as int64 or uint64 — a u64 seed round-trips bit for bit — and one
// outside both ranges is rejected; any other number is a double, so the
// protocol can reject fractional values where integers are required.
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pgl::serve {

class JsonValue;
using JsonObject = std::map<std::string, JsonValue>;  // sorted: canonical order
using JsonArray = std::vector<JsonValue>;

class JsonValue {
public:
    enum class Kind : std::uint8_t {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    JsonValue() = default;
    JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
    JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
    JsonValue(std::int64_t i)
        : kind_(Kind::kNumber), num_(static_cast<double>(i)), int_(true),
          neg_(i < 0), bits_(static_cast<std::uint64_t>(i)) {}
    JsonValue(std::uint64_t u)
        : kind_(Kind::kNumber), num_(static_cast<double>(u)), int_(true),
          bits_(u) {}
    JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
    JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
    JsonValue(JsonArray a)
        : kind_(Kind::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}
    JsonValue(JsonObject o)
        : kind_(Kind::kObject),
          obj_(std::make_shared<JsonObject>(std::move(o))) {}

    Kind kind() const noexcept { return kind_; }
    bool is_null() const noexcept { return kind_ == Kind::kNull; }
    bool is_bool() const noexcept { return kind_ == Kind::kBool; }
    bool is_number() const noexcept { return kind_ == Kind::kNumber; }
    bool is_integer() const noexcept { return kind_ == Kind::kNumber && int_; }
    bool is_string() const noexcept { return kind_ == Kind::kString; }
    bool is_array() const noexcept { return kind_ == Kind::kArray; }
    bool is_object() const noexcept { return kind_ == Kind::kObject; }

    /// Typed accessors; throw std::runtime_error naming the expected kind
    /// on a mismatch (the protocol's "bad field type" error path).
    bool as_bool() const;
    double as_double() const;
    std::int64_t as_int() const;    ///< requires an integer in int64 range
    std::uint64_t as_uint() const;  ///< requires an integer >= 0
    const std::string& as_string() const;
    const JsonArray& as_array() const;
    const JsonObject& as_object() const;

    /// Object lookup: nullptr when absent (or when not an object).
    const JsonValue* find(const std::string& key) const;

    /// Compact single-line serialization (no whitespace), object keys in
    /// map order (sorted) — reparsing and re-dumping any wire object yields
    /// one canonical spelling.
    std::string dump() const;

private:
    void dump_to(std::string& out) const;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    bool int_ = false;
    bool neg_ = false;        ///< integer below zero: bits_ holds an int64
    std::uint64_t bits_ = 0;  ///< the exact integer value
    std::string str_;
    std::shared_ptr<JsonArray> arr_;
    std::shared_ptr<JsonObject> obj_;
};

/// Parses exactly one JSON document from `text` (trailing whitespace
/// allowed, anything else after the document is an error). Throws
/// std::runtime_error with a byte offset on malformed input.
JsonValue json_parse(const std::string& text);

/// JSON string escaping (quotes included), shared by dump() and ad-hoc
/// error responses.
std::string json_quote(const std::string& s);

}  // namespace pgl::serve

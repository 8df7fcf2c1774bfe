#include "serve/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/config_canon.hpp"

namespace pgl::serve {

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Kind got) {
    static const char* names[] = {"null", "bool",  "number",
                                  "string", "array", "object"};
    throw std::runtime_error(std::string("expected ") + want + ", got " +
                             names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
    if (!is_bool()) type_error("bool", kind_);
    return bool_;
}

double JsonValue::as_double() const {
    if (!is_number()) type_error("number", kind_);
    return num_;
}

std::int64_t JsonValue::as_int() const {
    if (!is_integer()) type_error("integer", kind_);
    return static_cast<std::int64_t>(num_);
}

std::uint64_t JsonValue::as_uint() const {
    if (!is_integer() || num_ < 0) type_error("non-negative integer", kind_);
    return static_cast<std::uint64_t>(num_);
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) type_error("string", kind_);
    return str_;
}

const JsonArray& JsonValue::as_array() const {
    if (!is_array()) type_error("array", kind_);
    return *arr_;
}

const JsonObject& JsonValue::as_object() const {
    if (!is_object()) type_error("object", kind_);
    return *obj_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
}

std::string json_quote(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;  // UTF-8 bytes pass through
                }
        }
    }
    out += '"';
    return out;
}

void JsonValue::dump_to(std::string& out) const {
    switch (kind_) {
        case Kind::kNull: out += "null"; break;
        case Kind::kBool: out += bool_ ? "true" : "false"; break;
        case Kind::kNumber:
            if (int_) {
                // Render integrals without an exponent or trailing ".0" so
                // ids and seeds round-trip textually.
                if (num_ < 0) {
                    out += std::to_string(static_cast<std::int64_t>(num_));
                } else {
                    out += std::to_string(static_cast<std::uint64_t>(num_));
                }
            } else {
                out += core::canonical_double(num_);
            }
            break;
        case Kind::kString: out += json_quote(str_); break;
        case Kind::kArray: {
            out += '[';
            bool first = true;
            for (const JsonValue& v : *arr_) {
                if (!first) out += ',';
                first = false;
                v.dump_to(out);
            }
            out += ']';
            break;
        }
        case Kind::kObject: {
            out += '{';
            bool first = true;
            for (const auto& [k, v] : *obj_) {
                if (!first) out += ',';
                first = false;
                out += json_quote(k);
                out += ':';
                v.dump_to(out);
            }
            out += '}';
            break;
        }
    }
}

std::string JsonValue::dump() const {
    std::string out;
    dump_to(out);
    return out;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        std::size_t n = 0;
        while (lit[n]) ++n;
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
            case '{':
            case '[': {
                // Objects and arrays recurse; bound the depth so a hostile
                // line of brackets cannot exhaust the stack.
                if (++depth_ > kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kMaxDepth));
                }
                JsonValue v = peek() == '{' ? parse_object() : parse_array();
                --depth_;
                return v;
            }
            case '"': return JsonValue(parse_string());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return JsonValue(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return JsonValue(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return JsonValue();
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonObject obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(obj));
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return JsonValue(std::move(obj));
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonArray arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(arr));
        }
        for (;;) {
            arr.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return JsonValue(std::move(arr));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f') cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') cp |= unsigned(h - 'A' + 10);
                        else fail("bad \\u escape");
                    }
                    // Encode the BMP code point as UTF-8 (surrogate pairs
                    // are not needed by this protocol; lone surrogates are
                    // encoded as-is, matching lenient decoders).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        bool integral = true;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
            fail("bad number");
        }
        double d = 0.0;
        try {
            d = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception&) {
            fail("bad number");
        }
        JsonValue v(d);
        if (integral && std::abs(d) <= 9007199254740992.0) {  // 2^53
            v = (d < 0) ? JsonValue(static_cast<std::int64_t>(d))
                        : JsonValue(static_cast<std::uint64_t>(d));
        }
        return v;
    }

    static constexpr int kMaxDepth = 64;

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
    return Parser(text).parse_document();
}

}  // namespace pgl::serve

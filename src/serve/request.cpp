#include "serve/request.hpp"

#include <stdexcept>

namespace pgl::serve {

namespace {

const core::RequestField* find_wire(const std::string& name) {
    for (const core::RequestField& f : core::request_fields()) {
        if (f.wire == name) return &f;
    }
    return nullptr;
}

core::FieldValue from_json(const core::RequestField& f, const JsonValue& v) {
    switch (f.type) {
        case core::FieldType::kBool: return v.as_bool();
        case core::FieldType::kUint:
        case core::FieldType::kLevels: {
            const std::uint64_t u = v.as_uint();
            if (u > f.max) throw std::runtime_error("out of range");
            return u;
        }
        case core::FieldType::kDouble: return v.as_double();
        case core::FieldType::kString: return v.as_string();
    }
    throw std::logic_error("unhandled field type");
}

}  // namespace

JobRequest parse_request(const JsonValue& submit) {
    JobRequest r;
    const JsonValue* graph = submit.find("graph");
    if (!graph) throw std::runtime_error("submit requires a \"graph\" path");
    r.graph = graph->as_string();

    if (const JsonValue* config = submit.find("config")) {
        for (const auto& [key, v] : config->as_object()) {
            const core::RequestField* f = find_wire(key);
            if (!f) {
                throw std::runtime_error("config." + key +
                                         ": unknown config key");
            }
            try {
                f->set(r, from_json(*f, v));
            } catch (const std::exception& e) {
                throw std::runtime_error("config." + key + ": " + e.what());
            }
        }
    }
    core::validate(r, core::Spelling::kWire);
    return r;
}

JsonValue request_to_json(const JobRequest& r) {
    JsonObject config;
    for (const core::RequestField& f : core::request_fields()) {
        if (!core::gate_open(f, r)) continue;
        config[std::string(f.wire)] = std::visit(
            [](const auto& x) { return JsonValue(x); }, f.get(r));
    }
    JsonObject o;
    o["graph"] = JsonValue(r.graph);
    o["config"] = JsonValue(std::move(config));
    return JsonValue(std::move(o));
}

}  // namespace pgl::serve

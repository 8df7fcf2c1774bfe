#pragma once
// A layout job request — the serve daemon's unit of work — and its wire
// form, the "config" object of a submit command.
//
// A request is a graph reference plus a core::LayoutRequest: everything
// `pgl_layout` takes on its command line. Its fields, their wire names and
// which of them select output bytes are the field table in
// core/request.hpp; the wire codec here and the cache key
// (canonical_request) are both generated from it, so an execution-only
// field (pin, numa, component_workers, executor, processes) rides the wire
// but never the key.
#include <string>

#include "core/request.hpp"
#include "serve/json.hpp"

namespace pgl::serve {

struct JobRequest : core::LayoutRequest {
    std::string graph;  ///< path to a .gfa or .pgg graph file
};

using core::canonical_request;

/// Builds a JobRequest from a submit command's fields: `graph` (string,
/// required) and the optional `config` object, then validates it. Unknown
/// config keys, wrongly-typed or out-of-range values and invalid requests
/// throw std::runtime_error naming the key as `config.<key>` — a mistyped
/// request must fail loudly, not silently run defaults. Field order in the
/// JSON is irrelevant by construction.
JobRequest parse_request(const JsonValue& submit);

/// The request as a wire-format JSON object: every field whose gate is
/// open, defaults spelled out (inverse of parse_request).
JsonValue request_to_json(const JobRequest& r);

}  // namespace pgl::serve

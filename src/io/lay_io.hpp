#pragma once
// Binary layout serialization — the equivalent of odgi's ".lay" files used
// by the paper's artifact to ship pre-generated CPU/GPU layouts.
// Format: magic "PGLAY001", u64 node count, then the four coordinate
// columns (every sx, every sy, every ex, every ey) as little-endian
// float32. This structure-of-arrays order is the file format only; in
// memory a core::Layout holds one Segment record per node.
#include <iosfwd>
#include <string>

#include "core/layout.hpp"

namespace pgl::io {

void write_layout(const core::Layout& l, std::ostream& out);
void write_layout_file(const core::Layout& l, const std::string& path);

/// Throws std::runtime_error on bad magic or truncated data, including a
/// header whose node count exceeds the payload (checked before allocating
/// for it).
core::Layout read_layout(std::istream& in);
core::Layout read_layout_file(const std::string& path);

}  // namespace pgl::io

#include "io/lay_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "io/atomic_file.hpp"

namespace pgl::io {

namespace {
constexpr char kMagic[8] = {'P', 'G', 'L', 'A', 'Y', '0', '0', '1'};

// On disk a layout is four whole columns (every sx, then every sy, every
// ex, every ey); in memory it is one Segment per node. Columns move through
// a bounded buffer of this many floats.
constexpr std::size_t kChunk = 1 << 12;
constexpr float core::Segment::*kColumns[4] = {
    &core::Segment::sx, &core::Segment::sy, &core::Segment::ex,
    &core::Segment::ey};

void write_column(std::ostream& out, const core::Layout& l,
                  float core::Segment::*field) {
    std::vector<float> buf(std::min(kChunk, l.size()));
    for (std::size_t done = 0; done < l.size(); done += buf.size()) {
        const std::size_t k = std::min(buf.size(), l.size() - done);
        for (std::size_t i = 0; i < k; ++i) buf[i] = l[done + i].*field;
        out.write(reinterpret_cast<const char*>(buf.data()),
                  static_cast<std::streamsize>(k * sizeof(float)));
    }
}

// Reads the column of `n` floats into `field`, growing `l` only as the
// bytes arrive: a header claiming more nodes than the stream holds fails as
// truncated before anything is allocated for the missing nodes. Growth
// doubles but is capped at `n`, so a complete file ends at capacity `n`.
void read_column(std::istream& in, core::Layout& l, std::uint64_t n,
                 float core::Segment::*field) {
    std::vector<float> buf(std::min<std::uint64_t>(kChunk, n));
    for (std::uint64_t done = 0; done < n; done += buf.size()) {
        const std::size_t k = std::min<std::uint64_t>(buf.size(), n - done);
        in.read(reinterpret_cast<char*>(buf.data()),
                static_cast<std::streamsize>(k * sizeof(float)));
        if (!in) throw std::runtime_error("layout file truncated");
        if (l.size() < done + k) {
            if (l.capacity() < done + k) l.reserve(std::min(n, 2 * (done + k)));
            l.resize(done + k);
        }
        for (std::size_t i = 0; i < k; ++i) l[done + i].*field = buf[i];
    }
}
}  // namespace

void write_layout(const core::Layout& l, std::ostream& out) {
    out.write(kMagic, sizeof kMagic);
    const std::uint64_t n = l.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    for (const auto field : kColumns) write_column(out, l, field);
}

void write_layout_file(const core::Layout& l, const std::string& path) {
    // Temp-file + rename: a failed or interrupted run can never leave a
    // truncated .lay behind, and concurrent readers (the daemon's artifact
    // cache, CI's cmp) only ever see complete files.
    atomic_write_file(path, [&](std::ostream& out) { write_layout(l, out); });
}

core::Layout read_layout(std::istream& in) {
    char magic[8];
    in.read(magic, sizeof magic);
    if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
        throw std::runtime_error("not a PGLAY001 layout file");
    }
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    if (!in) throw std::runtime_error("layout file truncated");
    core::Layout l;
    for (const auto field : kColumns) read_column(in, l, n, field);
    return l;
}

core::Layout read_layout_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open layout file: " + path);
    return read_layout(in);
}

}  // namespace pgl::io

#include "serve/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "telemetry/telemetry.hpp"

namespace pgl::serve {

std::uint64_t fnv1a64(const std::string& s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t graph_fingerprint(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open graph file: " + path);

    // A well-formed .pgg already ends with an FNV-1a checksum over its
    // whole payload — read it instead of re-hashing the file. Identified
    // by magic, not extension, so a renamed cache still fingerprints
    // cheaply and a mislabeled file still fingerprints correctly.
    char magic[io::kPggMagic.size()] = {};
    in.read(magic, sizeof magic);
    if (in && std::string_view(magic, sizeof magic) == io::kPggMagic) {
        in.seekg(0, std::ios::end);
        const auto size = static_cast<std::int64_t>(in.tellg());
        if (size >= static_cast<std::int64_t>(sizeof magic + 8)) {
            in.seekg(size - 8, std::ios::beg);
            std::uint64_t checksum = 0;
            in.read(reinterpret_cast<char*>(&checksum), sizeof checksum);
            if (in) return checksum;
        }
    }

    // Anything else (GFA text, a truncated .pgg): hash every byte.
    in.clear();
    in.seekg(0, std::ios::beg);
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::vector<char> buf(1 << 16);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto n = static_cast<std::size_t>(in.gcount());
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 0x100000001b3ull;
        }
    }
    if (!in.eof()) throw std::runtime_error("cannot read graph file: " + path);
    return h;
}

std::string cache_key(std::uint64_t graph_fp, std::uint64_t config_fp) {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(graph_fp),
                  static_cast<unsigned long long>(config_fp));
    return std::string(buf, 32);
}

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
    // Artifact paths travel to clients in other working directories (the
    // daemon protocol returns them verbatim), so they must be absolute.
    dir_ = std::filesystem::absolute(dir_).lexically_normal().string();
}

std::string ArtifactCache::path_for(const std::string& key) const {
    return dir_ + "/" + key + ".lay";
}

std::optional<std::string> ArtifactCache::lookup(const std::string& key) {
    const std::string path = path_for(key);
    auto& reg = telemetry::Registry::instance();
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        ++misses_;
        reg.counter("cache.misses").add(1);
        return std::nullopt;
    }
    try {
        (void)io::read_layout_file(path);  // full parse: magic + payload
    } catch (const std::exception&) {
        // Corrupt entry (truncated write from a crashed daemon, disk rot):
        // evict so it can never be served, and treat as a miss.
        std::filesystem::remove(path, ec);
        ++evictions_;
        ++misses_;
        reg.counter("cache.evictions").add(1);
        reg.counter("cache.misses").add(1);
        return std::nullopt;
    }
    ++hits_;
    reg.counter("cache.hits").add(1);
    return path;
}

std::string ArtifactCache::publish(const std::string& key,
                                   const core::Layout& layout) {
    const std::string path = path_for(key);
    io::write_layout_file(layout, path);  // atomic temp + rename
    return path;
}

}  // namespace pgl::serve

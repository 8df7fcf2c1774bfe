#pragma once
// Set-associative cache simulator — the substrate standing in for Perf /
// VTune hardware counters (paper Tables II, IX) and for the GPU cache
// hierarchy (Tables X, XI). Classic LRU, write-allocate, configurable line
// size so the same class models 64 B CPU lines and 32 B GPU sectors.
#include <cstdint>
#include <vector>

namespace pgl::memsim {

/// Bytes of one modeled node record of the cache-friendly data layout
/// (paper Sec. V-B1, Fig. 9b) as the CPU and GPU replays address it: a u32
/// length, 4 B of padding, and the four endpoint floats.
inline constexpr std::uint32_t kNodeRecBytes = 24;

struct CacheConfig {
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t line_bytes = 64;
    std::uint32_t ways = 8;
};

struct CacheStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double miss_rate() const noexcept {
        return accesses ? static_cast<double>(misses) / static_cast<double>(accesses)
                        : 0.0;
    }
};

/// One cache level. Addresses are abstract byte addresses; the caller
/// decides what address space models which data structure.
class Cache {
public:
    explicit Cache(const CacheConfig& cfg);

    /// Accesses one line-aligned address; returns true on hit. On miss the
    /// line is installed (evicting LRU).
    bool access_line(std::uint64_t line_addr);

    /// Touches every line overlapped by [addr, addr + bytes); returns the
    /// number of misses.
    std::uint32_t access(std::uint64_t addr, std::uint32_t bytes);

    const CacheStats& stats() const noexcept { return stats_; }
    const CacheConfig& config() const noexcept { return cfg_; }
    std::uint32_t line_bytes() const noexcept { return cfg_.line_bytes; }
    void reset_stats() noexcept { stats_ = {}; }

private:
    struct Way {
        std::uint64_t tag = ~0ULL;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    CacheConfig cfg_;
    std::uint32_t n_sets_;
    std::vector<Way> ways_;  // n_sets_ x cfg_.ways, row-major
    std::uint64_t tick_ = 0;
    CacheStats stats_;
};

/// A hierarchy: an access probes L1; each L1 line miss probes L2, and so
/// on; misses at the last level count as DRAM traffic.
class CacheHierarchy {
public:
    explicit CacheHierarchy(const std::vector<CacheConfig>& levels);

    /// Touches [addr, addr + bytes) through the hierarchy.
    void access(std::uint64_t addr, std::uint32_t bytes);

    std::size_t level_count() const noexcept { return levels_.size(); }
    const Cache& level(std::size_t i) const { return levels_[i]; }

    std::uint64_t dram_accesses() const noexcept { return dram_accesses_; }
    std::uint64_t dram_bytes() const noexcept { return dram_bytes_; }

    void reset_stats();

private:
    std::vector<Cache> levels_;
    std::uint64_t dram_accesses_ = 0;
    std::uint64_t dram_bytes_ = 0;
};

/// The 32-core Xeon Gold 6246R hierarchy of the paper's testbed
/// (per-core L1/L2 + shared 35.75 MB LLC, 64 B lines), scaled by
/// `llc_scale` to keep the working-set-to-cache ratio realistic when
/// graphs are scaled down (see DESIGN.md).
std::vector<CacheConfig> xeon_6246r_hierarchy(double llc_scale = 1.0);

}  // namespace pgl::memsim

// Tests for the cache simulator and the CPU characterization replayer.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "graph/lean_graph.hpp"
#include "memsim/cache.hpp"
#include "memsim/characterize.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using memsim::Cache;
using memsim::CacheConfig;
using memsim::CacheHierarchy;

TEST(Cache, ColdMissThenHit) {
    Cache c(CacheConfig{1024, 64, 2});
    EXPECT_FALSE(c.access_line(5));
    EXPECT_TRUE(c.access_line(5));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(Cache, LruEvictsOldest) {
    // 2-way, 2 sets (4 lines of 64B = 256B total).
    Cache c(CacheConfig{256, 64, 2});
    // Lines 0, 2, 4 all map to set 0 (line % 2 sets).
    c.access_line(0);
    c.access_line(2);
    c.access_line(4);  // evicts line 0 (LRU)
    EXPECT_TRUE(c.access_line(2));
    EXPECT_TRUE(c.access_line(4));
    EXPECT_FALSE(c.access_line(0));  // was evicted
}

TEST(Cache, LruRefreshOnHit) {
    Cache c(CacheConfig{256, 64, 2});
    c.access_line(0);
    c.access_line(2);
    c.access_line(0);  // refresh 0: now 2 is LRU
    c.access_line(4);  // evicts 2
    EXPECT_TRUE(c.access_line(0));
    EXPECT_FALSE(c.access_line(2));
}

TEST(Cache, MultiLineAccessCountsEachLine) {
    Cache c(CacheConfig{1024, 64, 2});
    // 100 bytes starting at 60 spans lines 0 and 1 (and byte 159 is line 2).
    const auto misses = c.access(60, 100);
    EXPECT_EQ(misses, 3u);
    EXPECT_EQ(c.stats().accesses, 3u);
}

TEST(Cache, SequentialStreamHitsWithinLine) {
    Cache c(CacheConfig{32 * 1024, 64, 8});
    for (std::uint64_t a = 0; a < 6400; a += 4) c.access(a, 4);
    // 1600 accesses over 100 lines: 100 misses.
    EXPECT_EQ(c.stats().misses, 100u);
}

TEST(CacheHierarchy, MissesRippleToDram) {
    CacheHierarchy h({CacheConfig{256, 64, 2}, CacheConfig{1024, 64, 4}});
    h.access(0, 4);
    EXPECT_EQ(h.dram_accesses(), 1u);
    h.access(0, 4);  // L1 hit
    EXPECT_EQ(h.dram_accesses(), 1u);
}

TEST(CacheHierarchy, L2CatchesL1Evictions) {
    CacheHierarchy h({CacheConfig{128, 64, 1}, CacheConfig{64 * 1024, 64, 8}});
    h.access(0, 4);
    h.access(128, 4);  // maps to same L1 set (2 sets: line 0 and line 2)
    h.access(256, 4);  // evicts line 0 from L1
    h.reset_stats();
    h.access(0, 4);  // L1 miss, L2 hit -> no DRAM
    EXPECT_EQ(h.dram_accesses(), 0u);
    EXPECT_EQ(h.level(0).stats().misses, 1u);
    EXPECT_EQ(h.level(1).stats().hits, 1u);
}

TEST(CacheHierarchy, DramBytesAreLineSized) {
    CacheHierarchy h({CacheConfig{256, 64, 2}});
    h.access(0, 4);
    EXPECT_EQ(h.dram_bytes(), 64u);
}

TEST(XeonHierarchy, HasThreeLevels) {
    const auto levels = memsim::xeon_6246r_hierarchy();
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_LT(levels[0].size_bytes, levels[1].size_bytes);
    EXPECT_LT(levels[1].size_bytes, levels[2].size_bytes);
}

TEST(XeonHierarchy, ScalesDownWithFloor) {
    const auto levels = memsim::xeon_6246r_hierarchy(1e-6);
    for (const auto& l : levels) EXPECT_GE(l.size_bytes, 4096u);
}

graph::LeanGraph characterize_graph(std::uint64_t backbone) {
    workloads::PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = 8;
    spec.seed = 11;
    return workloads::to_ingest(workloads::generate_pangenome(spec)).graph;
}

TEST(Characterize, WorkloadIsMemoryBound) {
    const auto g = characterize_graph(20000);
    core::LayoutConfig cfg;
    memsim::CharacterizeOptions opt;
    opt.sample_updates = 200000;
    opt.llc_scale = 0.002;  // scaled graph -> scaled caches
    const auto ch = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, opt);
    // The paper reports 67-78% memory stall cycles and >50% memory-bound
    // slots on all graphs.
    EXPECT_GT(ch.memory_stall_pct, 50.0);
    EXPECT_GT(ch.llc_load_miss_rate, 0.3);
}

TEST(Characterize, MissRateGrowsWithGraphSize) {
    core::LayoutConfig cfg;
    memsim::CharacterizeOptions opt;
    opt.sample_updates = 150000;
    opt.llc_scale = 0.002;
    const auto small = memsim::characterize_cpu(characterize_graph(2000), cfg,
                                                memsim::CoordStore::kSoA, opt);
    const auto large = memsim::characterize_cpu(characterize_graph(40000), cfg,
                                                memsim::CoordStore::kSoA, opt);
    // Table II: LLC miss rate rises from 75% (small) to 90% (Chr.1).
    EXPECT_GT(large.llc_load_miss_rate, small.llc_load_miss_rate);
}

TEST(Characterize, CdlReducesLlcLoads) {
    const auto g = characterize_graph(20000);
    core::LayoutConfig cfg;
    memsim::CharacterizeOptions opt;
    opt.sample_updates = 200000;
    opt.llc_scale = 0.002;
    const auto soa = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, opt);
    const auto aos = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kAoS, opt);
    // Table IX: CDL cuts LLC loads ~3.2x and misses ~3.3x.
    EXPECT_GT(static_cast<double>(soa.llc.accesses),
              1.5 * static_cast<double>(aos.llc.accesses));
    EXPECT_GT(static_cast<double>(soa.llc.misses),
              1.5 * static_cast<double>(aos.llc.misses));
}

TEST(Characterize, CdlReducesModeledCycles) {
    const auto g = characterize_graph(20000);
    core::LayoutConfig cfg;
    memsim::CharacterizeOptions opt;
    opt.sample_updates = 200000;
    opt.llc_scale = 0.002;
    const auto soa = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kSoA, opt);
    const auto aos = memsim::characterize_cpu(g, cfg, memsim::CoordStore::kAoS, opt);
    EXPECT_LT(aos.cycles_per_update, soa.cycles_per_update);
    memsim::CpuPerfModel model;
    EXPECT_LT(model.seconds(aos, 1000000), model.seconds(soa, 1000000));
}

TEST(CpuPerfModel, LinearInUpdates) {
    memsim::CpuCharacterization ch;
    ch.cycles_per_update = 1000;
    memsim::CpuPerfModel model;
    const double t1 = model.seconds(ch, 1'000'000);
    const double t2 = model.seconds(ch, 2'000'000);
    EXPECT_NEAR(t2, 2 * t1, t1 * 1e-9);
}

}  // namespace

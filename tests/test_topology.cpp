// Tests for the NUMA topology layer: cpulist parsing, sysfs-fixture
// discovery, policy parsing, worker placement plans, placement resolution
// and the node-local allocator. Discovery is exercised against temp-dir
// fixtures shaped like /sys/devices/system/node, so the tests behave the
// same on a laptop, a restricted container, and a multi-socket box.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#include <unistd.h>
#endif

#include "core/config.hpp"
#include "core/layout.hpp"
#include "core/node_alloc.hpp"
#include "core/thread_pool.hpp"
#include "core/topology.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pgl;
namespace fs = std::filesystem;

using Cpus = std::vector<std::uint32_t>;

// --- parse_cpu_list ---

TEST(CpuList, ParsesRangesAndSingles) {
    EXPECT_EQ(core::parse_cpu_list("0-3,8,10-11"), (Cpus{0, 1, 2, 3, 8, 10, 11}));
    EXPECT_EQ(core::parse_cpu_list("5"), (Cpus{5}));
    EXPECT_EQ(core::parse_cpu_list("0\n"), (Cpus{0}));
    EXPECT_EQ(core::parse_cpu_list(" 2 , 4 "), (Cpus{2, 4}));
}

TEST(CpuList, SortsAndDeduplicates) {
    EXPECT_EQ(core::parse_cpu_list("8,0-2,1"), (Cpus{0, 1, 2, 8}));
}

TEST(CpuList, EmptyInputYieldsEmptyList) {
    EXPECT_TRUE(core::parse_cpu_list("").empty());
    EXPECT_TRUE(core::parse_cpu_list(" \n").empty());
}

TEST(CpuList, ThrowsOnMalformedInput) {
    EXPECT_THROW(core::parse_cpu_list("3-1"), std::invalid_argument);
    EXPECT_THROW(core::parse_cpu_list("x"), std::invalid_argument);
    EXPECT_THROW(core::parse_cpu_list("1-"), std::invalid_argument);
    // A stray comma is kernel-tolerated, not an error.
    EXPECT_EQ(core::parse_cpu_list("1,,2"), (Cpus{1, 2}));
}

// --- discovery against a sysfs-shaped fixture ---

class SysfsFixture {
public:
    SysfsFixture() {
        dir_ = fs::temp_directory_path() /
               ("pgl_topo_test_" + std::to_string(counter_++));
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_);
    }
    ~SysfsFixture() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    SysfsFixture(const SysfsFixture&) = delete;
    SysfsFixture& operator=(const SysfsFixture&) = delete;

    void write(const std::string& rel, const std::string& text) {
        const fs::path p = dir_ / rel;
        fs::create_directories(p.parent_path());
        std::ofstream(p) << text;
    }

    std::string path() const { return dir_.string(); }

private:
    fs::path dir_;
    static inline int counter_ = 0;
};

void fill_two_nodes(SysfsFixture& fx) {
    fx.write("online", "0-1\n");
    fx.write("node0/cpulist", "0-3\n");
    fx.write("node1/cpulist", "4-7\n");
}

TEST(Discovery, TwoNodesFullCpuset) {
    SysfsFixture fx;
    fill_two_nodes(fx);
    const core::Topology t =
        core::discover_topology_from(fx.path(), {0, 1, 2, 3, 4, 5, 6, 7});
    ASSERT_EQ(t.node_count(), 2u);
    EXPECT_EQ(t.nodes[0].os_id, 0u);
    EXPECT_EQ(t.nodes[0].cpus, (Cpus{0, 1, 2, 3}));
    EXPECT_EQ(t.nodes[1].os_id, 1u);
    EXPECT_EQ(t.nodes[1].cpus, (Cpus{4, 5, 6, 7}));
    EXPECT_EQ(t.allowed, (Cpus{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_FALSE(t.single_node());
}

TEST(Discovery, CpusetSubsetMasksNodeCpus) {
    SysfsFixture fx;
    fill_two_nodes(fx);
    // Allowed cpuset straddles both nodes but covers neither fully.
    const core::Topology t = core::discover_topology_from(fx.path(), {1, 2, 5});
    ASSERT_EQ(t.node_count(), 2u);
    EXPECT_EQ(t.nodes[0].cpus, (Cpus{1, 2}));
    EXPECT_EQ(t.nodes[1].cpus, (Cpus{5}));
    EXPECT_EQ(t.allowed, (Cpus{1, 2, 5}));
}

TEST(Discovery, CpusetOnOneNodeCollapsesToSingleNode) {
    SysfsFixture fx;
    fill_two_nodes(fx);
    // Every allowed CPU on node 1: node 0 is dropped, the view stays dense.
    const core::Topology t = core::discover_topology_from(fx.path(), {4, 6});
    ASSERT_EQ(t.node_count(), 1u);
    EXPECT_EQ(t.nodes[0].os_id, 1u);
    EXPECT_EQ(t.nodes[0].cpus, (Cpus{4, 6}));
    EXPECT_TRUE(t.single_node());
}

TEST(Discovery, MissingDirFallsBackToOneNode) {
    const core::Topology t =
        core::discover_topology_from("/nonexistent/pgl_topo", {0, 1, 2});
    ASSERT_EQ(t.node_count(), 1u);
    EXPECT_EQ(t.nodes[0].os_id, 0u);
    EXPECT_EQ(t.nodes[0].cpus, (Cpus{0, 1, 2}));
    EXPECT_EQ(t.allowed, (Cpus{0, 1, 2}));
}

TEST(Discovery, GarbageSysfsFallsBackToOneNode) {
    SysfsFixture fx;
    fx.write("online", "not a cpulist\n");
    const core::Topology t = core::discover_topology_from(fx.path(), {0, 1});
    ASSERT_EQ(t.node_count(), 1u);
    EXPECT_EQ(t.nodes[0].cpus, (Cpus{0, 1}));
}

TEST(Discovery, NodeMissingCpulistFallsBack) {
    SysfsFixture fx;
    fx.write("online", "0-1\n");
    fx.write("node0/cpulist", "0-1\n");
    // node1/cpulist missing entirely: discovery must not invent a machine.
    const core::Topology t = core::discover_topology_from(fx.path(), {0, 1, 2, 3});
    ASSERT_EQ(t.node_count(), 1u);
    EXPECT_EQ(t.allowed, (Cpus{0, 1, 2, 3}));
}

TEST(Discovery, ProcessTopologyIsCachedAndNonEmpty) {
    const core::Topology& a = core::discover_topology();
    const core::Topology& b = core::discover_topology();
    EXPECT_EQ(&a, &b);
    ASSERT_GE(a.node_count(), 1u);
    EXPECT_GE(a.allowed_cpu_count(), 1u);
    EXPECT_FALSE(a.nodes[0].cpus.empty());
}

TEST(Discovery, AllowedCpusSelfIsNonEmptyAndSorted) {
    const Cpus cpus = core::allowed_cpus_self();
    ASSERT_FALSE(cpus.empty());
    EXPECT_TRUE(std::is_sorted(cpus.begin(), cpus.end()));
}

// --- parse_numa_policy ---

TEST(NumaPolicy, ParsesAllForms) {
    EXPECT_EQ(core::parse_numa_policy("off").mode, core::NumaMode::kOff);
    EXPECT_EQ(core::parse_numa_policy("auto").mode, core::NumaMode::kAuto);
    EXPECT_EQ(core::parse_numa_policy("interleave").mode,
              core::NumaMode::kInterleave);
    const core::NumaPolicy p = core::parse_numa_policy("node:3");
    EXPECT_EQ(p.mode, core::NumaMode::kNode);
    EXPECT_EQ(p.node, 3u);
    EXPECT_FALSE(core::parse_numa_policy("off").active());
    EXPECT_TRUE(core::parse_numa_policy("auto").active());
}

TEST(NumaPolicy, RoundTripsThroughToString) {
    for (const char* s : {"off", "auto", "interleave", "node:2"}) {
        EXPECT_EQ(core::to_string(core::parse_numa_policy(s)), s);
    }
}

TEST(NumaPolicy, ThrowsOnMalformedInput) {
    EXPECT_THROW(core::parse_numa_policy(""), std::invalid_argument);
    EXPECT_THROW(core::parse_numa_policy("bogus"), std::invalid_argument);
    EXPECT_THROW(core::parse_numa_policy("node:"), std::invalid_argument);
    EXPECT_THROW(core::parse_numa_policy("node:x"), std::invalid_argument);
    EXPECT_THROW(core::parse_numa_policy("NODE:1"), std::invalid_argument);
}

// --- plan_worker_placement ---

core::Topology two_node_topology() {
    core::Topology t;
    t.nodes = {{0, {0, 1, 2, 3}}, {1, {4, 5, 6, 7}}};
    t.allowed = {0, 1, 2, 3, 4, 5, 6, 7};
    return t;
}

std::vector<std::uint32_t> plan_nodes(const core::WorkerPlacement& p) {
    std::vector<std::uint32_t> out;
    for (const auto& s : p.slots) out.push_back(s.node);
    return out;
}

TEST(Placement, AutoFillsContiguousBlocksPerNode) {
    const auto t = two_node_topology();
    const auto p = core::plan_worker_placement(t, {core::NumaMode::kAuto, 0}, 4);
    ASSERT_EQ(p.slots.size(), 4u);
    EXPECT_EQ(plan_nodes(p), (Cpus{0, 0, 1, 1}));
    EXPECT_EQ(p.slots[0].cpu, 0u);
    EXPECT_EQ(p.slots[1].cpu, 1u);
    EXPECT_EQ(p.slots[2].cpu, 4u);
    EXPECT_EQ(p.slots[3].cpu, 5u);
}

TEST(Placement, AutoGivesRemainderToFirstNodes) {
    const auto t = two_node_topology();
    // 3 workers over 2 nodes: shard_share hands the extra to node 0.
    const auto p = core::plan_worker_placement(t, {core::NumaMode::kAuto, 0}, 3);
    EXPECT_EQ(plan_nodes(p), (Cpus{0, 0, 1}));
}

TEST(Placement, InterleaveAlternatesNodes) {
    const auto t = two_node_topology();
    const auto p =
        core::plan_worker_placement(t, {core::NumaMode::kInterleave, 0}, 4);
    EXPECT_EQ(plan_nodes(p), (Cpus{0, 1, 0, 1}));
    EXPECT_EQ(p.slots[0].cpu, 0u);
    EXPECT_EQ(p.slots[1].cpu, 4u);
    EXPECT_EQ(p.slots[2].cpu, 1u);
    EXPECT_EQ(p.slots[3].cpu, 5u);
}

TEST(Placement, NodePolicyPutsEveryWorkerOnThatNode) {
    const auto t = two_node_topology();
    const auto p = core::plan_worker_placement(t, {core::NumaMode::kNode, 1}, 3);
    EXPECT_EQ(plan_nodes(p), (Cpus{1, 1, 1}));
    EXPECT_EQ(p.slots[0].cpu, 4u);
    EXPECT_EQ(p.slots[1].cpu, 5u);
    EXPECT_EQ(p.slots[2].cpu, 6u);
}

TEST(Placement, CpusWrapWhenWorkersExceedNodeCpus) {
    core::Topology t;
    t.nodes = {{0, {0, 1}}};
    t.allowed = {0, 1};
    const auto p = core::plan_worker_placement(t, {core::NumaMode::kAuto, 0}, 5);
    ASSERT_EQ(p.slots.size(), 5u);
    EXPECT_EQ(p.slots[0].cpu, 0u);
    EXPECT_EQ(p.slots[1].cpu, 1u);
    EXPECT_EQ(p.slots[2].cpu, 0u);
    EXPECT_EQ(p.slots[4].cpu, 0u);
}

TEST(Placement, DescribeIsStable) {
    const auto t = two_node_topology();
    const auto p = core::plan_worker_placement(t, {core::NumaMode::kAuto, 0}, 2);
    EXPECT_EQ(p.describe(), "0@0,4@1");
}

// --- resolve_placement ---

TEST(ResolvePlacement, BothKnobsOffIsInert) {
    core::LayoutConfig cfg;
    const auto ctx = core::resolve_placement(cfg, 4);
    EXPECT_FALSE(ctx.active());
    EXPECT_FALSE(ctx.memory_active());
    EXPECT_EQ(ctx.topo, nullptr);
    EXPECT_TRUE(ctx.plan.empty());
    EXPECT_TRUE(ctx.mem_nodes.empty());
}

TEST(ResolvePlacement, NumaWithoutPinPlacesMemoryOnly) {
    core::LayoutConfig cfg;
    cfg.numa = "interleave";
    const auto ctx = core::resolve_placement(cfg, 4);
    EXPECT_TRUE(ctx.active());
    EXPECT_TRUE(ctx.memory_active());
    ASSERT_NE(ctx.topo, nullptr);
    EXPECT_TRUE(ctx.plan.empty());  // no pin -> no worker plan
    EXPECT_EQ(ctx.mem_nodes.size(), ctx.topo->node_count());
}

TEST(ResolvePlacement, OutOfRangeNodeDegradesModulo) {
    core::LayoutConfig cfg;
    cfg.numa = "node:1000000";
    const auto ctx = core::resolve_placement(cfg, 2);
    ASSERT_NE(ctx.topo, nullptr);
    ASSERT_EQ(ctx.mem_nodes.size(), 1u);
    EXPECT_LT(ctx.mem_nodes[0], ctx.topo->node_count());
    EXPECT_EQ(ctx.mem_nodes[0], 1000000u % ctx.topo->node_count());
}

TEST(ResolvePlacement, MalformedPolicyThrows) {
    core::LayoutConfig cfg;
    cfg.numa = "bogus";
    EXPECT_THROW(core::resolve_placement(cfg, 2), std::invalid_argument);
}

TEST(ResolvePlacement, PageNodeRotatesOverMemNodes) {
    core::PlacementContext ctx;
    ctx.mem_nodes = {0, 1};
    EXPECT_EQ(ctx.page_node(0), 0u);
    EXPECT_EQ(ctx.page_node(1), 1u);
    EXPECT_EQ(ctx.page_node(2), 0u);
    ctx.mem_nodes.clear();
    EXPECT_EQ(ctx.page_node(7), 0u);  // policy off: everything "node 0"
}

TEST(ResolvePlacement, KeySeparatesDistinctPlacements) {
    core::LayoutConfig off, pin, node;
    pin.pin = true;
    node.numa = "node:0";
    const auto k_off = core::resolve_placement(off, 2).key();
    const auto k_pin = core::resolve_placement(pin, 2).key();
    const auto k_node = core::resolve_placement(node, 2).key();
    EXPECT_NE(k_off, k_pin);
    EXPECT_NE(k_off, k_node);
    EXPECT_NE(k_pin, k_node);
}

// --- NodeAllocator ---

TEST(NodeAllocator, BlocksAreZeroedAndWritable) {
    core::LayoutConfig cfg;
    cfg.numa = "auto";
    cfg.pin = true;
    const auto ctx = core::resolve_placement(cfg, 2);
    core::ThreadPool pool(2, ctx.plan);
    core::NodeAllocator alloc(ctx, pool);
    core::PlacedBlock blk = alloc.allocate_floats(10000);
    ASSERT_TRUE(static_cast<bool>(blk));
    float* p = blk.floats();
    for (std::size_t i = 0; i < 10000; ++i) ASSERT_EQ(p[i], 0.0f) << i;
    for (std::size_t i = 0; i < 10000; ++i) p[i] = static_cast<float>(i);
    EXPECT_EQ(p[9999], 9999.0f);
}

TEST(NodeAllocator, PlacedStoreMatchesVectorStore) {
    core::LayoutConfig cfg;
    cfg.numa = "interleave";
    const auto ctx = core::resolve_placement(cfg, 2);
    core::ThreadPool pool(2, ctx.plan);
    core::NodeAllocator alloc(ctx, pool);

    core::Layout init;
    init.resize(100);
    for (std::size_t i = 0; i < 100; ++i) {
        init[i].sx = static_cast<float>(i);
        init[i].sy = 0.5f * static_cast<float>(i);
        init[i].ex = static_cast<float>(i) + 1.0f;
        init[i].ey = 0.5f * static_cast<float>(i) + 2.0f;
    }
    core::XYStore placed, plain;
    placed.load(init, alloc);
    plain.load(init);
    ASSERT_EQ(placed.node_count(), plain.node_count());
    for (std::uint32_t n = 0; n < placed.node_count(); ++n) {
        for (const auto e : {core::End::kStart, core::End::kEnd}) {
            EXPECT_EQ(placed.load_x(n, e), plain.load_x(n, e));
            EXPECT_EQ(placed.load_y(n, e), plain.load_y(n, e));
        }
    }
    EXPECT_EQ(std::memcmp(placed.data(), plain.data(),
                          placed.node_count() * sizeof(core::Segment)),
              0);
    // Copying a placed store deep-copies to plain heap; bytes survive.
    const core::XYStore copy = placed;
    EXPECT_EQ(copy.load_x(42, core::End::kEnd), plain.load_x(42, core::End::kEnd));
    EXPECT_EQ(copy.snapshot(), init);
}

#ifndef PGL_TELEMETRY_DISABLED
TEST(NodeAllocator, AccountsBytesPerNode) {
    auto& reg = telemetry::Registry::instance();
    const auto& topo = core::discover_topology();
    const std::string name =
        "alloc.node" + std::to_string(topo.nodes[0].os_id) + ".bytes";
    const std::uint64_t before = reg.counter(name).value();

    core::LayoutConfig cfg;
    cfg.numa = "node:0";
    const auto ctx = core::resolve_placement(cfg, 1);
    core::ThreadPool pool(0, {});
    core::NodeAllocator alloc(ctx, pool);
    const auto blk = alloc.allocate_floats(1024);
    EXPECT_GE(reg.counter(name).value(), before + 1024 * sizeof(float));
}
#endif

// --- ThreadPool pinning ---

TEST(ThreadPoolPin, FailedPinContinuesUnpinned) {
#ifndef PGL_TELEMETRY_DISABLED
    const std::uint64_t before =
        telemetry::Registry::instance().counter("pool.pin.failures").value();
#endif
    // CPU 1 << 20 exists on no machine this test will ever run on, so the
    // pin fails — the contract is the job still runs to completion.
    core::WorkerPlacement plan;
    plan.slots = {{1u << 20, 0}, {1u << 20, 0}};
    core::ThreadPool pool(2, plan);
    std::atomic<std::uint32_t> ran{0};
    pool.run([&](std::uint32_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 2u);
    EXPECT_TRUE(pool.pinning_requested());
#ifndef PGL_TELEMETRY_DISABLED
    EXPECT_GE(
        telemetry::Registry::instance().counter("pool.pin.failures").value(),
        before + 2);
#endif
}

TEST(ThreadPoolPin, SuccessfulPinLandsOnRequestedCpu) {
#if defined(__linux__)
    const Cpus allowed = core::allowed_cpus_self();
    ASSERT_FALSE(allowed.empty());
    core::WorkerPlacement plan;
    plan.slots = {{allowed[0], 0}};
    core::ThreadPool pool(1, plan);
    std::atomic<int> cpu{-1};
    pool.run([&](std::uint32_t) { cpu.store(sched_getcpu()); });
    EXPECT_EQ(cpu.load(), static_cast<int>(allowed[0]));
    EXPECT_EQ(pool.worker_node(0), 0u);
#else
    GTEST_SKIP() << "pinning is Linux-only";
#endif
}

TEST(ThreadPoolPin, UnpinnedPoolReportsNodeZero) {
    core::ThreadPool pool(2);
    EXPECT_FALSE(pool.pinning_requested());
    EXPECT_EQ(pool.worker_node(0), 0u);
    EXPECT_EQ(pool.worker_node(1), 0u);
}

}  // namespace

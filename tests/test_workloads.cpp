// Tests for the synthetic pangenome generator — the HPRC-dataset
// substitute must produce structurally valid graphs whose statistics match
// the paper's dataset profile (Table I / Table VI).
#include <gtest/gtest.h>

#include "graph/lean_graph.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using workloads::PangenomeSpec;

TEST(Workloads, GraphIsStructurallyValid) {
    PangenomeSpec spec;
    spec.backbone_nodes = 2000;
    spec.n_paths = 10;
    spec.seed = 1;
    const auto g = workloads::generate_pangenome(spec);
    EXPECT_EQ(g.validate(), "");
}

TEST(Workloads, DeterministicForSeed) {
    PangenomeSpec spec;
    spec.backbone_nodes = 500;
    spec.n_paths = 4;
    spec.seed = 7;
    const auto a = workloads::generate_pangenome(spec);
    const auto b = workloads::generate_pangenome(spec);
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.edge_count(), b.edge_count());
    EXPECT_EQ(a.total_path_steps(), b.total_path_steps());
    for (graph::NodeId i = 0; i < a.node_count(); ++i) {
        ASSERT_EQ(a.sequence(i), b.sequence(i));
    }
}

TEST(Workloads, DifferentSeedsDiffer) {
    PangenomeSpec spec;
    spec.backbone_nodes = 500;
    spec.n_paths = 4;
    spec.seed = 7;
    const auto a = workloads::generate_pangenome(spec);
    spec.seed = 8;
    const auto b = workloads::generate_pangenome(spec);
    EXPECT_NE(a.edge_count(), b.edge_count());
}

TEST(Workloads, AllPathsShareSourceNode) {
    PangenomeSpec spec;
    spec.backbone_nodes = 300;
    spec.n_paths = 6;
    spec.seed = 2;
    const auto g = workloads::generate_pangenome(spec);
    for (std::size_t p = 0; p < g.path_count(); ++p) {
        EXPECT_EQ(g.path(p).steps.front().id(), 0u);
    }
}

TEST(Workloads, HlaPresetMatchesTableOne) {
    const auto g = workloads::generate_pangenome(workloads::hla_drb1_spec());
    const auto s = g.stats();
    // Table I: 5.0e3 nodes, 6.8e3 edges, 12 paths, 2.2e4 nucleotides.
    EXPECT_NEAR(static_cast<double>(s.nodes), 5.0e3, 5.0e3 * 0.25);
    EXPECT_NEAR(static_cast<double>(s.edges), 6.8e3, 6.8e3 * 0.25);
    EXPECT_EQ(s.paths, 12u);
    EXPECT_NEAR(static_cast<double>(s.nucleotides), 2.2e4, 2.2e4 * 0.4);
    EXPECT_EQ(g.validate(), "");
}

TEST(Workloads, EdgeNodeRatioMatchesHprc) {
    // HPRC chromosome graphs have edges/nodes ~ 1.36-1.4.
    for (int k : {1, 12, 24}) {
        const auto g = workloads::generate_pangenome(
            workloads::chromosome_spec(k, 0.002));
        const auto s = g.stats();
        const double ratio =
            static_cast<double>(s.edges) / static_cast<double>(s.nodes);
        EXPECT_GT(ratio, 1.2) << "chr " << k;
        EXPECT_LT(ratio, 1.55) << "chr " << k;
    }
}

TEST(Workloads, ChromosomeSizesFollowWeights) {
    const auto big = workloads::generate_pangenome(workloads::chromosome_spec(1, 0.002));
    const auto small =
        workloads::generate_pangenome(workloads::chromosome_spec(24, 0.002));
    EXPECT_GT(big.node_count(), 5 * small.node_count());
}

TEST(Workloads, ChromosomeNames) {
    EXPECT_EQ(workloads::chromosome_name(1), "Chr.1");
    EXPECT_EQ(workloads::chromosome_name(22), "Chr.22");
    EXPECT_EQ(workloads::chromosome_name(23), "Chr.X");
    EXPECT_EQ(workloads::chromosome_name(24), "Chr.Y");
}

TEST(Workloads, InversionProducesReverseSteps) {
    PangenomeSpec spec;
    spec.backbone_nodes = 3000;
    spec.n_paths = 8;
    spec.inv_rate = 0.05;  // force plenty of inversions
    spec.seed = 3;
    const auto g = workloads::generate_pangenome(spec);
    std::uint64_t reverse_steps = 0;
    for (std::size_t p = 0; p < g.path_count(); ++p) {
        for (const auto& h : g.path(p).steps) reverse_steps += h.is_reverse();
    }
    EXPECT_GT(reverse_steps, 0u);
    EXPECT_EQ(g.validate(), "");
}

TEST(Workloads, LoopsRevisitNodes) {
    PangenomeSpec spec;
    spec.backbone_nodes = 3000;
    spec.n_paths = 4;
    spec.loop_rate = 0.05;
    spec.allele_frequency = 0.9;
    spec.seed = 4;
    const auto g = workloads::generate_pangenome(spec);
    // A tandem duplication makes some path longer than its distinct nodes.
    bool found_revisit = false;
    for (std::size_t p = 0; p < g.path_count() && !found_revisit; ++p) {
        std::vector<bool> seen(g.node_count(), false);
        for (const auto& h : g.path(p).steps) {
            if (seen[h.id()]) {
                found_revisit = true;
                break;
            }
            seen[h.id()] = true;
        }
    }
    EXPECT_TRUE(found_revisit);
    EXPECT_EQ(g.validate(), "");
}

TEST(Workloads, InsertionsAndDeletionsVaryPathLengths) {
    PangenomeSpec spec;
    spec.backbone_nodes = 2000;
    spec.n_paths = 10;
    spec.ins_rate = 0.05;
    spec.del_rate = 0.05;
    spec.seed = 5;
    const auto g = workloads::generate_pangenome(spec);
    std::size_t min_len = SIZE_MAX, max_len = 0;
    for (std::size_t p = 0; p < g.path_count(); ++p) {
        min_len = std::min(min_len, g.path(p).steps.size());
        max_len = std::max(max_len, g.path(p).steps.size());
    }
    EXPECT_LT(min_len, max_len);
}

// Parameterized sweep: every (backbone, paths) combination must generate a
// valid graph whose lean form is internally consistent.
class WorkloadSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(WorkloadSweep, ValidAndLeanConsistent) {
    const auto [backbone, paths] = GetParam();
    PangenomeSpec spec;
    spec.backbone_nodes = backbone;
    spec.n_paths = paths;
    spec.seed = backbone * 31 + paths;
    const auto g = workloads::generate_pangenome(spec);
    ASSERT_EQ(g.validate(), "");
    const auto lg = workloads::to_ingest(g).graph;
    ASSERT_EQ(lg.path_count(), g.path_count());
    ASSERT_EQ(lg.total_path_steps(), g.total_path_steps());
    for (std::uint32_t p = 0; p < lg.path_count(); ++p) {
        const std::uint32_t n = lg.path_step_count(p);
        ASSERT_EQ(n, g.path(p).steps.size());
        std::uint64_t pos = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(lg.step_position(p, i), pos);
            pos += lg.node_length(lg.step_node(p, i));
        }
        ASSERT_EQ(lg.path_nuc_length(p), pos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, WorkloadSweep,
    ::testing::Combine(::testing::Values(2ULL, 16ULL, 100ULL, 1000ULL),
                       ::testing::Values(1u, 2u, 7u, 20u)));

}  // namespace

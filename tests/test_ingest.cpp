// Tests for the streaming ingestion subsystem: the gfa_stream reader
// (GFA 1.0 P records, GFA 1.1 W walks, CRLF tolerance, malformed-input
// rejection), its block reader's edge cases (lines longer than a block,
// CRLF split across blocks, missing final newline, empty input), the
// segment-name table, its component labels against a BFS reference on
// random multi-component GFA, and the .pgg binary graph cache (round trip,
// truncation, corruption, checksum, inconsistent component labels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "graph/gfa_util.hpp"
#include "graph/lean_graph.hpp"
#include "io/pgg_io.hpp"
#include "partition/components.hpp"
#include "rng/splitmix64.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pgl;
using graph::LeanGraph;
using graph::LeanIngest;

/// Asserts two lean graphs are bit-identical in every field the engines
/// and the partition subsystem consume.
void expect_same_lean(const LeanGraph& a, const LeanGraph& b) {
    ASSERT_EQ(a.node_count(), b.node_count());
    ASSERT_EQ(a.path_count(), b.path_count());
    ASSERT_EQ(a.total_path_steps(), b.total_path_steps());
    EXPECT_EQ(a.total_path_nucleotides(), b.total_path_nucleotides());
    EXPECT_EQ(a.max_path_nuc_length(), b.max_path_nuc_length());
    for (std::uint32_t v = 0; v < a.node_count(); ++v) {
        ASSERT_EQ(a.node_length(v), b.node_length(v)) << "node " << v;
    }
    for (std::uint32_t p = 0; p < a.path_count(); ++p) {
        ASSERT_EQ(a.path_step_count(p), b.path_step_count(p)) << "path " << p;
        EXPECT_EQ(a.path_nuc_length(p), b.path_nuc_length(p));
        for (std::uint32_t i = 0; i < a.path_step_count(p); ++i) {
            const auto& ra = a.step_record(p, i);
            const auto& rb = b.step_record(p, i);
            ASSERT_EQ(ra.node, rb.node) << "path " << p << " step " << i;
            ASSERT_EQ(ra.orient, rb.orient);
            ASSERT_EQ(ra.position, rb.position);
        }
    }
}

const std::string kMiniGfa =
    "H\tVN:Z:1.0\n"
    "S\ts1\tACGT\n"
    "S\ts2\tTT\n"
    "S\ts3\tG\n"
    "L\ts1\t+\ts2\t-\t0M\n"
    "L\ts2\t+\ts3\t+\t0M\n"
    "P\tp1\ts1+,s2-,s3+\t*\n"
    "P\tp2\ts1+,s2+\t*\n";

// --- streaming reader basics ---

TEST(GfaStream, ParsesSegmentsLinksPaths) {
    std::stringstream ss(kMiniGfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.node_count(), 3u);
    EXPECT_EQ(ing.graph.path_count(), 2u);
    EXPECT_EQ(ing.graph.total_path_steps(), 5u);
    EXPECT_EQ(ing.edge_count, 2u);
    ASSERT_EQ(ing.segment_names.size(), 3u);
    EXPECT_EQ(ing.segment_names[0], "s1");
    EXPECT_EQ(ing.segment_names[2], "s3");
    ASSERT_EQ(ing.path_names.size(), 2u);
    EXPECT_EQ(ing.path_names[0], "p1");
    // Orientation and positions of p1 = s1(4) s2rev(2) s3(1).
    EXPECT_FALSE(ing.graph.step_is_reverse(0, 0));
    EXPECT_TRUE(ing.graph.step_is_reverse(0, 1));
    EXPECT_EQ(ing.graph.step_position(0, 1), 4u);
    EXPECT_EQ(ing.graph.step_position(0, 2), 6u);
    EXPECT_EQ(ing.graph.path_nuc_length(0), 7u);
    // One connected component; every node and path labeled 0.
    EXPECT_EQ(ing.component_count, 1u);
    EXPECT_EQ(ing.node_component, (std::vector<std::uint32_t>{0, 0, 0}));
    EXPECT_EQ(ing.path_component, (std::vector<std::uint32_t>{0, 0}));
}

TEST(GfaStream, ParsesWalkRecords) {
    const std::string gfa =
        "H\tVN:Z:1.1\n"
        "S\ts1\tACGT\n"
        "S\ts2\tTT\n"
        "S\ts3\tG\n"
        "W\tHG002\t1\tchr1\t0\t7\t>s1<s2>s3\n"
        "W\tHG002\t2\tchr1\t*\t*\t>s1>s2\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.path_count(), 2u);
    EXPECT_EQ(ing.path_names[0], "HG002#1#chr1:0-7");
    EXPECT_EQ(ing.path_names[1], "HG002#2#chr1");  // '*' range omitted
    EXPECT_FALSE(ing.graph.step_is_reverse(0, 0));
    EXPECT_TRUE(ing.graph.step_is_reverse(0, 1));   // '<' = reverse
    EXPECT_FALSE(ing.graph.step_is_reverse(0, 2));
    EXPECT_EQ(ing.graph.path_nuc_length(0), 7u);
    // Walk steps connect the component even without L records.
    EXPECT_EQ(ing.component_count, 1u);
}

TEST(GfaStream, ToleratesCrlfAndTrailingWhitespace) {
    std::string crlf;
    for (const char c : kMiniGfa) {
        if (c == '\n') crlf += "\r\n";
        else crlf += c;
    }
    std::stringstream unix_ss(kMiniGfa), crlf_ss(crlf);
    const auto a = graph::ingest_gfa(unix_ss);
    const auto b = graph::ingest_gfa(crlf_ss);
    expect_same_lean(a.graph, b.graph);
    EXPECT_EQ(a.segment_names, b.segment_names);  // no '\r' in names
    EXPECT_EQ(a.path_names, b.path_names);
}

TEST(GfaStream, HonorsLnLengthTagOnSequenceFreeSegments) {
    const std::string gfa =
        "S\ts1\t*\tLN:i:123\n"
        "S\ts2\t*\n"
        "P\tp\ts1+,s2+\t*\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.graph.node_length(0), 123u);
    EXPECT_EQ(ing.graph.node_length(1), 0u);
}

TEST(GfaStream, LabelsMultipleComponents) {
    const std::string gfa =
        "S\ta1\tAA\n"
        "S\ta2\tCC\n"
        "S\tb1\tGG\n"
        "S\tb2\tTT\n"
        "S\tlonely\tA\n"
        "L\ta1\t+\ta2\t+\t0M\n"
        "P\tpb\tb1+,b2+\t*\n";
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    // Components numbered by smallest node id: {a1,a2}=0, {b1,b2}=1,
    // {lonely}=2.
    EXPECT_EQ(ing.component_count, 3u);
    EXPECT_EQ(ing.node_component, (std::vector<std::uint32_t>{0, 0, 1, 1, 2}));
    EXPECT_EQ(ing.path_component, (std::vector<std::uint32_t>{1}));
}

// --- component labels against a BFS reference on random GFA ---

/// A random multi-component GFA, in the shape of a components workload:
/// nodes are dealt to `blocks` interleaved blocks (so components are not
/// id ranges), each block gets random in-block links and walks, and a
/// `cross_share` of the links join two blocks instead. A `link_only_share`
/// of the nodes is never walked and a `single_step_share` of the walks has
/// one step. Keeps the adjacency it wrote, for the reference labeller.
struct RandomGfa {
    std::string text;
    std::uint32_t nodes = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
    std::vector<std::vector<graph::Handle>> walks;
};

RandomGfa random_gfa(std::uint64_t seed, double cross_share, double link_only_share,
                     double single_step_share) {
    rng::SplitMix64 rng(seed);
    const auto below = [&](std::uint64_t n) { return rng.next() % n; };
    const auto chance = [&](double p) {
        return static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < p;
    };
    RandomGfa out;
    out.nodes = 8 + static_cast<std::uint32_t>(below(56));
    const auto blocks = 1 + static_cast<std::uint32_t>(below(6));
    std::vector<std::vector<std::uint32_t>> walkable(blocks), members(blocks);
    for (std::uint32_t v = 0; v < out.nodes; ++v) {
        const auto b = static_cast<std::uint32_t>(below(blocks));
        members[b].push_back(v);
        if (!chance(link_only_share)) walkable[b].push_back(v);
        out.text += "S\tn" + std::to_string(v) + "\t" +
                    std::string(1 + below(5), 'A') + "\n";
    }
    const auto n_links = below(out.nodes);
    for (std::uint64_t k = 0; k < n_links; ++k) {
        const auto& from = members[below(blocks)];
        const auto& to = chance(cross_share) ? members[below(blocks)] : from;
        if (from.empty() || to.empty()) continue;
        const std::uint32_t u = from[below(from.size())], v = to[below(to.size())];
        out.links.emplace_back(u, v);
        out.text += "L\tn" + std::to_string(u) + (chance(0.5) ? "\t+" : "\t-") +
                    "\tn" + std::to_string(v) + (chance(0.5) ? "\t+" : "\t-") +
                    "\t0M\n";
    }
    const auto n_walks = below(2 * blocks + 1);
    for (std::uint64_t w = 0; w < n_walks; ++w) {
        const auto& pool = walkable[below(blocks)];
        if (pool.empty()) continue;
        const auto len = chance(single_step_share) ? 1 : 2 + below(10);
        std::vector<graph::Handle> walk;
        for (std::uint64_t i = 0; i < len; ++i) {
            walk.push_back(graph::Handle::make(pool[below(pool.size())], chance(0.3)));
        }
        const std::string name = "w" + std::to_string(out.walks.size());
        if (chance(0.5)) {
            out.text += "P\t" + name + "\t";
            for (std::size_t i = 0; i < walk.size(); ++i) {
                out.text += (i ? ",n" : "n") + std::to_string(walk[i].id()) +
                            (walk[i].is_reverse() ? "-" : "+");
            }
            out.text += "\t*\n";
        } else {
            out.text += "W\t" + name + "\t0\tchr\t*\t*\t";
            for (const graph::Handle h : walk) {
                out.text += (h.is_reverse() ? "<n" : ">n") + std::to_string(h.id());
            }
            out.text += "\n";
        }
        out.walks.push_back(std::move(walk));
    }
    return out;
}

/// Reference labeller: breadth-first search over links plus step
/// adjacency, components numbered by smallest node id.
partition::ComponentLabels bfs_labels(const RandomGfa& g) {
    std::vector<std::vector<std::uint32_t>> adj(g.nodes);
    const auto join = [&](std::uint32_t u, std::uint32_t v) {
        adj[u].push_back(v);
        adj[v].push_back(u);
    };
    for (const auto& [u, v] : g.links) join(u, v);
    for (const auto& walk : g.walks) {
        for (std::size_t i = 1; i < walk.size(); ++i) join(walk[i - 1].id(), walk[i].id());
    }
    constexpr std::uint32_t kUnseen = 0xFFFFFFFFu;
    partition::ComponentLabels labels;
    labels.node_component.assign(g.nodes, kUnseen);
    for (std::uint32_t s = 0; s < g.nodes; ++s) {
        if (labels.node_component[s] != kUnseen) continue;
        std::vector<std::uint32_t> queue{s};
        labels.node_component[s] = labels.count;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const std::uint32_t v : adj[queue[head]]) {
                if (labels.node_component[v] == kUnseen) {
                    labels.node_component[v] = labels.count;
                    queue.push_back(v);
                }
            }
        }
        ++labels.count;
    }
    for (const auto& walk : g.walks) {
        labels.path_component.push_back(labels.node_component[walk.front().id()]);
    }
    return labels;
}

TEST(GfaStream, ComponentLabelsMatchBfsOnRandomGraphs) {
    struct Mix {
        double cross, link_only, single_step;
    };
    std::uint64_t seed = 0x5EED;
    int multi_component = 0, with_walks = 0;
    for (const Mix mix : {Mix{0.0, 0.0, 0.0}, Mix{0.1, 0.2, 0.2}, Mix{0.5, 0.5, 0.5}}) {
        for (int round = 0; round < 100; ++round) {
            const RandomGfa g =
                random_gfa(++seed, mix.cross, mix.link_only, mix.single_step);
            std::stringstream ss(g.text);
            LeanIngest ing = graph::ingest_gfa(ss);
            const auto want = bfs_labels(g);
            ASSERT_EQ(ing.component_count, want.count) << g.text;
            ASSERT_EQ(ing.node_component, want.node_component) << g.text;
            ASSERT_EQ(ing.path_component, want.path_component) << g.text;
            multi_component += want.count > 1;
            with_walks += !g.walks.empty();

            // The decomposition gives back every global walk.
            const auto d = partition::decompose(ing.graph, partition::take_labels(ing));
            ASSERT_EQ(d.count(), want.count);
            std::vector<bool> seen(g.walks.size(), false);
            for (const auto& comp : d.components) {
                for (std::uint32_t lp = 0; lp < comp.graph.path_count(); ++lp) {
                    const std::uint32_t p = comp.global_path[lp];
                    seen[p] = true;
                    const auto& walk = g.walks[p];
                    ASSERT_EQ(comp.graph.path_step_count(lp), walk.size());
                    for (std::uint32_t i = 0; i < walk.size(); ++i) {
                        const graph::NodeId local = comp.graph.step_node(lp, i);
                        ASSERT_EQ(comp.global_node[local], walk[i].id());
                        ASSERT_EQ(d.local_node[walk[i].id()], local);
                        ASSERT_EQ(comp.graph.step_is_reverse(lp, i), walk[i].is_reverse());
                        ASSERT_EQ(comp.graph.step_position(lp, i),
                                  ing.graph.step_position(p, i));
                    }
                }
            }
            EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
        }
    }
    // The generator exercises what it claims to.
    EXPECT_GT(multi_component, 100);
    EXPECT_GT(with_walks, 100);
}

// --- malformed input rejection ---

TEST(GfaStream, RejectsDuplicateSegments) {
    std::stringstream ss("S\tx\tA\nS\tx\tC\n");
    EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInLink) {
    std::stringstream ss("S\tx\tA\nL\tx\t+\tmissing\t+\t0M\n");
    EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInPathAndWalk) {
    {
        std::stringstream ss("S\tx\tA\nP\tp\tx+,missing+\t*\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\t>x>missing\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
}

TEST(GfaStream, RejectsEmptyPathAndWalk) {
    {
        std::stringstream ss("S\tx\tA\nP\tp\t\t*\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t0\t*\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
}

TEST(GfaStream, RejectsBadOrientationAndMalformedWalk) {
    {
        std::stringstream ss("S\tx\tA\nS\ty\tC\nL\tx\t?\ty\t+\t0M\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\tx>\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
    {
        std::stringstream ss("S\tx\tA\nW\ts\t1\tc\t0\t1\t><\n");
        EXPECT_THROW(graph::ingest_gfa(ss), std::runtime_error);
    }
}

TEST(GfaStream, WalkAndPathRecordsYieldIdenticalStepRecords) {
    const std::string base =
        "S\ts1\tACGT\nS\ts2\tTT\nS\ts3\tG\n";
    std::stringstream p_ss(base + "P\tw\ts1+,s2-,s3+\t*\n");
    std::stringstream w_ss(base + "W\tsamp\t1\tchr\t0\t7\t>s1<s2>s3\n");
    const auto via_p = graph::ingest_gfa(p_ss);
    const auto via_w = graph::ingest_gfa(w_ss);
    expect_same_lean(via_p.graph, via_w.graph);
}

// --- block-reader edge cases ---

constexpr std::size_t kBlock = graph::gfa_detail::kLineBlockBytes;

/// `n` segments "seg0".."seg<n-1>" of length 1 + i % 7.
std::string segments(std::uint32_t n) {
    std::string out;
    for (std::uint32_t i = 0; i < n; ++i) {
        out += "S\tseg" + std::to_string(i) + "\t" + std::string(1 + i % 7, 'A') + "\n";
    }
    return out;
}

TEST(GfaStream, PathAndWalkLinesLongerThanOneBlock) {
    constexpr std::uint32_t kSegs = 1000;
    constexpr std::uint32_t kSteps = 250000;  // ~2 MB per line
    std::string p_line = "P\tlong\t", w_line = "W\tsamp\t1\tchr\t*\t*\t";
    for (std::uint32_t k = 0; k < kSteps; ++k) {
        const std::string name = "seg" + std::to_string((k * 7) % kSegs);
        if (k) p_line += ',';
        p_line += name + (k % 3 == 0 ? '-' : '+');
        w_line += (k % 3 == 0 ? '<' : '>') + name;
    }
    ASSERT_GT(p_line.size(), kBlock);
    ASSERT_GT(w_line.size(), kBlock);
    std::stringstream ss(segments(kSegs) + p_line + "\t*\n" + w_line + "\n");
    const auto ing = graph::ingest_gfa(ss);

    ASSERT_EQ(ing.graph.path_count(), 2u);
    EXPECT_EQ(ing.path_names, (std::vector<std::string>{"long", "samp#1#chr"}));
    std::uint64_t pos = 0;
    for (std::uint32_t k = 0; k < kSteps; ++k) {
        const std::uint32_t v = (k * 7) % kSegs;
        for (std::uint32_t p = 0; p < 2; ++p) {
            ASSERT_EQ(ing.graph.step_node(p, k), v) << "path " << p << " step " << k;
            ASSERT_EQ(ing.graph.step_is_reverse(p, k), k % 3 == 0);
            ASSERT_EQ(ing.graph.step_position(p, k), pos);
        }
        pos += 1 + v % 7;
    }
    EXPECT_EQ(ing.graph.path_nuc_length(0), pos);
    EXPECT_EQ(ing.graph.path_nuc_length(1), pos);
}

TEST(GfaStream, CrlfSplitAcrossBlockBoundary) {
    // Pad with a comment line so the '\r' of "S x ACGT" is the last byte of
    // the first block and its '\n' the first byte of the second.
    const std::string head = "H\tVN:Z:1.0\r\n";
    const std::string s_line = "S\tx\tACGT";
    const std::size_t pad = kBlock - 1 - s_line.size() - head.size() - 3;  // "#" + "\r\n"
    const std::string gfa = head + "#" + std::string(pad, 'c') + "\r\n" + s_line +
                            "\r\nS\ty\tTT\r\nP\tp\tx+,y-\t*\r\n";
    ASSERT_EQ(gfa[kBlock - 1], '\r');
    ASSERT_EQ(gfa[kBlock], '\n');
    std::stringstream ss(gfa);
    const auto ing = graph::ingest_gfa(ss);
    EXPECT_EQ(ing.segment_names, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(ing.graph.node_length(0), 4u);  // no '\r' counted as a base
    EXPECT_EQ(ing.graph.path_nuc_length(0), 6u);
}

TEST(GfaStream, LastLineWithoutNewline) {
    for (const std::string end : {"", "\r", " \t"}) {
        std::stringstream ss("S\ts1\tACGT\nS\ts2\tTT\nP\tp\ts1+,s2-\t*" + end);
        const auto ing = graph::ingest_gfa(ss);
        ASSERT_EQ(ing.graph.path_count(), 1u);
        EXPECT_EQ(ing.graph.path_step_count(0), 2u);
        EXPECT_TRUE(ing.graph.step_is_reverse(0, 1));
    }
}

TEST(GfaStream, EmptyAndCommentOnlyInput) {
    for (const std::string text : {"", "# nothing here\n#\n", "\n\n"}) {
        std::stringstream ss(text);
        const auto ing = graph::ingest_gfa(ss);
        EXPECT_EQ(ing.graph.node_count(), 0u);
        EXPECT_EQ(ing.graph.path_count(), 0u);
        EXPECT_EQ(ing.component_count, 0u);
    }
}

/// The message ingest_gfa throws for `gfa`, or "" if it parses.
std::string parse_error(const std::string& gfa) {
    std::stringstream ss(gfa);
    try {
        graph::ingest_gfa(ss);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(GfaStream, DuplicateAndUnknownSegmentMessagesAndLineNumbers) {
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"H\tVN:Z:1.0\nS\tx\tA\n# c\nS\tx\tC\n",
         "GFA parse error at line 4: duplicate segment x"},
        {"S\tx\tA\r\nS\ty\tC\r\nL\tx\t+\tmissing\t+\t0M\r\n",
         "GFA parse error at line 3: unknown segment missing"},
        {"S\tx\tA\nS\ty\tC\nL\tx\t+\ty\t+\t0M\n\nP\tp\tx+,nope-\t*\n",
         "GFA parse error at line 5: unknown segment nope"},
        {"S\tx\tA\nW\ts\t1\tc\t0\t1\t>x<gone",
         "GFA parse error at line 2: unknown segment gone"},
        {"S\tx\tA\nP\tp\tx+,missing+,x?\t*\n",
         "GFA parse error at line 2: unknown segment missing"},
        {"H\tVN:Z:1.0\nS\tx\n", "GFA parse error at line 2: S record needs 3 fields"},
        {"S\tx\tA\nS\ty\tC\n\nL\tx\t+\ty\n",
         "GFA parse error at line 4: L record needs 5 fields"},
        {"S\tx\tA\r\nP\tp\r\n", "GFA parse error at line 2: P record needs 3 fields"},
        {"S\tx\tA\n# c\nW\ts\t1\tc\t0\t1\n",
         "GFA parse error at line 3: W record needs 7 fields"},
    };
    for (const auto& [gfa, want] : cases) {
        EXPECT_EQ(parse_error(gfa), want) << gfa;
    }
}

TEST(NameTable, DenseIdsAcrossGrowth) {
    graph::gfa_detail::NameTable names;
    constexpr std::uint32_t kN = 100000;
    for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(names.insert(std::to_string(i * 31) + "_seg"));
    }
    EXPECT_FALSE(names.insert("310_seg"));
    EXPECT_TRUE(names.insert(""));  // an empty name is a name like any other
    EXPECT_EQ(names.size(), kN + 1);
    for (std::uint32_t i = 0; i < kN; ++i) {
        ASSERT_EQ(names.find(std::to_string(i * 31) + "_seg"), i);
    }
    EXPECT_EQ(names.find(""), kN);
    EXPECT_EQ(names.find("31_se"), graph::gfa_detail::NameTable::kNone);
    EXPECT_EQ(names.name(7), "217_seg");
    EXPECT_EQ(names.names().back(), "");
}

// --- .pgg binary graph cache ---

LeanIngest make_ingest() {
    return workloads::to_ingest(workloads::generate_whole_genome(
        workloads::whole_genome_spec(2, 0.0002, 5)));
}

TEST(PggIo, RoundTripIsExact) {
    const auto ing = make_ingest();
    std::stringstream ss;
    io::write_pgg(ing, ss);
    const auto back = io::read_pgg(ss);
    expect_same_lean(back.graph, ing.graph);
    EXPECT_EQ(back.segment_names, ing.segment_names);
    EXPECT_EQ(back.path_names, ing.path_names);
    EXPECT_EQ(back.component_count, ing.component_count);
    EXPECT_EQ(back.node_component, ing.node_component);
    EXPECT_EQ(back.path_component, ing.path_component);
}

TEST(PggIo, RejectsBadMagic) {
    std::stringstream ss("definitely not a graph cache");
    EXPECT_THROW(io::read_pgg(ss), std::runtime_error);
}

TEST(PggIo, RejectsTruncatedHeader) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::stringstream cut(full.str().substr(0, 14));  // inside the counts
    EXPECT_THROW(io::read_pgg(cut), std::runtime_error);
}

TEST(PggIo, RejectsTruncatedPayload) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    const std::string bytes = full.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(io::read_pgg(cut), std::runtime_error);
}

TEST(PggIo, RejectsImplausibleHeaderCounts) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // node_count lives at offset 12 (magic 8 + flags 4); blow it up.
    for (std::size_t i = 12; i < 20; ++i) bytes[i] = '\xFF';
    std::stringstream corrupt(bytes);
    EXPECT_THROW(io::read_pgg(corrupt), std::runtime_error);
}

TEST(PggIo, RejectsHeaderCountsLargerThanFile) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // A node_count that passes the plausibility cap but dwarfs the actual
    // file must be rejected by the payload-size cross-check *before* any
    // count-sized allocation is attempted.
    const std::uint64_t big = 1ull << 30;
    std::memcpy(&bytes[12], &big, sizeof big);
    std::stringstream corrupt(bytes);
    try {
        io::read_pgg(corrupt);
        FAIL() << "oversized header was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << e.what();
    }
}

TEST(PggIo, RejectsChecksumMismatch) {
    const auto ing = make_ingest();
    std::stringstream full;
    io::write_pgg(ing, full);
    std::string bytes = full.str();
    // Flip one bit inside the node-length table (offset 40 onward): the
    // value itself is plausible, so only the checksum can catch it.
    bytes[44] = static_cast<char>(bytes[44] ^ 0x01);
    std::stringstream corrupt(bytes);
    try {
        io::read_pgg(corrupt);
        FAIL() << "corrupt cache was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
            << e.what();
    }
}

TEST(PggIo, FileRoundTripAndExtensionDispatch) {
    const auto ing = make_ingest();
    const std::string gfa_path = ::testing::TempDir() + "/pgl_ingest.gfa";
    const std::string pgg_path = ::testing::TempDir() + "/pgl_ingest.pgg";
    {
        // Write a GFA alongside the cache so both dispatch branches run.
        const auto vg = workloads::generate_whole_genome(
            workloads::whole_genome_spec(2, 0.0002, 5));
        graph::write_gfa_file(vg, gfa_path);
    }
    io::write_pgg_file(ing, pgg_path);
    EXPECT_TRUE(io::is_pgg_path(pgg_path));
    EXPECT_FALSE(io::is_pgg_path(gfa_path));

    const auto from_pgg = io::load_graph_file(pgg_path);
    const auto from_gfa = io::load_graph_file(gfa_path);
    expect_same_lean(from_pgg.graph, ing.graph);
    expect_same_lean(from_gfa.graph, ing.graph);
    EXPECT_EQ(from_pgg.node_component, from_gfa.node_component);
}

TEST(PggIo, FileRejectsTrailingBytesAfterChecksum) {
    const auto ing = make_ingest();
    const std::string path = ::testing::TempDir() + "/pgl_trailing.pgg";
    io::write_pgg_file(ing, path);
    {
        std::ofstream append(path, std::ios::binary | std::ios::app);
        append << "junk";
    }
    EXPECT_THROW(io::read_pgg_file(path), std::runtime_error);
}

TEST(PggIo, MissingFileThrows) {
    EXPECT_THROW(io::read_pgg_file("/nonexistent/nowhere.pgg"),
                 std::runtime_error);
}

TEST(PggIo, RejectsInconsistentComponentLabels) {
    // Components {a, b, c} (walked by p0) and {d} (walked by p1). Each edit
    // below keeps every label in range and the checksum valid, so only the
    // label checks can refuse the cache.
    std::stringstream gfa(
        "S\ta\tAC\nS\tb\tG\nS\tc\tT\nS\td\tA\n"
        "P\tp0\ta+,b+,c+\t*\nP\tp1\td+\t*\n");
    const LeanIngest ing = graph::ingest_gfa(gfa);
    ASSERT_EQ(ing.node_component, (std::vector<std::uint32_t>{0, 0, 0, 1}));
    ASSERT_EQ(ing.path_component, (std::vector<std::uint32_t>{0, 1}));

    const auto reread = [](const LeanIngest& edited) {
        std::stringstream ss;
        io::write_pgg(edited, ss);
        return io::read_pgg(ss);
    };
    EXPECT_EQ(reread(ing).component_count, 2u);  // the unedited cache loads

    LeanIngest walked_node_moved = ing;  // b joins d's component
    walked_node_moved.node_component[1] = 1;
    LeanIngest unused_component = ing;  // component 2 has no node
    unused_component.component_count = 3;
    LeanIngest swapped_numbering = ing;  // consistent, but {d} numbered first
    swapped_numbering.node_component = {1, 1, 1, 0};
    swapped_numbering.path_component = {1, 0};

    for (const LeanIngest* edited :
         {&walked_node_moved, &unused_component, &swapped_numbering}) {
        try {
            reread(*edited);
            ADD_FAILURE() << "inconsistent labels accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("graph cache corrupt"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- write_gfa -> ingest_gfa: sequence-free segments ---

TEST(Gfa, SequenceFreeSegmentsRoundTripWithoutFabricatedBases) {
    // A sequence-free node keeps its declared length without synthesizing
    // placeholder bases, is written as "* LN:i:N", not as sequence, and
    // reads back with that length.
    graph::VariationGraph vg;
    const auto big = vg.add_node_sequence_free(8, "big");
    const auto tiny = vg.add_node_sequence_free(0, "tiny");
    vg.add_path("p", {graph::Handle::forward(big), graph::Handle::forward(tiny)});
    EXPECT_EQ(vg.sequence(big), "");  // no fabricated bytes
    std::stringstream out;
    graph::write_gfa(vg, out);
    EXPECT_NE(out.str().find("S\tbig\t*\tLN:i:8"), std::string::npos);
    EXPECT_NE(out.str().find("S\ttiny\t*\n"), std::string::npos);
    const auto ing = graph::ingest_gfa(out);
    EXPECT_EQ(ing.graph.node_length(0), 8u);
    EXPECT_EQ(ing.graph.node_length(1), 0u);
    EXPECT_EQ(ing.graph.path_nuc_length(0), 8u);
}

}  // namespace

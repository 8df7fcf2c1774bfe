// Tests for the streaming ingestion subsystem: the gfa_stream reader
// (GFA 1.0 P records, GFA 1.1 W walks, CRLF tolerance, malformed-input
// rejection), its block reader's edge cases (lines longer than a block,
// CRLF split across blocks, missing final newline, empty input), its byte
// windows (the same graph, .pgg bytes and first error at every window
// count), the segment-name table, its component labels against a BFS
// reference on random multi-component GFA, and the .pgg binary graph cache
// (round trip, truncation, corruption, checksum, inconsistent component
// labels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
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

/// Writes `text` to a scratch file named `name` and returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

/// The ingest of the file at `path` cut into `windows` byte windows, or
/// into as many as the reader picks when `windows` is 0.
LeanIngest ingest_windows(const std::string& path, std::uint32_t windows) {
    return windows == 0 ? graph::ingest_gfa_file(path)
                        : graph::gfa_detail::ingest_gfa_file(path, windows);
}

std::string pgg_bytes(const LeanIngest& ing) {
    std::stringstream ss;
    io::write_pgg(ing, ss);
    return ss.str();
}

/// Window counts every parity check runs besides one window; 0 is the
/// reader's own choice.
constexpr std::uint32_t kWindowCounts[] = {2, 3, 7, 0};

/// Expects the file at `path` to ingest to the same .pgg bytes, names,
/// labels and edge count at every window count, and from memory, as it
/// does in one window.
void expect_window_parity(const std::string& path) {
    const LeanIngest want = ingest_windows(path, 1);
    const std::string want_bytes = pgg_bytes(want);
    std::ifstream in(path, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(pgg_bytes(graph::gfa_detail::ingest_gfa_text(text, 1)), want_bytes)
        << path << " from memory";
    for (const std::uint32_t windows : kWindowCounts) {
        const LeanIngest got = ingest_windows(path, windows);
        EXPECT_EQ(pgg_bytes(got), want_bytes) << path << " in " << windows << " windows";
        EXPECT_EQ(got.segment_names, want.segment_names);
        EXPECT_EQ(got.path_names, want.path_names);
        EXPECT_EQ(got.component_count, want.component_count);
        EXPECT_EQ(got.node_component, want.node_component);
        EXPECT_EQ(got.path_component, want.path_component);
        EXPECT_EQ(got.edge_count, want.edge_count);
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
    const auto ing = graph::ingest_gfa_text(kMiniGfa);
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
    const auto ing = graph::ingest_gfa_text(gfa);
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
    const auto a = graph::ingest_gfa_text(kMiniGfa);
    const auto b = graph::ingest_gfa_text(crlf);
    expect_same_lean(a.graph, b.graph);
    EXPECT_EQ(a.segment_names, b.segment_names);  // no '\r' in names
    EXPECT_EQ(a.path_names, b.path_names);
}

TEST(GfaStream, HonorsLnLengthTagOnSequenceFreeSegments) {
    const std::string gfa =
        "S\ts1\t*\tLN:i:123\n"
        "S\ts2\t*\n"
        "P\tp\ts1+,s2+\t*\n";
    const auto ing = graph::ingest_gfa_text(gfa);
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
    const auto ing = graph::ingest_gfa_text(gfa);
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
            LeanIngest ing = graph::ingest_gfa_text(g.text);
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
    EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nS\tx\tC\n"), std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInLink) {
    EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nL\tx\t+\tmissing\t+\t0M\n"),
                 std::runtime_error);
}

TEST(GfaStream, RejectsUnknownSegmentInPathAndWalk) {
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nP\tp\tx+,missing+\t*\n"),
                     std::runtime_error);
    }
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nW\ts\t1\tc\t0\t1\t>x>missing\n"),
                     std::runtime_error);
    }
}

TEST(GfaStream, RejectsEmptyPathAndWalk) {
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nP\tp\t\t*\n"), std::runtime_error);
    }
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nW\ts\t1\tc\t0\t0\t*\n"),
                     std::runtime_error);
    }
}

TEST(GfaStream, RejectsBadOrientationAndMalformedWalk) {
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nS\ty\tC\nL\tx\t?\ty\t+\t0M\n"),
                     std::runtime_error);
    }
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nW\ts\t1\tc\t0\t1\tx>\n"),
                     std::runtime_error);
    }
    {
        EXPECT_THROW(graph::ingest_gfa_text("S\tx\tA\nW\ts\t1\tc\t0\t1\t><\n"),
                     std::runtime_error);
    }
}

TEST(GfaStream, WalkAndPathRecordsYieldIdenticalStepRecords) {
    const std::string base =
        "S\ts1\tACGT\nS\ts2\tTT\nS\ts3\tG\n";
    const auto via_p = graph::ingest_gfa_text(base + "P\tw\ts1+,s2-,s3+\t*\n");
    const auto via_w =
        graph::ingest_gfa_text(base + "W\tsamp\t1\tchr\t0\t7\t>s1<s2>s3\n");
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

constexpr std::uint32_t kLongSegs = 1000;
constexpr std::uint32_t kLongSteps = 250000;  // ~2 MB per line

/// kLongSegs segments, then a P line and a W line of kLongSteps steps each:
/// step k is segment (7k) mod kLongSegs, reversed when k % 3 == 0.
std::string long_lines_gfa() {
    std::string p_line = "P\tlong\t", w_line = "W\tsamp\t1\tchr\t*\t*\t";
    for (std::uint32_t k = 0; k < kLongSteps; ++k) {
        const std::string name = "seg" + std::to_string((k * 7) % kLongSegs);
        if (k) p_line += ',';
        p_line += name + (k % 3 == 0 ? '-' : '+');
        w_line += (k % 3 == 0 ? '<' : '>') + name;
    }
    return segments(kLongSegs) + p_line + "\t*\n" + w_line + "\n";
}

TEST(GfaStream, PathAndWalkLinesLongerThanOneBlock) {
    constexpr std::uint32_t kSegs = kLongSegs;
    constexpr std::uint32_t kSteps = kLongSteps;
    const std::string gfa = long_lines_gfa();
    const std::size_t p_at = gfa.find("\nP") + 1, w_at = gfa.find("\nW") + 1;
    ASSERT_GT(w_at - p_at, kBlock);
    ASSERT_GT(gfa.size() - w_at, kBlock);
    const auto ing = graph::ingest_gfa_text(gfa);

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
    const auto ing = graph::ingest_gfa_text(gfa);
    EXPECT_EQ(ing.segment_names, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(ing.graph.node_length(0), 4u);  // no '\r' counted as a base
    EXPECT_EQ(ing.graph.path_nuc_length(0), 6u);
}

TEST(GfaStream, LastLineWithoutNewline) {
    for (const std::string end : {"", "\r", " \t"}) {
        const auto ing =
            graph::ingest_gfa_text("S\ts1\tACGT\nS\ts2\tTT\nP\tp\ts1+,s2-\t*" + end);
        ASSERT_EQ(ing.graph.path_count(), 1u);
        EXPECT_EQ(ing.graph.path_step_count(0), 2u);
        EXPECT_TRUE(ing.graph.step_is_reverse(0, 1));
    }
}

TEST(GfaStream, EmptyAndCommentOnlyInput) {
    for (const std::string text : {"", "# nothing here\n#\n", "\n\n"}) {
        const auto ing = graph::ingest_gfa_text(text);
        EXPECT_EQ(ing.graph.node_count(), 0u);
        EXPECT_EQ(ing.graph.path_count(), 0u);
        EXPECT_EQ(ing.component_count, 0u);
    }
}

/// The message ingest_gfa_text throws for `gfa`, or "" if it parses. With
/// `windows` > 0, `gfa` is read from a file in that many byte windows.
std::string parse_error(const std::string& gfa, std::uint32_t windows = 0) {
    try {
        if (windows == 0) {
            graph::ingest_gfa_text(gfa);
        } else {
            graph::gfa_detail::ingest_gfa_file(write_temp("pgl_parse_error.gfa", gfa),
                                               windows);
        }
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// `n` lines that parse and add nothing: they move an error into another
/// byte window.
std::string comment_lines(std::uint32_t n) {
    std::string out;
    for (std::uint32_t i = 0; i < n; ++i) {
        out += "# filler line " + std::to_string(i) + "\n";
    }
    return out;
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
        {"S\tx\tA\nS\ty\tC\nL\tx\t?\ty\t+\t0M\n",
         "GFA parse error at line 3: bad orientation"},
        {"S\tx\tA\nP\tp\t\t*\n", "GFA parse error at line 2: empty path p"},
        {"S\tx\tA\nW\ts\t1\tc\t0\t0\t*\n", "GFA parse error at line 2: empty walk"},
        {"S\tx\tA\nP\tp\tx+,,x+\t*\n", "GFA parse error at line 2: bad path step"},
        {"S\tx\tA\nP\tp\tx+,x*\t*\n", "GFA parse error at line 2: bad step orientation"},
        {"S\tx\tA\nW\ts\t1\tc\t0\t1\tx>\n",
         "GFA parse error at line 2: bad walk step (expected > or <)"},
        {"S\tx\tA\nW\ts\t1\tc\t0\t1\t><\n",
         "GFA parse error at line 2: empty segment name in walk"},
        // A pass-1 error (the duplicate) beats a pass-2 error on an earlier
        // line (the unknown segment), at every window count.
        {"S\tx\tA\nS\ty\tC\nP\tp\tx+,nope+\t*\nL\tx\t+\ty\t+\t0M\nS\tx\tG\n",
         "GFA parse error at line 5: duplicate segment x"},
        // Two windows each hold an error of the same pass: the lower line wins.
        {"S\tx\tA\nL\tx\t+\tgone\t+\t0M\n" + comment_lines(60) +
             "L\tx\t+\tlost\t+\t0M\n",
         "GFA parse error at line 2: unknown segment gone"},
        {"S\tx\tA\nS\tbad\n" + comment_lines(60) + "S\tworse\n",
         "GFA parse error at line 2: S record needs 3 fields"},
        // A pass-1 error in the last window beats a pass-2 error in the first.
        {"S\tx\tA\nL\tx\t+\tgone\t+\t0M\n" + comment_lines(60) + "S\tbad\n",
         "GFA parse error at line 63: S record needs 3 fields"},
    };
    for (const auto& [gfa, want] : cases) {
        EXPECT_EQ(parse_error(gfa), want) << gfa;
        for (const std::uint32_t windows : {1u, 2u, 7u}) {
            EXPECT_EQ(parse_error(gfa, windows), want) << windows << " windows:\n" << gfa;
        }
    }
}

TEST(GfaStream, TrailingCommaInPathKeepsItsStepCount) {
    const std::string path = write_temp("pgl_trailing_comma.gfa",
                                        "S\ts1\tACGT\nS\ts2\tAC\nP\tp1\ts1+,s2-,\t*\n");
    for (const std::uint32_t windows : {1u, 2u}) {
        const LeanIngest ing = graph::gfa_detail::ingest_gfa_file(path, windows);
        ASSERT_EQ(ing.graph.path_count(), 1u) << windows << " windows";
        EXPECT_EQ(ing.graph.total_path_steps(), 2u);
        EXPECT_EQ(ing.graph.path_step_count(0), 2u);
        EXPECT_EQ(ing.graph.step_node(0, 1), 1u);
        EXPECT_TRUE(ing.graph.step_is_reverse(0, 1));
        EXPECT_EQ(ing.graph.step_position(0, 1), 4u);
        EXPECT_EQ(ing.graph.path_nuc_length(0), 6u);
    }
}

// --- byte windows: the same graph, bytes and first error at every count ---

TEST(GfaWindows, TestDataAndAWholeGenomeIngestAlikeInEveryWindowCount) {
    int files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(PGL_TEST_DATA_DIR)) {
        if (entry.path().extension() != ".gfa") continue;
        expect_window_parity(entry.path().string());
        ++files;
    }
    EXPECT_GT(files, 0);

    const std::string genome = ::testing::TempDir() + "/pgl_windows_genome.gfa";
    graph::write_gfa_file(
        workloads::generate_whole_genome(workloads::whole_genome_spec(3, 0.0002, 5)),
        genome);
    const LeanIngest ing = ingest_windows(genome, 1);
    ASSERT_GT(ing.component_count, 1u);
    expect_window_parity(genome);
}

TEST(GfaWindows, GeneratedGraphsTakeTheWindowedReader) {
    // to_ingest reads the generated text as ingest_gfa_file reads a file:
    // in window_count(size) windows, so a multi-MiB generated graph runs
    // the multi-window path on any host with two CPUs.
    const auto vg =
        workloads::generate_whole_genome(workloads::whole_genome_spec(5, 0.0002, 7));
    std::ostringstream text;
    graph::write_gfa(vg, text);
    const std::string gfa = std::move(text).str();
    ASSERT_GE(gfa.size(), std::size_t{2} << 20);
    if (core::allowed_cpus_self().size() >= 2) {
        EXPECT_GE(graph::gfa_detail::window_count(gfa.size()), 2u);
    }

    const std::string want = pgg_bytes(graph::gfa_detail::ingest_gfa_text(gfa, 1));
    EXPECT_EQ(pgg_bytes(workloads::to_ingest(vg)), want);
    EXPECT_EQ(pgg_bytes(graph::ingest_gfa_text(gfa)), want);
    for (const std::uint32_t windows : {1u, 2u, 3u, 7u}) {
        EXPECT_EQ(pgg_bytes(graph::gfa_detail::ingest_gfa_text(gfa, windows)), want)
            << windows << " windows";
    }
}

TEST(GfaWindows, CrlfSplitAcrossAWindowCut) {
    // Two halves of equal size, so the nominal cut of two windows falls
    // between the '\r' and the '\n' of "S y TT".
    const std::string a = "S\tx\tACGT\r\nS\ty\tTT\r", b = "\nP\tp\tx+,y-\t*\r\n";
    const std::size_t half = std::max(a.size(), b.size()) + 3;
    const std::string gfa = "#" + std::string(half - a.size() - 3, 'c') + "\r\n" + a + b +
                            "#" + std::string(half - b.size() - 3, 'c') + "\r\n";
    ASSERT_EQ(gfa.size(), 2 * half);
    ASSERT_EQ(gfa[half - 1], '\r');
    ASSERT_EQ(gfa[half], '\n');
    const std::string path = write_temp("pgl_crlf_cut.gfa", gfa);
    const LeanIngest ing = ingest_windows(path, 2);
    EXPECT_EQ(ing.segment_names, (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(ing.graph.node_length(1), 2u);  // no '\r' counted as a base
    EXPECT_EQ(ing.graph.path_nuc_length(0), 6u);
    expect_window_parity(path);
}

TEST(GfaWindows, PathAndWalkLinesLongerThanAWindow) {
    const std::string gfa = long_lines_gfa();
    const std::size_t w_at = gfa.find("\nW") + 1;
    ASSERT_GT(gfa.size() - w_at, gfa.size() / 7);  // longer than a 7th of the file
    ASSERT_GT(gfa.size() - w_at, kBlock);
    expect_window_parity(write_temp("pgl_long_lines.gfa", gfa));
}

TEST(GfaWindows, MoreWindowsThanLinesNoFinalNewlineAndEmptyFiles) {
    const std::string inputs[] = {
        "S\ts1\tACGT\nS\ts2\tTT\nP\tp\ts1+,s2-\t*\n",  // 3 lines, up to 7 windows
        "S\ts1\tACGT\nS\ts2\tTT\nP\tp\ts1+,s2-\t*",
        "S\ts1\tACGT\nS\ts2\tTT\nP\tp\ts1+,s2-\t*\r",
        "S\ts1\tACGT\nS\ts2\tTT\nL\ts1\t+\ts2\t+\t0M",
        "",
        "# nothing here\n#\n",
        "\n\n",
    };
    for (const std::string& gfa : inputs) {
        expect_window_parity(write_temp("pgl_small.gfa", gfa));
    }
    const LeanIngest ing = ingest_windows(write_temp("pgl_small.gfa", inputs[1]), 7);
    EXPECT_EQ(ing.graph.path_step_count(0), 2u);
}

TEST(GfaWindows, DirectoryOrMissingPathThrowsRuntimeError) {
    const std::string missing = "/nonexistent/x.gfa";
    for (const std::string& path : {::testing::TempDir(), missing}) {
        for (const std::uint32_t windows : {0u, 2u}) {
            try {
                ingest_windows(path, windows);
                ADD_FAILURE() << path << " was read";
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(GfaWindows, WindowCountFollowsCpusAndFileSize) {
    using graph::gfa_detail::kMinWindowBytes;
    using graph::gfa_detail::window_count;
    const auto cpus = static_cast<std::uint32_t>(core::allowed_cpus_self().size());
    EXPECT_EQ(window_count(0), 1u);
    EXPECT_EQ(window_count(378'000), 1u);  // a small GFA is one window
    EXPECT_EQ(window_count(kMinWindowBytes + 1), std::min(cpus, 2u));
    EXPECT_EQ(window_count(27'000'000), std::min(cpus, 26u));
}

/// A random GFA laid out in `sections` sections of its own S, L, P and W
/// records, in the shape of a per-thread union workload: the byte windows
/// each take about one section, and a `cross_share` of the links and of
/// the walk steps reach a node of another section, so their unions cross
/// windows. Keeps the section of every node.
struct SectionedGfa : RandomGfa {
    std::vector<std::uint32_t> section;
};

SectionedGfa sectioned_gfa(std::uint64_t seed, std::uint32_t sections,
                           double cross_share) {
    rng::SplitMix64 rng(seed);
    const auto below = [&](std::uint64_t n) { return rng.next() % n; };
    const auto chance = [&](double p) {
        return static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < p;
    };
    SectionedGfa out;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> range(sections);  // [first, end)
    for (std::uint32_t sec = 0; sec < sections; ++sec) {
        range[sec].first = out.nodes;
        out.nodes += 4 + static_cast<std::uint32_t>(below(28));
        range[sec].second = out.nodes;
        out.section.resize(out.nodes, sec);
    }
    const auto node_of = [&](std::uint32_t home) {
        const auto& r = range[chance(cross_share) ? below(sections) : home];
        return r.first + static_cast<std::uint32_t>(below(r.second - r.first));
    };
    for (std::uint32_t sec = 0; sec < sections; ++sec) {
        for (std::uint32_t v = range[sec].first; v < range[sec].second; ++v) {
            out.text += "S\tn" + std::to_string(v) + "\t" +
                        std::string(1 + below(5), 'A') + "\n";
        }
        for (std::uint64_t k = below(range[sec].second - range[sec].first); k > 0; --k) {
            const std::uint32_t u = node_of(sec), v = node_of(sec);
            out.links.emplace_back(u, v);
            out.text += "L\tn" + std::to_string(u) + "\t+\tn" + std::to_string(v) +
                        "\t-\t0M\n";
        }
        for (std::uint64_t w = below(3); w > 0; --w) {
            std::vector<graph::Handle> walk;
            for (std::uint64_t i = 1 + below(12); i > 0; --i) {
                walk.push_back(graph::Handle::make(node_of(sec), chance(0.3)));
            }
            out.text += "W\tw" + std::to_string(out.walks.size()) + "\t0\tchr\t*\t*\t";
            for (const graph::Handle h : walk) {
                out.text += (h.is_reverse() ? "<n" : ">n") + std::to_string(h.id());
            }
            out.text += "\n";
            out.walks.push_back(std::move(walk));
        }
    }
    return out;
}

TEST(GfaWindows, ComponentLabelsMatchBfsWithUnionsAcrossWindows) {
    std::uint64_t seed = 0xC0FFEE;
    int multi_component = 0, merged = 0;
    for (const double cross : {0.0, 0.02, 0.1, 0.5}) {
        for (int round = 0; round < 25; ++round) {
            const std::uint32_t sections = 2 + static_cast<std::uint32_t>(round % 6);
            const SectionedGfa g = sectioned_gfa(++seed, sections, cross);
            const auto want = bfs_labels(g);
            const std::string path = write_temp("pgl_sectioned.gfa", g.text);
            const std::string want_bytes = pgg_bytes(ingest_windows(path, 1));
            for (const std::uint32_t windows : {1u, 2u, 3u, sections, 7u}) {
                const LeanIngest ing = ingest_windows(path, windows);
                ASSERT_EQ(ing.component_count, want.count)
                    << windows << " windows:\n" << g.text;
                ASSERT_EQ(ing.node_component, want.node_component);
                ASSERT_EQ(ing.path_component, want.path_component);
                ASSERT_EQ(pgg_bytes(ing), want_bytes);
            }
            multi_component += want.count > 1;
            // Some component holds nodes of two sections.
            std::vector<std::uint32_t> home(want.count, sections);
            bool joined = false;
            for (std::uint32_t v = 0; v < g.nodes; ++v) {
                std::uint32_t& h = home[want.node_component[v]];
                if (h == sections) h = g.section[v];
                joined |= h != g.section[v];
            }
            merged += joined;
        }
    }
    // The generator exercises what it claims to: separate components, and
    // sections joined across windows.
    EXPECT_GT(multi_component, 50);
    EXPECT_GT(merged, 20);
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

TEST(PggIo, FileRoundTripAndMagicDispatch) {
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

    const auto from_pgg = io::load_graph_file(pgg_path);
    const auto from_gfa = io::load_graph_file(gfa_path);
    expect_same_lean(from_pgg.graph, ing.graph);
    expect_same_lean(from_gfa.graph, ing.graph);
    EXPECT_EQ(from_pgg.node_component, from_gfa.node_component);

    // The magic decides, not the name: a cache under another name loads
    // as a cache, and a GFA named like a cache loads as a GFA.
    const std::string renamed_pgg = ::testing::TempDir() + "/pgl_ingest_pgg.bin";
    const std::string renamed_gfa = ::testing::TempDir() + "/pgl_ingest_gfa.pgg";
    std::filesystem::copy_file(pgg_path, renamed_pgg,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(gfa_path, renamed_gfa,
                               std::filesystem::copy_options::overwrite_existing);
    EXPECT_EQ(pgg_bytes(io::load_graph_file(renamed_pgg)), pgg_bytes(from_pgg));
    EXPECT_EQ(pgg_bytes(io::load_graph_file(renamed_gfa)), pgg_bytes(from_gfa));
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
    const LeanIngest ing = graph::ingest_gfa_text(
        "S\ta\tAC\nS\tb\tG\nS\tc\tT\nS\td\tA\n"
        "P\tp0\ta+,b+,c+\t*\nP\tp1\td+\t*\n");
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

// --- write_gfa -> ingest_gfa_text: sequence-free segments ---

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
    const auto ing = graph::ingest_gfa_text(out.str());
    EXPECT_EQ(ing.graph.node_length(0), 8u);
    EXPECT_EQ(ing.graph.node_length(1), 0u);
    EXPECT_EQ(ing.graph.path_nuc_length(0), 8u);
}

}  // namespace

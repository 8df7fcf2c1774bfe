// Tests for the streaming ingestion subsystem: the gfa_stream reader
// (GFA 1.0 P records, GFA 1.1 W walks, CRLF tolerance, malformed-input
// rejection), its block reader's edge cases (lines longer than a block,
// CRLF split across blocks, missing final newline, empty input), the
// segment-name table, equivalence with the legacy VariationGraph route,
// and the .pgg binary graph cache (round trip, truncation, corruption,
// checksum).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/gfa.hpp"
#include "graph/gfa_stream.hpp"
#include "graph/gfa_util.hpp"
#include "graph/lean_graph.hpp"
#include "io/pgg_io.hpp"
#include "partition/components.hpp"
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

// --- equivalence with the legacy VariationGraph route ---

TEST(GfaStream, MatchesVariationGraphRouteOnWholeGenome) {
    const auto vg = workloads::generate_whole_genome(
        workloads::whole_genome_spec(3, 0.0003, 77));
    std::stringstream gfa;
    graph::write_gfa(vg, gfa);

    // Legacy: GFA -> VariationGraph -> LeanGraph.
    const auto vg2 = graph::read_gfa(gfa);
    const auto lean_legacy = graph::LeanGraph::from_graph(vg2);

    // Streaming: GFA -> LeanGraph, no intermediate.
    gfa.clear();
    gfa.seekg(0);
    const auto ing = graph::ingest_gfa(gfa);
    expect_same_lean(ing.graph, lean_legacy);

    // The ingest-time component labels must match the rich-graph labeler
    // (edge + path connectivity) so partitioned runs are byte-identical.
    const auto labels = partition::label_components(vg2);
    EXPECT_EQ(ing.component_count, labels.count);
    EXPECT_EQ(ing.node_component, labels.node_component);
    EXPECT_EQ(ing.path_component, labels.path_component);
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

TEST(GfaStream, MatchesVariationGraphRouteOnFinerSegmentation) {
    auto specs = workloads::whole_genome_spec(3, 0.0003, 91);
    for (auto& spec : specs) spec = workloads::with_finer_segmentation(spec, 4);
    std::stringstream gfa;
    graph::write_gfa(workloads::generate_whole_genome(specs), gfa);

    const auto vg = graph::read_gfa(gfa);
    gfa.clear();
    gfa.seekg(0);
    const auto ing = graph::ingest_gfa(gfa);
    expect_same_lean(ing.graph, graph::LeanGraph::from_graph(vg));

    const auto labels = partition::label_components(vg);
    EXPECT_EQ(ing.component_count, labels.count);
    EXPECT_EQ(ing.node_component, labels.node_component);
    EXPECT_EQ(ing.path_component, labels.path_component);
    ASSERT_EQ(ing.segment_names.size(), vg.node_count());
    for (graph::NodeId v = 0; v < vg.node_count(); ++v) {
        ASSERT_EQ(ing.segment_names[v], vg.node_name(v)) << "node " << v;
    }
    ASSERT_EQ(ing.path_names.size(), vg.path_count());
    for (std::uint64_t p = 0; p < vg.path_count(); ++p) {
        EXPECT_EQ(ing.path_names[p], vg.path(p).name);
    }
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
        std::stringstream legacy(text);
        EXPECT_EQ(graph::read_gfa(legacy).node_count(), 0u);
    }
}

/// The message both readers throw for `gfa`, or "" if it parses.
std::string parse_error(const std::string& gfa, bool streaming) {
    std::stringstream ss(gfa);
    try {
        if (streaming) {
            graph::ingest_gfa(ss);
        } else {
            graph::read_gfa(ss);
        }
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
    };
    for (const auto& [gfa, want] : cases) {
        EXPECT_EQ(parse_error(gfa, true), want) << gfa;
        EXPECT_EQ(parse_error(gfa, false), want) << gfa;
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
    const auto vg = workloads::generate_whole_genome(
        workloads::whole_genome_spec(2, 0.0002, 5));
    std::stringstream gfa;
    graph::write_gfa(vg, gfa);
    return graph::ingest_gfa(gfa);
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

// --- legacy reader keeps up: W walks, CRLF, LN tags ---

TEST(Gfa, LegacyReaderParsesWalkRecords) {
    const std::string gfa =
        "S\ts1\tACGT\n"
        "S\ts2\tTT\n"
        "W\tHG002\t1\tchr1\t0\t6\t>s1<s2\n";
    std::stringstream ss(gfa);
    const auto g = graph::read_gfa(ss);
    ASSERT_EQ(g.path_count(), 1u);
    EXPECT_EQ(g.path(0).name, "HG002#1#chr1:0-6");
    ASSERT_EQ(g.path(0).steps.size(), 2u);
    EXPECT_TRUE(g.path(0).steps[1].is_reverse());
    // add_path materializes the traversed edge, as for P records.
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Gfa, SequenceFreeSegmentsRoundTripWithoutFabricatedBases) {
    // "S name * LN:i:N" must keep its declared length without synthesizing
    // N placeholder bases — and write back as "* LN:i:N", not as sequence.
    std::stringstream in("S\tbig\t*\tLN:i:8\nS\ttiny\t*\nP\tp\tbig+,tiny+\t*\n");
    const auto g = graph::read_gfa(in);
    EXPECT_EQ(g.node_length(0), 8u);
    EXPECT_EQ(g.sequence(0), "");  // no fabricated bytes
    EXPECT_EQ(g.node_length(1), 0u);
    std::stringstream out;
    graph::write_gfa(g, out);
    EXPECT_NE(out.str().find("S\tbig\t*\tLN:i:8"), std::string::npos);
    EXPECT_NE(out.str().find("S\ttiny\t*\n"), std::string::npos);
}

TEST(Gfa, LegacyReaderToleratesCrlf) {
    std::string crlf;
    for (const char c : kMiniGfa) {
        if (c == '\n') crlf += "\r\n";
        else crlf += c;
    }
    std::stringstream ss(crlf);
    const auto g = graph::read_gfa(ss);
    EXPECT_EQ(g.node_count(), 3u);
    EXPECT_EQ(g.path_count(), 2u);
    EXPECT_EQ(g.node_name(0), "s1");  // no trailing '\r' registered
    EXPECT_EQ(g.validate(), "");
}

}  // namespace

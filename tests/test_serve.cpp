// Tests for the layout service: the line-protocol JSON model, canonical
// cache keys (stability under field reordering, sensitivity to every
// layout-relevant knob), artifact-cache robustness (corrupt-entry
// eviction), atomic .lay publication, and the job server's scheduling
// contracts — daemon results byte-identical to direct engine runs, repeat
// submits served from cache, concurrent identical submits running the
// work exactly once, cooperative cancel with follower promotion, and the
// socket daemon end to end, including hostile request lines.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/engine.hpp"
#include "io/atomic_file.hpp"
#include "io/lay_io.hpp"
#include "io/pgg_io.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

using namespace pgl;
namespace fs = std::filesystem;

const std::string kMiniGfa =
    "H\tVN:Z:1.0\n"
    "S\ts1\tACGT\n"
    "S\ts2\tTT\n"
    "S\ts3\tG\n"
    "S\ts4\tCCA\n"
    "L\ts1\t+\ts2\t-\t0M\n"
    "L\ts2\t+\ts3\t+\t0M\n"
    "L\ts3\t+\ts4\t+\t0M\n"
    "P\tp1\ts1+,s2-,s3+,s4+\t*\n"
    "P\tp2\ts1+,s2+\t*\n";

/// Fresh per-test scratch directory (gtest's TempDir is shared).
std::string scratch_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/pgl_serve_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string write_mini_gfa(const std::string& dir) {
    const std::string path = dir + "/mini.gfa";
    std::ofstream out(path, std::ios::binary);
    out << kMiniGfa;
    return path;
}

serve::JobRequest mini_request(const std::string& graph,
                               const std::string& backend = "cpu-batched") {
    serve::JobRequest r;
    r.graph = graph;
    r.backend = backend;
    r.config.iter_max = 4;
    return r;
}

void expect_same_layout(const core::Layout& a, const core::Layout& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.start_x[i], b.start_x[i]) << "node " << i;
        ASSERT_EQ(a.start_y[i], b.start_y[i]) << "node " << i;
        ASSERT_EQ(a.end_x[i], b.end_x[i]) << "node " << i;
        ASSERT_EQ(a.end_y[i], b.end_y[i]) << "node " << i;
    }
}

// --- JSON model ---

TEST(ServeJson, RoundTripIsCanonical) {
    const std::string text =
        R"({"z":1,"a":[1,2.5,"x",true,null],"s":"a\nbA","neg":-3})";
    const serve::JsonValue v = serve::json_parse(text);
    const std::string once = v.dump();
    EXPECT_EQ(serve::json_parse(once).dump(), once);  // fixpoint
    EXPECT_EQ(v.find("a")->as_array().size(), 5u);
    EXPECT_EQ(v.find("s")->as_string(), "a\nbA");
    EXPECT_EQ(v.find("neg")->as_int(), -3);
    EXPECT_TRUE(v.find("z")->is_integer());
    EXPECT_FALSE(v.find("a")->as_array()[1].is_integer());
}

TEST(ServeJson, RejectsMalformedInput) {
    EXPECT_THROW(serve::json_parse("{"), std::runtime_error);
    EXPECT_THROW(serve::json_parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(serve::json_parse("{\"a\":1} extra"), std::runtime_error);
    EXPECT_THROW(serve::json_parse("nope"), std::runtime_error);
}

TEST(ServeJson, NestingIsCappedAt64) {
    EXPECT_NO_THROW(serve::json_parse(std::string(64, '[') + std::string(64, ']')));
    EXPECT_THROW(serve::json_parse(std::string(65, '[') + std::string(65, ']')),
                 std::runtime_error);
    EXPECT_THROW(serve::json_parse(std::string(100000, '[')), std::runtime_error);
}

TEST(ServeJson, IntegerAccessorRejectsFractions) {
    const serve::JsonValue v = serve::json_parse(R"({"x":1.5,"y":-1})");
    EXPECT_THROW(v.find("x")->as_uint(), std::runtime_error);
    EXPECT_THROW(v.find("y")->as_uint(), std::runtime_error);
    EXPECT_EQ(v.find("y")->as_int(), -1);
}

TEST(ServeJson, IntegersAreExactAndRangeChecked) {
    const serve::JsonValue v = serve::json_parse(
        R"({"max":18446744073709551615,"min":-9223372036854775808,)"
        R"("big":9007199254740993})");
    EXPECT_EQ(v.find("max")->as_uint(), 18446744073709551615ULL);
    EXPECT_EQ(v.find("min")->as_int(), INT64_MIN);
    EXPECT_EQ(v.find("big")->as_uint(), 9007199254740993ULL);  // 2^53 + 1
    EXPECT_EQ(serve::json_parse(v.dump()).dump(), v.dump());
    EXPECT_THROW(v.find("max")->as_int(), std::runtime_error);
    EXPECT_THROW(serve::json_parse("18446744073709551616"), std::runtime_error);
    EXPECT_THROW(serve::json_parse("-9223372036854775809"), std::runtime_error);
}

// --- request canonicalization / cache keys ---

TEST(ServeRequest, KeyStableUnderFieldReordering) {
    const serve::JobRequest a = serve::parse_request(serve::json_parse(
        R"({"graph":"g.gfa","config":{"backend":"cpu-soa","iters":7,)"
        R"("seed":42,"kernel":"simd","threads":2}})"));
    const serve::JobRequest b = serve::parse_request(serve::json_parse(
        R"({"config":{"threads":2,"kernel":"simd","seed":42,)"
        R"("iters":7,"backend":"cpu-soa"},"graph":"g.gfa"})"));
    EXPECT_EQ(serve::canonical_request(a), serve::canonical_request(b));
}

TEST(ServeRequest, EveryKnobChangesTheKey) {
    const std::string base = serve::canonical_request(
        serve::parse_request(serve::json_parse(R"({"graph":"g.gfa"})")));
    const char* variants[] = {
        R"({"graph":"g.gfa","config":{"backend":"cpu-batched"}})",
        R"({"graph":"g.gfa","config":{"kernel":"simd"}})",
        R"({"graph":"g.gfa","config":{"iters":31}})",
        R"({"graph":"g.gfa","config":{"seed":1}})",
        R"({"graph":"g.gfa","config":{"threads":2}})",
        R"({"graph":"g.gfa","config":{"partition":true}})",
        R"({"graph":"g.gfa","config":{"multilevel":1}})",
        R"({"graph":"g.gfa","config":{"multilevel":2}})",
    };
    for (const char* text : variants) {
        const std::string canon = serve::canonical_request(
            serve::parse_request(serve::json_parse(text)));
        EXPECT_NE(canon, base) << text;
    }
    // The multilevel sub-options must distinguish keys when multilevel is on.
    const std::string ml1 = serve::canonical_request(serve::parse_request(
        serve::json_parse(R"({"graph":"g","config":{"multilevel":1}})")));
    const std::string ml2 =
        serve::canonical_request(serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":{"multilevel":1,"exact_tail":true}})")));
    EXPECT_NE(ml1, ml2);
}

TEST(ServeRequest, ExecutionOnlyKnobsDoNotChangeTheKey) {
    // component_workers changes *where* the work runs, never the bytes of
    // the result — two clients with different worker budgets must share one
    // cache entry.
    const std::string a = serve::canonical_request(serve::parse_request(
        serve::json_parse(R"({"graph":"g","config":{"partition":true}})")));
    const std::string b =
        serve::canonical_request(serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":{"partition":true,)"
            R"("component_workers":8}})")));
    EXPECT_EQ(a, b);
    // Same for the executor choice: thread and process runs are
    // byte-identical by contract, so they key the same cache entry.
    const std::string c =
        serve::canonical_request(serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":{"partition":true,)"
            R"("executor":"process","processes":4}})")));
    EXPECT_EQ(a, c);
    // And for placement: pinning and NUMA policy move pages and workers,
    // never a float, so a pinned request shares the unpinned cache entry.
    const std::string d =
        serve::canonical_request(serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":{"partition":true,)"
            R"("pin":true,"numa":"interleave"}})")));
    EXPECT_EQ(a, d);
}

TEST(ServeRequest, ExecutorKnobsParseAndRoundTripTheWire) {
    const serve::JobRequest r = serve::parse_request(serve::json_parse(
        R"({"graph":"g","config":{"partition":true,"executor":"process",)"
        R"("processes":3,"seed":41}})"));
    EXPECT_EQ(r.executor, "process");
    EXPECT_EQ(r.processes, 3u);
    // The wire form keeps the execution knobs (a resubmitted request must
    // run the same way), even though the cache key drops them.
    const serve::JobRequest back =
        serve::parse_request(serve::request_to_json(r));
    EXPECT_EQ(back.executor, "process");
    EXPECT_EQ(back.processes, 3u);
    EXPECT_EQ(serve::canonical_request(back), serve::canonical_request(r));
}

TEST(ServeRequest, PlacementKnobsRideTheWireAndRejectBadPolicy) {
    const serve::JobRequest r = serve::parse_request(serve::json_parse(
        R"({"graph":"g","config":{"pin":true,"numa":"node:2","seed":41}})"));
    EXPECT_TRUE(r.config.pin);
    EXPECT_EQ(r.config.numa, "node:2");
    const serve::JobRequest back =
        serve::parse_request(serve::request_to_json(r));
    EXPECT_TRUE(back.config.pin);
    EXPECT_EQ(back.config.numa, "node:2");
    // A malformed policy fails the submit, tagged with its config key.
    try {
        serve::parse_request(serve::json_parse(
            R"({"graph":"g","config":{"numa":"bogus"}})"));
        FAIL() << "expected rejection of numa=bogus";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("config.numa"), std::string::npos)
            << e.what();
    }
}

TEST(ServeRequest, UnknownConfigKeyIsRejected) {
    EXPECT_THROW(serve::parse_request(serve::json_parse(
                     R"({"graph":"g","config":{"itres":5}})")),
                 std::runtime_error);
    EXPECT_THROW(serve::parse_request(serve::json_parse(R"({"config":{}})")),
                 std::runtime_error);  // missing graph
}

// --- graph fingerprint ---

TEST(ServeCache, FingerprintTracksContentNotName) {
    const std::string dir = scratch_dir("fp");
    const std::string a = dir + "/a.gfa";
    const std::string b = dir + "/b.gfa";
    std::ofstream(a, std::ios::binary) << kMiniGfa;
    std::ofstream(b, std::ios::binary) << kMiniGfa;
    const std::string c = dir + "/c.gfa";
    std::ofstream(c, std::ios::binary) << kMiniGfa << "S\ts5\tA\n";
    EXPECT_EQ(serve::graph_fingerprint(a), serve::graph_fingerprint(b));
    EXPECT_NE(serve::graph_fingerprint(a), serve::graph_fingerprint(c));
    EXPECT_THROW(serve::graph_fingerprint(dir + "/missing.gfa"),
                 std::runtime_error);
}

// --- artifact cache ---

core::Layout tiny_layout() {
    core::Layout l;
    l.resize(3);
    for (std::size_t i = 0; i < 3; ++i) {
        l.start_x[i] = static_cast<float>(i);
        l.start_y[i] = 0.5f;
        l.end_x[i] = static_cast<float>(i) + 1.0f;
        l.end_y[i] = -0.5f;
    }
    return l;
}

TEST(ServeCache, PublishThenLookup) {
    serve::ArtifactCache cache(scratch_dir("cache_pub") + "/artifacts");
    const std::string key(32, 'a');
    EXPECT_FALSE(cache.lookup(key).has_value());
    const std::string path = cache.publish(key, tiny_layout());
    EXPECT_TRUE(fs::path(path).is_absolute());
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, path);
    expect_same_layout(io::read_layout_file(*hit), tiny_layout());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeCache, CorruptEntryIsEvicted) {
    serve::ArtifactCache cache(scratch_dir("cache_evict") + "/artifacts");
    const std::string key(32, 'b');
    const std::string path = cache.publish(key, tiny_layout());
    // Truncate mid-payload: magic intact, body short — read must fail.
    fs::resize_file(path, 12);
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_FALSE(fs::exists(path)) << "corrupt artifact must be unlinked";
    EXPECT_EQ(cache.evictions(), 1u);
    // The slot is reusable after eviction.
    cache.publish(key, tiny_layout());
    EXPECT_TRUE(cache.lookup(key).has_value());
}

// --- atomic file publication ---

TEST(ServeAtomicFile, WritesAreAllOrNothing) {
    const std::string dir = scratch_dir("atomic");
    const std::string path = dir + "/out.txt";
    io::atomic_write_file(path, [](std::ostream& out) { out << "payload"; });
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "payload");
    // No temp droppings next to the result.
    std::size_t entries = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);

    // A failing writer must leave no file at the destination.
    const std::string bad = dir + "/bad.txt";
    EXPECT_THROW(io::atomic_write_file(
                     bad,
                     [](std::ostream&) {
                         throw std::runtime_error("writer failed");
                     }),
                 std::runtime_error);
    EXPECT_FALSE(fs::exists(bad));

    // An unwritable directory fails the call, not the process.
    EXPECT_THROW(
        io::atomic_write_file(dir + "/no/such/dir/x.txt",
                              [](std::ostream& out) { out << "x"; }),
        std::runtime_error);
}

// --- job server ---

TEST(ServeServer, ResultMatchesDirectEngineRun) {
    const std::string dir = scratch_dir("direct");
    const std::string gfa = write_mini_gfa(dir);

    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 1;
    serve::Server server(opt);
    server.start();
    const std::uint64_t id = server.submit(mini_request(gfa));
    const serve::JobStatus done = server.wait(id);
    ASSERT_EQ(done.state, serve::JobState::kDone) << done.error;
    ASSERT_FALSE(done.artifact.empty());
    EXPECT_FALSE(done.cache_hit);
    EXPECT_EQ(done.progress, 1.0);

    const graph::LeanIngest ingest = io::load_graph_file(gfa);
    core::LayoutConfig cfg;
    cfg.iter_max = 4;
    auto engine = core::make_engine("cpu-batched");
    engine->init(ingest.graph, cfg);
    expect_same_layout(io::read_layout_file(done.artifact),
                       engine->run().layout);
    server.shutdown();
}

TEST(ServeServer, RepeatSubmitIsServedFromCache) {
    const std::string dir = scratch_dir("cachehit");
    const std::string gfa = write_mini_gfa(dir);
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 1;
    serve::Server server(opt);
    server.start();
    const serve::JobStatus first = server.wait(server.submit(mini_request(gfa)));
    ASSERT_EQ(first.state, serve::JobState::kDone) << first.error;
    const serve::JobStatus second =
        server.wait(server.submit(mini_request(gfa)));
    EXPECT_EQ(second.state, serve::JobState::kDone);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.artifact, first.artifact);
    EXPECT_EQ(second.key, first.key);
    EXPECT_EQ(server.stats().cache_hits, 1u);
    // A different seed is a different key — must not hit.
    serve::JobRequest other = mini_request(gfa);
    other.config.seed += 1;
    const serve::JobStatus third = server.wait(server.submit(other));
    EXPECT_EQ(third.state, serve::JobState::kDone);
    EXPECT_FALSE(third.cache_hit);
    EXPECT_NE(third.key, first.key);
    server.shutdown();
}

TEST(ServeServer, ConcurrentIdenticalSubmitsRunOnce) {
    const std::string dir = scratch_dir("dedup");
    const std::string gfa = write_mini_gfa(dir);
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 2;
    serve::Server server(opt);
    // Submit both before the workers start: the second is guaranteed to
    // observe the first in flight and join it as a follower.
    const std::uint64_t a = server.submit(mini_request(gfa));
    const std::uint64_t b = server.submit(mini_request(gfa));
    server.start();
    const serve::JobStatus sa = server.wait(a);
    const serve::JobStatus sb = server.wait(b);
    ASSERT_EQ(sa.state, serve::JobState::kDone) << sa.error;
    ASSERT_EQ(sb.state, serve::JobState::kDone) << sb.error;
    EXPECT_EQ(sa.artifact, sb.artifact);
    EXPECT_TRUE(sb.cache_hit);  // completed by the leader, no second run
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.dedup_joins, 1u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cache_hits, 0u);  // joined in flight, not via disk
    server.shutdown();
}

TEST(ServeServer, CancelQueuedJobAndPromoteFollower) {
    const std::string dir = scratch_dir("cancel");
    const std::string gfa = write_mini_gfa(dir);
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 1;
    serve::Server server(opt);
    // Not started yet: both jobs sit queued, b is a's follower.
    const std::uint64_t a = server.submit(mini_request(gfa));
    const std::uint64_t b = server.submit(mini_request(gfa));
    // Cancelling the leader must not kill the follower's request: b is
    // promoted to a fresh leader and still completes.
    EXPECT_TRUE(server.cancel(a));
    EXPECT_EQ(server.status(a).state, serve::JobState::kCancelled);
    EXPECT_FALSE(server.cancel(a)) << "cancel of a terminal job is a no-op";
    server.start();
    const serve::JobStatus sb = server.wait(b);
    EXPECT_EQ(sb.state, serve::JobState::kDone) << sb.error;
    EXPECT_FALSE(sb.artifact.empty());
    EXPECT_EQ(server.stats().cancelled, 1u);
    server.shutdown();
}

TEST(ServeServer, ShutdownCancelsQueuedWorkAndRefusesNewSubmits) {
    const std::string dir = scratch_dir("shutdown");
    const std::string gfa = write_mini_gfa(dir);
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 1;
    serve::Server server(opt);
    const std::uint64_t id = server.submit(mini_request(gfa));
    server.shutdown();
    EXPECT_EQ(server.status(id).state, serve::JobState::kCancelled);
    EXPECT_THROW(server.submit(mini_request(gfa)), std::runtime_error);
}

TEST(ServeServer, InvalidRequestsFailTheSubmitNotTheWorker) {
    const std::string dir = scratch_dir("invalid");
    const std::string gfa = write_mini_gfa(dir);
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    serve::Server server(opt);
    server.start();
    serve::JobRequest bad_backend = mini_request(gfa, "cpu-nope");
    EXPECT_THROW(server.submit(bad_backend), std::runtime_error);
    serve::JobRequest bad_kernel = mini_request(gfa);
    bad_kernel.config.kernel = "avx1024";
    EXPECT_THROW(server.submit(bad_kernel), std::runtime_error);
    serve::JobRequest bad_executor = mini_request(gfa);
    bad_executor.partition = true;
    bad_executor.executor = "bogus";
    EXPECT_THROW(server.submit(bad_executor), std::runtime_error);
    serve::JobRequest bad_graph = mini_request(dir + "/missing.gfa");
    EXPECT_THROW(server.submit(bad_graph), std::runtime_error);
    EXPECT_EQ(server.stats().submitted, 0u);
    server.shutdown();
}

TEST(ServeServer, SmallestJobAdmittedFirst) {
    const std::string dir = scratch_dir("fairness");
    const std::string small = write_mini_gfa(dir);
    // A strictly larger graph file (same structure, longer tail of nodes).
    const std::string large = dir + "/large.gfa";
    {
        std::ofstream out(large, std::ios::binary);
        out << kMiniGfa;
        for (int i = 0; i < 64; ++i) {
            out << "S\tx" << i << "\tACGTACGT\n";
        }
    }
    serve::ServerOptions opt;
    opt.cache_dir = dir + "/cache";
    opt.workers = 1;
    serve::Server server(opt);
    // Enqueue large first while the workers are parked; the small job must
    // still be admitted first (smallest-first fairness).
    const std::uint64_t big_id = server.submit(mini_request(large));
    const std::uint64_t small_id = server.submit(mini_request(small));
    EXPECT_GT(server.status(big_id).size, server.status(small_id).size);
    server.start();
    server.wait(big_id);
    server.wait(small_id);
    // Both completed; the queue order is observable through queue time only
    // statistically, but the run must finish both with one worker.
    EXPECT_EQ(server.stats().completed, 2u);
    server.shutdown();
}

// --- socket daemon ---

TEST(ServeDaemon, LineProtocolEndToEnd) {
    const std::string dir = scratch_dir("daemon");
    const std::string gfa = write_mini_gfa(dir);
    // AF_UNIX paths are limited to ~108 bytes; keep it short.
    const std::string sock = dir + "/d.sock";

    serve::DaemonOptions opt;
    opt.socket_path = sock;
    opt.server.cache_dir = dir + "/cache";
    opt.server.workers = 1;
    serve::Daemon daemon(opt);
    std::thread runner([&] { daemon.run(); });
    while (!fs::exists(sock)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    EXPECT_EQ(serve::send_request(sock, R"({"cmd":"ping"})"),
              R"({"ok":true,"pong":true})");

    const serve::JsonValue submitted = serve::json_parse(serve::send_request(
        sock, R"({"cmd":"submit","graph":")" + gfa +
                  R"(","config":{"backend":"cpu-batched","iters":4}})"));
    ASSERT_TRUE(submitted.find("ok")->as_bool()) << submitted.dump();
    const std::uint64_t id = submitted.find("id")->as_uint();

    const serve::JsonValue done = serve::json_parse(serve::send_request(
        sock, R"({"cmd":"result","id":)" + std::to_string(id) +
                  R"(,"wait":true})"));
    ASSERT_TRUE(done.find("ok")->as_bool()) << done.dump();
    EXPECT_EQ(done.find("state")->as_string(), "done");
    ASSERT_NE(done.find("artifact"), nullptr);
    EXPECT_TRUE(fs::exists(done.find("artifact")->as_string()));

    // Unknown command and malformed JSON answer with ok:false, not a close.
    const serve::JsonValue bad = serve::json_parse(
        serve::send_request(sock, R"({"cmd":"frobnicate"})"));
    EXPECT_FALSE(bad.find("ok")->as_bool());
    const serve::JsonValue worse =
        serve::json_parse(serve::send_request(sock, "not json"));
    EXPECT_FALSE(worse.find("ok")->as_bool());

    const serve::JsonValue stats = serve::json_parse(
        serve::send_request(sock, R"({"cmd":"stats"})"));
    EXPECT_EQ(stats.find("completed")->as_uint(), 1u);

    const serve::JsonValue stop = serve::json_parse(
        serve::send_request(sock, R"({"cmd":"shutdown"})"));
    EXPECT_TRUE(stop.find("ok")->as_bool());
    runner.join();
    EXPECT_FALSE(fs::exists(sock)) << "socket file must be removed on exit";
}

/// Sends `bytes` as is (no newline added) on a fresh connection and
/// returns the first line the daemon answers. A send cut short because the
/// daemon hung up is expected for oversized input.
std::string send_raw(const std::string& sock, const std::string& bytes) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    for (std::size_t off = 0; off < bytes.size();) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
    }
    std::string reply;
    char c;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply += c;
    ::close(fd);
    return reply;
}

TEST(ServeDaemon, HostileLinesGetErrorRepliesNotACrash) {
    const std::string dir = scratch_dir("hostile");
    const std::string sock = dir + "/d.sock";
    serve::DaemonOptions opt;
    opt.socket_path = sock;
    opt.server.cache_dir = dir + "/cache";
    opt.server.workers = 1;
    serve::Daemon daemon(opt);
    std::thread runner([&] { daemon.run(); });
    while (!fs::exists(sock)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // 100k nested arrays on one line: past the depth cap of 64.
    const serve::JsonValue deep =
        serve::json_parse(serve::send_request(sock, std::string(100000, '[')));
    EXPECT_FALSE(deep.find("ok")->as_bool());
    EXPECT_NE(deep.find("error")->as_string().find("nesting"), std::string::npos);

    // 2 MiB with no newline: past the 1 MiB line cap.
    const serve::JsonValue huge =
        serve::json_parse(send_raw(sock, std::string(2u << 20, 'x')));
    EXPECT_FALSE(huge.find("ok")->as_bool());
    EXPECT_NE(huge.find("error")->as_string().find("longer"), std::string::npos);

    EXPECT_EQ(serve::send_request(sock, R"({"cmd":"ping"})"),
              R"({"ok":true,"pong":true})");
    daemon.stop();
    runner.join();
}

}  // namespace

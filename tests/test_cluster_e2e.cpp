// End-to-end cluster differential gate (tier2): forks REAL gpa_serve
// processes on localhost and checks that the 2- and 3-process clusters'
// prefill and the 2-process cluster's decode outputs are bit-identical
// to the in-process oracles — seqpar/sim_cluster for ring prefill, a local
// SessionManager for routed decode. This is the non-negotiable gate:
// if it holds, the wire path (frame codec, RPC, rotation protocol,
// deferred in-order folding) introduced zero numerical drift.
//
// The binary path is injected by CMake as GPA_SERVE_PATH; every
// network wait has a short timeout, and the ctest registration adds a
// hard TIMEOUT so a hung accept() can never wedge CI.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kvcache/session_manager.hpp"
#include "net/cluster.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;

struct NodeProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

NodeProc spawn_serve(Index pages, Index page_size, Index head_dim) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string pages_s = std::to_string(pages);
    const std::string ps_s = std::to_string(page_size);
    const std::string d_s = std::to_string(head_dim);
    ::execl(GPA_SERVE_PATH, GPA_SERVE_PATH, "--port", "0", "--pages", pages_s.c_str(),
            "--page-size", ps_s.c_str(), "--dim", d_s.c_str(), "--accept-timeout-ms",
            "60000", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char c;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
  ::close(fds[0]);
  NodeProc np;
  np.pid = pid;
  if (line.rfind("LISTENING ", 0) == 0) {
    np.port = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
  }
  EXPECT_NE(np.port, 0) << "gpa_serve did not report a port: \"" << line << "\"";
  return np;
}

/// Spawns N real node processes and connects a ClusterClient; shuts
/// everything down (and reaps the children) on destruction.
struct ProcessCluster {
  std::vector<NodeProc> procs;
  net::ClusterClient client;

  ProcessCluster(Index n, Index pages, Index page_size, Index head_dim) {
    for (Index p = 0; p < n; ++p) {
      const NodeProc np = spawn_serve(pages, page_size, head_dim);
      if (np.port == 0) continue;  // EXPECT already fired
      auto t = net::TcpTransport::connect("127.0.0.1", np.port, net::Millis{10000},
                                          net::Millis{30000});
      EXPECT_NE(t, nullptr);
      procs.push_back(np);
      if (t) client.add_peer(static_cast<std::uint64_t>(p), std::move(t));
    }
  }

  ~ProcessCluster() {
    client.shutdown_all();
    for (const NodeProc& np : procs) {
      int status = 0;
      ::waitpid(np.pid, &status, 0);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "node " << np.pid << " did not exit cleanly";
    }
  }
};

TEST(ClusterE2E, MultiProcessRingPrefillBitIdenticalToSimCluster) {
  const Index L = 128, d = 24;
  const auto mask = build_csr_random(L, RandomParams{0.12, 4242});
  Rng rng(17);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  // P=3 rotates over two steps, so fetches and deliveries fan out to
  // nodes that hold more than one foreign shard.
  for (const Index P : {2, 3}) {
    const auto part = seqpar::partition_balanced_nnz(L, P, seqpar::degrees_of(mask));
    ProcessCluster cluster(P, /*pages=*/64, /*page_size=*/16, d);
    ASSERT_EQ(cluster.client.peers(), static_cast<Size>(P));

    for (const bool causal : {false, true}) {
      Matrix<float> wire_out;
      const auto rep =
          cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
      Matrix<float> oracle(L, d);
      AttentionOptions opts;
      opts.causal = causal;
      const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
      ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0)
          << "P=" << P << " causal=" << causal;
      ASSERT_EQ(rep.nodes.size(), sim.nodes.size());
      for (std::size_t p = 0; p < sim.nodes.size(); ++p) {
        EXPECT_EQ(rep.nodes[p].edges, sim.nodes[p].edges) << "P=" << P << " node " << p;
      }
    }
  }
}

TEST(ClusterE2E, TwoProcessRoutedDecodeBitIdenticalToLocalSessionManager) {
  const Index d = 16, prompt = 20, steps = 10;
  kvcache::SessionManager::Config cfg;
  cfg.pool.num_pages = 64;
  cfg.pool.page_size = 16;
  cfg.pool.head_dim = d;

  ProcessCluster cluster(2, cfg.pool.num_pages, cfg.pool.page_size, d);
  ASSERT_EQ(cluster.client.peers(), 2u);
  kvcache::SessionManager local(cfg);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 5;

  Rng rng(71);
  for (const std::uint64_t sid : {11u, 22u, 33u, 44u}) {
    cluster.client.create_session(sid, wm);
    local.create(sid, wm.to_spec());

    Matrix<float> q(prompt, d), k(prompt, d), v(prompt, d), remote_o, local_o;
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
    cluster.client.prefill(sid, q, k, v, remote_o);
    local.prefill(sid, q, k, v, local_o);
    ASSERT_EQ(std::memcmp(remote_o.data(), local_o.data(), local_o.size_bytes()), 0);

    std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size());
    std::vector<float> remote_row(qr.size()), local_row(qr.size());
    for (Index t = 0; t < steps; ++t) {
      for (auto* vec : {&qr, &kr, &vr}) {
        for (float& x : *vec) x = rng.next_float();
      }
      cluster.client.decode_step(sid, qr.data(), kr.data(), vr.data(), d,
                                 remote_row.data());
      local.decode_step(sid, qr.data(), kr.data(), vr.data(), local_row.data());
      ASSERT_EQ(std::memcmp(remote_row.data(), local_row.data(),
                            remote_row.size() * sizeof(float)),
                0)
          << "session " << sid << " step " << t;
    }
  }

  // Ownership really is spread: both nodes hold at least one session.
  const auto i0 = cluster.client.ping(0);
  const auto i1 = cluster.client.ping(1);
  EXPECT_EQ(i0.sessions + i1.sessions, 4u);
}

TEST(ClusterE2E, TypedErrorsSurviveRealSockets) {
  const Index d = 8;
  ProcessCluster cluster(2, /*pages=*/8, /*page_size=*/16, d);
  ASSERT_EQ(cluster.client.peers(), 2u);
  std::vector<float> row(static_cast<std::size_t>(d), 0.25f), out(row.size());
  EXPECT_THROW(
      cluster.client.decode_step(12345, row.data(), row.data(), row.data(), d, out.data()),
      kvcache::SessionNotFound);
}

/// Runs `gpa_cli <args>`, capturing stdout+stderr and the exit code.
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string cmd = "\"" + std::string(GPA_CLI_PATH) + "\" " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string output;
  char buf[512];
  while (::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = ::pclose(pipe);
  return {(status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1, output};
}

// The live scrape path, end to end against real forked processes: each
// node's Op::Stats snapshot is that PROCESS's registry, so per-node
// counters must reconcile exactly with the work this test routed to it,
// and `gpa_cli stats` — a third process speaking the same RPC — must
// report the same numbers. gpa_serve serves one connection at a time,
// so the test runs in phases: the workload client disconnects (sessions
// and the registry survive across connections) before the CLI scrapes,
// and a final client connects just to shut the nodes down.
TEST(ClusterE2E, StatsScrapeMatchesNodeActivityAndCli) {
  const Index d = 16, prompt = 20;
  std::vector<NodeProc> procs;
  for (int p = 0; p < 2; ++p) procs.push_back(spawn_serve(/*pages=*/64, /*page_size=*/16, d));
  ASSERT_EQ(procs.size(), 2u);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 5;

  auto connect_all = [&](net::ClusterClient& client) {
    for (std::size_t p = 0; p < procs.size(); ++p) {
      auto t = net::TcpTransport::connect("127.0.0.1", procs[p].port, net::Millis{10000},
                                          net::Millis{30000});
      ASSERT_NE(t, nullptr);
      client.add_peer(static_cast<std::uint64_t>(p), std::move(t));
    }
  };

  // Phase 1: known per-node workload — sessions land where the ring
  // says, and we tally the decode steps we send to each owner — then
  // scrape over the same connection and reconcile.
  std::map<std::uint64_t, obs::MetricsSnapshot> scraped;
  {
    net::ClusterClient client;
    connect_all(client);
    Rng rng(5);
    std::map<std::uint64_t, Size> steps_by_node, sessions_by_node;
    for (const std::uint64_t sid : {101u, 202u, 303u}) {
      const std::uint64_t owner = client.owner_of(sid);
      client.create_session(sid, wm);
      sessions_by_node[owner] += 1;
      Matrix<float> q(prompt, d), k(prompt, d), v(prompt, d), o;
      fill_uniform(q, rng);
      fill_uniform(k, rng);
      fill_uniform(v, rng);
      client.prefill(sid, q, k, v, o);
      std::vector<float> row(static_cast<std::size_t>(d), 0.5f), out_row(row.size());
      const Size steps = 1 + sid % 4;
      for (Size t = 0; t < steps; ++t) {
        client.decode_step(sid, row.data(), row.data(), row.data(), d, out_row.data());
      }
      steps_by_node[owner] += steps;
    }

    Size scraped_sessions = 0, scraped_steps = 0;
    for (const std::uint64_t node : {0u, 1u}) {
      const obs::MetricsSnapshot snap = client.node_stats(node);
      // Counters reconcile with the work we routed to this node.
      EXPECT_EQ(snap.counter("kvcache.decode.steps"), steps_by_node[node]) << "node " << node;
      EXPECT_EQ(snap.gauge("kvcache.sessions.live"),
                static_cast<std::int64_t>(sessions_by_node[node]))
          << "node " << node;
      // The scrape-time gauges agree with the Ping view of the same node.
      const auto info = client.ping(node);
      EXPECT_EQ(snap.gauge("kvcache.pages.in_use"),
                static_cast<std::int64_t>(info.pages_in_use));
      EXPECT_EQ(snap.gauge("kvcache.pages.free"), static_cast<std::int64_t>(info.pages_free));
      // The node's wire layer saw our traffic.
      EXPECT_GT(snap.counter("net.frames.received"), 0u);
      EXPECT_GT(snap.counter("net.bytes.received"), 0u);
      EXPECT_EQ(snap.counter("net.checksum_failures"), 0u);
      scraped_sessions += static_cast<Size>(snap.gauge("kvcache.sessions.live"));
      scraped_steps += snap.counter("kvcache.decode.steps");

      // Counters are monotone across scrapes, and the scrape itself is
      // visible in the second snapshot's frame counters.
      const obs::MetricsSnapshot again = client.node_stats(node);
      for (const auto& c : snap.counters) {
        EXPECT_GE(again.counter(c.name), c.value) << c.name;
      }
      EXPECT_GT(again.counter("net.frames.received"), snap.counter("net.frames.received"));
      scraped[node] = again;
    }
    EXPECT_EQ(scraped_sessions, 3u);
    EXPECT_EQ(scraped_steps, static_cast<Size>(1 + 101 % 4 + 1 + 202 % 4 + 1 + 303 % 4));
    // client destructs here: the nodes see EOF and loop back to accept.
  }

  // Phase 2: gpa_cli stats — a separate process speaking Op::Stats over
  // TCP. kvcache counters are quiescent across connections, so the
  // CLI's text line must match the phase-1 scrape exactly.
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const auto [exit_code, output] =
        run_cli("stats 127.0.0.1:" + std::to_string(procs[p].port));
    ASSERT_EQ(exit_code, 0) << output;
    const std::string want =
        "kvcache.decode.steps " +
        std::to_string(scraped[static_cast<std::uint64_t>(p)].counter("kvcache.decode.steps"));
    EXPECT_NE(output.find(want), std::string::npos)
        << "node " << p << " cli output:\n" << output;
    EXPECT_NE(output.find("net.frames.received"), std::string::npos);
  }

  // Phase 3: reconnect just to shut the nodes down, then reap them.
  {
    net::ClusterClient client;
    connect_all(client);
    client.shutdown_all();
  }
  for (const NodeProc& np : procs) {
    int status = 0;
    ::waitpid(np.pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "node " << np.pid << " did not exit cleanly";
  }
}

}  // namespace

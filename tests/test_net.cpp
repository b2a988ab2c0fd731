// src/net unit tests, transport-polymorphic via the loopback arm:
// frame codec fuzz (every malformed input is a typed WireStatus, never
// UB or a hang), loopback + TCP transports, the RPC error taxonomy
// across a served connection, consistent-hash ring movement, and the
// cluster differential gates — loopback ring prefill bit-identical to
// seqpar/sim_cluster, loopback routed decode bit-identical to a local
// SessionManager. The real multi-process version of the gates lives in
// test_cluster_e2e (tier2).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kvcache/errors.hpp"
#include "kvcache/session_manager.hpp"
#include "net/cluster.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/rpc.hpp"
#include "net/transport.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;

std::vector<std::uint8_t> valid_frame_bytes(std::uint16_t type = 7) {
  net::Frame f;
  f.type = type;
  f.flags = 3;
  f.payload = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire;
  net::encode_frame(f, wire);
  return wire;
}

// ---------------------------------------------------------------------
// Frame codec

TEST(Frame, RoundTripPreservesTypeFlagsPayload) {
  net::Frame in;
  in.type = 42;
  in.flags = 0xbeef;
  in.payload = {9, 8, 7, 6};
  std::vector<std::uint8_t> wire;
  net::encode_frame(in, wire);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + 4 + net::kFrameTrailerBytes);

  net::Frame out;
  ASSERT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Ok);
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.flags, in.flags);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Frame, TruncatedHeaderIsTyped) {
  const auto wire = valid_frame_bytes();
  net::Frame out;
  for (std::size_t n = 0; n < net::kFrameHeaderBytes; ++n) {
    EXPECT_EQ(net::decode_frame(wire.data(), n, out), net::WireStatus::Truncated) << n;
  }
}

TEST(Frame, TruncatedPayloadOrTrailerIsTyped) {
  const auto wire = valid_frame_bytes();
  net::Frame out;
  for (std::size_t n = net::kFrameHeaderBytes; n < wire.size(); ++n) {
    EXPECT_EQ(net::decode_frame(wire.data(), n, out), net::WireStatus::Truncated) << n;
  }
}

TEST(Frame, BadMagicIsTyped) {
  auto wire = valid_frame_bytes();
  wire[0] ^= 0xff;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::BadMagic);
}

TEST(Frame, OversizedLengthPrefixIsTypedAndDoesNotAllocate) {
  auto wire = valid_frame_bytes();
  // Length prefix lives at header bytes [8, 16): write len = cap + 1.
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  for (int b = 0; b < 8; ++b) {
    wire[8 + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(huge >> (8 * b));
  }
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Oversized);
}

TEST(Frame, ZeroLengthPayloadIsTyped) {
  auto wire = valid_frame_bytes();
  for (int b = 0; b < 8; ++b) wire[8 + static_cast<std::size_t>(b)] = 0;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::EmptyPayload);
}

TEST(Frame, ChecksumMismatchIsTyped) {
  auto wire = valid_frame_bytes();
  wire[net::kFrameHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out),
            net::WireStatus::ChecksumMismatch);
}

TEST(Frame, TrailingJunkIsTyped) {
  auto wire = valid_frame_bytes();
  wire.push_back(0xaa);
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Malformed);
}

TEST(Frame, ReaderUnderrunIsStickyNotUB) {
  const std::uint8_t bytes[3] = {1, 2, 3};
  net::Reader r(bytes, sizeof(bytes));
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_EQ(r.u64(), 0u);  // underrun: zero, flag trips
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.u8(), 0u);  // sticky: still failing, still no UB
  Matrix<float> m;
  EXPECT_FALSE(net::get_matrix(r, m));
}

TEST(Frame, MatrixCodecRoundTripsBitExactly) {
  Rng rng(11);
  Matrix<float> in(7, 5);
  fill_uniform(in, rng);
  net::Writer w;
  net::put_matrix(w, in);
  net::Reader r(w.buf);
  Matrix<float> out;
  ASSERT_TRUE(net::get_matrix(r, out));
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(out.same_shape(in));
  EXPECT_EQ(std::memcmp(out.data(), in.data(), in.size_bytes()), 0);
}

TEST(Frame, MatrixCodecRejectsHostileDimensions) {
  net::Writer w;
  w.i64(1 << 20);
  w.i64(1 << 20);  // rows*cols overflows the frame cap
  net::Reader r(w.buf);
  Matrix<float> out;
  EXPECT_FALSE(net::get_matrix(r, out));
}

TEST(Frame, CsrCodecRoundTripsAndValidates) {
  const auto mask = build_csr_local(32, make_local(4));
  net::Writer w;
  net::put_csr(w, mask);
  net::Reader r(w.buf);
  Csr<float> out;
  ASSERT_TRUE(net::get_csr(r, out));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.rows, mask.rows);
  EXPECT_EQ(out.col_idx, mask.col_idx);

  // A non-canonical CSR (descending columns) must be rejected.
  Csr<float> bad = mask;
  std::swap(bad.col_idx[1], bad.col_idx[2]);
  net::Writer wb;
  net::put_csr(wb, bad);
  net::Reader rb(wb.buf);
  EXPECT_FALSE(net::get_csr(rb, out));

  // A row count so large that the byte count of its offsets wraps to 8,
  // with 8 bytes left: rejected before any allocation.
  net::Writer wh;
  wh.i64(std::int64_t{1} << 61);
  wh.i64(4);
  wh.u64(0);
  wh.i64(0);
  net::Reader rh(wh.buf);
  EXPECT_FALSE(net::get_csr(rh, out));
}

TEST(Frame, PartitionCodecRoundTripsAndValidates) {
  const auto mask = build_csr_local(64, make_local(5));
  const auto part = seqpar::partition_balanced_nnz(64, 3, seqpar::degrees_of(mask));
  net::Writer w;
  net::put_partition(w, part);
  net::Reader r(w.buf);
  seqpar::Partition out;
  ASSERT_TRUE(net::get_partition(r, out));
  EXPECT_EQ(out.boundaries, part.boundaries);
  EXPECT_EQ(out.work, part.work);

  seqpar::Partition bad = part;
  bad.boundaries[1] = -3;  // non-monotone
  net::Writer wb;
  net::put_partition(wb, bad);
  net::Reader rb(wb.buf);
  EXPECT_FALSE(net::get_partition(rb, out));
}

// ---------------------------------------------------------------------
// Transports

TEST(Transport, LoopbackCarriesFramesBothWays) {
  auto [a, b] = net::make_loopback_pair();
  net::Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  ASSERT_EQ(net::write_frame(*a, f), net::WireStatus::Ok);
  net::Frame got;
  ASSERT_EQ(net::read_frame(*b, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);

  f.payload = {9};
  ASSERT_EQ(net::write_frame(*b, f), net::WireStatus::Ok);
  ASSERT_EQ(net::read_frame(*a, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);
}

TEST(Transport, LoopbackCloseYieldsTypedClosedNotHang) {
  auto [a, b] = net::make_loopback_pair();
  a->close();
  net::Frame got;
  EXPECT_EQ(net::read_frame(*b, got), net::WireStatus::Closed);
}

TEST(Transport, LoopbackCorruptBytesYieldTypedDecodeError) {
  auto [a, b] = net::make_loopback_pair();
  auto wire = valid_frame_bytes();
  wire[0] ^= 0xff;  // bad magic straight onto the stream
  ASSERT_TRUE(a->send_all(wire.data(), wire.size()));
  net::Frame got;
  EXPECT_EQ(net::read_frame(*b, got), net::WireStatus::BadMagic);
}

TEST(Transport, TcpRoundTripOnEphemeralPort) {
  net::TcpListener listener(0);
  ASSERT_NE(listener.port(), 0);

  std::unique_ptr<net::TcpTransport> server;
  std::thread acceptor(
      [&] { server = listener.accept(net::Millis{5000}, net::Millis{5000}); });
  auto client =
      net::TcpTransport::connect("127.0.0.1", listener.port(), net::Millis{5000},
                                 net::Millis{5000});
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  net::Frame f;
  f.type = 2;
  f.payload = {5, 4, 3, 2, 1};
  ASSERT_EQ(net::write_frame(*client, f), net::WireStatus::Ok);
  net::Frame got;
  ASSERT_EQ(net::read_frame(*server, got), net::WireStatus::Ok);
  EXPECT_EQ(got.payload, f.payload);

  client->close();
  EXPECT_EQ(net::read_frame(*server, got), net::WireStatus::Closed);
}

TEST(Transport, TcpAcceptTimesOutCleanly) {
  net::TcpListener listener(0);
  EXPECT_EQ(listener.accept(net::Millis{50}, net::Millis{50}), nullptr);
}

// ---------------------------------------------------------------------
// Loopback cluster harness

struct LoopbackCluster {
  std::vector<std::unique_ptr<net::NodeService>> services;
  std::vector<std::thread> threads;
  net::ClusterClient client;

  explicit LoopbackCluster(Index n, net::NodeConfig cfg = {}) {
    for (Index i = 0; i < n; ++i) {
      auto [client_end, server_end] = net::make_loopback_pair();
      services.push_back(std::make_unique<net::NodeService>(cfg));
      net::NodeService* svc = services.back().get();
      threads.emplace_back(
          [svc, t = std::move(server_end)]() mutable { svc->serve(*t); });
      client.add_peer(static_cast<std::uint64_t>(i), std::move(client_end));
    }
  }
  ~LoopbackCluster() {
    client.shutdown_all();
    for (auto& t : threads) t.join();
  }
};

// ---------------------------------------------------------------------
// RPC error taxonomy over a served connection

TEST(Rpc, TypedErrorsCrossTheWire) {
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 2;
  cfg.sessions.pool.page_size = 16;
  cfg.sessions.pool.head_dim = 8;
  LoopbackCluster cluster(1, cfg);
  auto& cc = cluster.client;

  const Index d = 8;
  std::vector<float> row(static_cast<std::size_t>(d), 0.5f);
  std::vector<float> out(row.size());

  // Unknown session → SessionNotFound (not an assert on the node).
  EXPECT_THROW(cc.decode_step(99, row.data(), row.data(), row.data(), d, out.data()),
               kvcache::SessionNotFound);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 4;
  cc.create_session(7, wm);
  // Duplicate create → InvalidArgument.
  EXPECT_THROW(cc.create_session(7, wm), InvalidArgument);

  // Overfill the 2-page pool in one prefill: the only session is
  // mid-operation (unevictable) → CacheFull.
  Rng rng(5);
  Matrix<float> q(48, d), k(48, d), v(48, d), o;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  EXPECT_THROW(cc.prefill(7, q, k, v, o), kvcache::CacheFull);

  // Evict-then-touch. Session 7's failed prefill left it empty; fill
  // it small, then let session 8's prefill evict it. Eviction erases
  // the record (only in-flight holders ever observe SessionEvicted),
  // so a later touch is SessionNotFound — the remote path must mirror
  // the local SessionManager's semantics exactly.
  Matrix<float> q1(16, d), k1(16, d), v1(16, d);
  fill_uniform(q1, rng);
  fill_uniform(k1, rng);
  fill_uniform(v1, rng);
  cc.prefill(7, q1, k1, v1, o);
  cc.create_session(8, wm);
  Matrix<float> q2(32, d), k2(32, d), v2(32, d);
  fill_uniform(q2, rng);
  fill_uniform(k2, rng);
  fill_uniform(v2, rng);
  cc.prefill(8, q2, k2, v2, o);
  EXPECT_THROW(cc.decode_step(7, row.data(), row.data(), row.data(), d, out.data()),
               kvcache::SessionNotFound);
}

TEST(Rpc, EveryStatusRethrowsAsItsTypedException) {
  auto [client_end, server_end] = net::make_loopback_pair();
  // Hand-rolled responder: echoes each request id back with a chosen
  // error status, covering the statuses NodeService only emits under
  // rare races (e.g. SessionEvicted needs an in-flight holder).
  const std::vector<net::RpcStatus> statuses = {
      net::RpcStatus::SessionNotFound, net::RpcStatus::SessionEvicted,
      net::RpcStatus::CacheFull, net::RpcStatus::InvalidArgument, net::RpcStatus::Internal};
  std::thread responder([t = std::move(server_end), &statuses]() mutable {
    for (const net::RpcStatus s : statuses) {
      net::RpcRequest req;
      ASSERT_EQ(net::recv_request(*t, req), net::WireStatus::Ok);
      net::RpcResponse rsp;
      rsp.id = req.id;
      net::make_error_response(rsp, s, "remote detail", 55);
      ASSERT_EQ(net::send_response(*t, rsp), net::WireStatus::Ok);
    }
  });

  net::RpcClient rpc(*client_end);
  auto call = [&] { rpc.call(net::Op::Ping, {1}); };
  EXPECT_THROW(call(), kvcache::SessionNotFound);
  EXPECT_THROW(call(), kvcache::SessionEvicted);
  EXPECT_THROW(call(), kvcache::CacheFull);
  EXPECT_THROW(call(), InvalidArgument);
  try {
    call();
    FAIL() << "Internal must throw RpcError";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::RpcStatus::Internal);
    EXPECT_STREQ(e.what(), "remote detail");
  }
  responder.join();
  client_end->close();
}

// ---------------------------------------------------------------------
// Hash ring

TEST(HashRing, AddingANodeMovesAboutOneNth) {
  constexpr Size kKeys = 20000;
  net::HashRing ring(128);
  for (std::uint64_t n = 0; n < 4; ++n) ring.add_node(n);

  std::vector<std::uint64_t> before(kKeys);
  for (Size k = 0; k < kKeys; ++k) before[k] = ring.owner(k * 7919 + 13);

  ring.add_node(4);
  Size moved = 0;
  for (Size k = 0; k < kKeys; ++k) {
    const std::uint64_t now = ring.owner(k * 7919 + 13);
    if (now != before[k]) {
      // Consistency: a key either keeps its owner or moves to the NEW
      // node — never between old nodes.
      EXPECT_EQ(now, 4u);
      ++moved;
    }
  }
  // Expect ~1/5 of keys to move; allow generous slack for hash noise.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(HashRing, SpreadsKeysAcrossNodes) {
  net::HashRing ring(128);
  for (std::uint64_t n = 0; n < 3; ++n) ring.add_node(n);
  std::vector<Size> owned(3, 0);
  for (std::uint64_t k = 0; k < 9000; ++k) ++owned[ring.owner(k)];
  for (const Size c : owned) {
    EXPECT_GT(c, Size{1500}) << "a node owns implausibly few keys";
  }
  EXPECT_THROW(net::HashRing(64).owner(1), InvalidArgument);
}

// ---------------------------------------------------------------------
// Differential gates over loopback

TEST(Cluster, RingPrefillBitIdenticalToSimCluster) {
  const Index L = 96, d = 16;
  const auto mask = build_csr_random(L, RandomParams{0.15, 99});
  Rng rng(21);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  for (const Index P : {2, 3}) {
    for (const bool causal : {false, true}) {
      const auto part = seqpar::partition_balanced_nnz(L, P, seqpar::degrees_of(mask));
      LoopbackCluster cluster(P);
      Matrix<float> wire_out;
      const auto rep =
          cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
      EXPECT_EQ(rep.shard_deliveries, static_cast<Size>(P) * static_cast<Size>(P - 1));

      Matrix<float> oracle(L, d);
      AttentionOptions opts;
      opts.causal = causal;
      const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
      ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0)
          << "P=" << P << " causal=" << causal;

      // Edge accounting matches the simulated cluster node for node.
      ASSERT_EQ(rep.nodes.size(), sim.nodes.size());
      for (std::size_t p = 0; p < sim.nodes.size(); ++p) {
        EXPECT_EQ(rep.nodes[p].edges, sim.nodes[p].edges);
      }
    }
  }
}

TEST(Cluster, RoutedDecodeBitIdenticalToLocalSessionManager) {
  const Index d = 16, prompt = 24, steps = 12;
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 64;
  cfg.sessions.pool.page_size = 16;
  cfg.sessions.pool.head_dim = d;
  LoopbackCluster cluster(2, cfg);
  kvcache::SessionManager local(cfg.sessions);

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Dilated1d;
  wm.a = 6;
  wm.b = 1;

  Rng rng(33);
  for (const std::uint64_t sid : {101u, 202u, 303u}) {
    cluster.client.create_session(sid, wm);
    local.create(sid, wm.to_spec());

    Matrix<float> q(prompt, d), k(prompt, d), v(prompt, d), remote_o, local_o;
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
    cluster.client.prefill(sid, q, k, v, remote_o);
    local.prefill(sid, q, k, v, local_o);
    ASSERT_TRUE(remote_o.same_shape(local_o));
    ASSERT_EQ(std::memcmp(remote_o.data(), local_o.data(), local_o.size_bytes()), 0);

    std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size());
    std::vector<float> remote_row(qr.size()), local_row(qr.size());
    for (Index t = 0; t < steps; ++t) {
      for (auto* vec : {&qr, &kr, &vr}) {
        for (float& x : *vec) x = rng.next_float();
      }
      const Index re = cluster.client.decode_step(sid, qr.data(), kr.data(), vr.data(), d,
                                                  remote_row.data());
      const Index le = local.decode_step(sid, qr.data(), kr.data(), vr.data(),
                                         local_row.data());
      EXPECT_EQ(re, le);
      ASSERT_EQ(std::memcmp(remote_row.data(), local_row.data(),
                            remote_row.size() * sizeof(float)),
                0)
          << "session " << sid << " step " << t;
    }
    cluster.client.release_session(sid);
    EXPECT_THROW(cluster.client.decode_step(sid, qr.data(), kr.data(), vr.data(), d,
                                            remote_row.data()),
                 kvcache::SessionNotFound);
  }

  // The sessions really were spread by the ring: ping both nodes and
  // count what they served.
  const auto i0 = cluster.client.ping(0);
  const auto i1 = cluster.client.ping(1);
  EXPECT_EQ(i0.sessions + i1.sessions, 0u);  // all released
}

// ---------------------------------------------------------------------
// Metrics snapshot wire codec + the Op::Stats scrape path

TEST(MetricsCodec, SnapshotRoundTripsExactly) {
  obs::MetricsSnapshot s;
  s.counters = {{"a.count", 7}, {"z.count", 0xffffffffffffull}};
  s.gauges = {{"g.depth", -12}, {"g.live", 3}};
  obs::HistogramSample h;
  h.name = "h.lat";
  h.edges = {0.5, 2.0, 100.25};
  h.counts = {1, 0, 5, 2};  // edges + overflow
  h.sum = 312.75;
  h.count = 8;
  s.histograms = {h};

  net::Writer w;
  net::put_metrics_snapshot(w, s);
  net::Reader r(w.buf);
  obs::MetricsSnapshot got;
  ASSERT_TRUE(net::get_metrics_snapshot(r, got));
  EXPECT_TRUE(r.done());

  ASSERT_EQ(got.counters.size(), 2u);
  EXPECT_EQ(got.counter("a.count"), 7u);
  EXPECT_EQ(got.counter("z.count"), 0xffffffffffffull);
  EXPECT_EQ(got.gauge("g.depth"), -12);
  const obs::HistogramSample* gh = got.histogram("h.lat");
  ASSERT_NE(gh, nullptr);
  EXPECT_EQ(gh->edges, h.edges);  // f64 codec is bit-exact
  EXPECT_EQ(gh->counts, h.counts);
  EXPECT_EQ(gh->sum, h.sum);
  EXPECT_EQ(gh->count, 8u);
}

TEST(MetricsCodec, HostileInputsAreRejectedNotTrusted) {
  // Truncated mid-stream: flip success off, never read past the end.
  {
    obs::MetricsSnapshot s;
    s.counters = {{"a", 1}, {"b", 2}};
    net::Writer w;
    net::put_metrics_snapshot(w, s);
    for (std::size_t cut = 1; cut < w.buf.size(); cut += 3) {
      std::vector<std::uint8_t> trunc(w.buf.begin(), w.buf.begin() + cut);
      net::Reader r(trunc);
      obs::MetricsSnapshot got;
      EXPECT_FALSE(net::get_metrics_snapshot(r, got)) << "cut=" << cut;
    }
  }
  // A hostile metric count must be bounds-rejected before allocation.
  {
    net::Writer w;
    w.u32(0x40000000u);  // 2^30 "counters"
    net::Reader r(w.buf);
    obs::MetricsSnapshot got;
    EXPECT_FALSE(net::get_metrics_snapshot(r, got));
  }
}

TEST(Stats, LoopbackScrapeServesTheNodeRegistry) {
  net::NodeConfig cfg;
  cfg.sessions.pool.num_pages = 16;
  cfg.sessions.pool.page_size = 4;
  cfg.sessions.pool.head_dim = 8;
  LoopbackCluster cluster(1, cfg);
  auto& cc = cluster.client;

  net::WireMask wm;
  wm.kind = net::WireMaskKind::Local;
  wm.a = 3;
  cc.create_session(1, wm);
  Rng rng(3);
  Matrix<float> q(8, 8), k(8, 8), v(8, 8), o;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  cc.prefill(1, q, k, v, o);
  std::vector<float> row(8, 0.5f), out_row(8);
  cc.decode_step(1, row.data(), row.data(), row.data(), 8, out_row.data());

  // Loopback shares this process's registry, so compare the scraped
  // gauges against the node's own SessionManager (refreshed at scrape
  // time) and check counter deltas between two scrapes, not absolutes.
  const obs::MetricsSnapshot snap = cc.node_stats(0);
  const auto local = cluster.services[0]->sessions().stats();
  EXPECT_EQ(snap.gauge("kvcache.sessions.live"), static_cast<std::int64_t>(local.sessions));
  EXPECT_EQ(snap.gauge("kvcache.pages.in_use"), static_cast<std::int64_t>(local.pages_in_use));
  EXPECT_EQ(snap.gauge("kvcache.pages.free"), static_cast<std::int64_t>(local.pages_free));
  EXPECT_EQ(snap.gauge("kvcache.prefix.entries"),
            static_cast<std::int64_t>(local.prefix_entries));
  EXPECT_GT(snap.counter("net.frames.received"), 0u);
  EXPECT_GT(snap.counter("net.rpc.calls"), 0u);

  // A second scrape is itself traffic: every counter is monotone and
  // the rpc/frame counters strictly advance.
  const obs::MetricsSnapshot again = cc.node_stats(0);
  for (const auto& c : snap.counters) EXPECT_GE(again.counter(c.name), c.value) << c.name;
  EXPECT_GT(again.counter("net.rpc.calls"), snap.counter("net.rpc.calls"));
  EXPECT_GT(again.counter("net.frames.sent"), snap.counter("net.frames.sent"));
}

}  // namespace

// src/net unit tests, transport-polymorphic via the loopback arm:
// frame codec fuzz (every malformed input is a typed WireStatus, never
// UB or a hang), loopback + TCP transports, the RPC error taxonomy
// across a served connection, consistent-hash ring movement, the
// cluster differential gates — loopback ring prefill bit-identical to
// seqpar/sim_cluster, loopback routed decode bit-identical to a local
// SessionManager — and seeded faults injected into a ring prefill. The real multi-process version of the gates lives in
// test_cluster_e2e (tier2).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
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
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;

/// n deterministic bytes that differ from their neighbours.
std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return v;
}

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

  // A frame of the first format ("GPAF", byte-wise FNV-1a trailer).
  wire = valid_frame_bytes();
  const std::uint32_t old_magic = 0x47504146u;
  for (int b = 0; b < 4; ++b) {
    wire[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(old_magic >> (8 * b));
  }
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::BadMagic);
}

TEST(Frame, OversizedLengthPrefixIsTypedAndDoesNotAllocate) {
  auto wire = valid_frame_bytes();
  // Length prefix lives at header bytes [8, 12): write len = cap + 1.
  const std::uint64_t huge = net::kMaxFramePayload + 1;
  for (int b = 0; b < 4; ++b) {
    wire[8 + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(huge >> (8 * b));
  }
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Oversized);
}

TEST(Frame, ZeroLengthPayloadIsTyped) {
  auto wire = valid_frame_bytes();
  for (int b = 0; b < 4; ++b) wire[8 + static_cast<std::size_t>(b)] = 0;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::EmptyPayload);
}

TEST(Frame, ChecksumMismatchIsTyped) {
  auto wire = valid_frame_bytes();
  wire[net::kFrameHeaderBytes + 2] ^= 0x01;  // flip one payload bit
  net::Frame out;
  EXPECT_EQ(net::decode_frame(wire.data(), wire.size(), out),
            net::WireStatus::ChecksumMismatch);

  // Every single-bit flip of a 4 KiB payload.
  net::Frame big;
  big.type = 1;
  big.payload = pattern_bytes(4096);
  std::vector<std::uint8_t> good;
  net::encode_frame(big, good);
  for (std::size_t bit = 0; bit < big.payload.size() * 8; ++bit) {
    wire = good;
    wire[net::kFrameHeaderBytes + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_EQ(net::decode_frame(wire.data(), wire.size(), out),
              net::WireStatus::ChecksumMismatch)
        << "bit " << bit;
  }
}

TEST(Frame, ChecksumIsXxh64OnEveryTailPath) {
  // XXH64, seed 0. The lengths 1..67 cover every tail the word loop
  // leaves (8-, 4- and 1-byte steps, with and without 32-byte stripes);
  // the values come from the reference xxHash implementation.
  const std::uint64_t golden[67] = {
      0xa96c7f0ce858bbb7ull, 0xc22c6a70ad56bba6ull, 0xbed43740ee6332bbull,
      0xfa212ae44b3bb23dull, 0xd339dcc9ac8e6776ull, 0x71cabdc85da7ffa0ull,
      0x2744460dd675d2c0ull, 0x994b676b71ce94ddull, 0x572b84c18b983af8ull,
      0x08283fd40ee4f8c9ull, 0x97f078da7a1a590cull, 0xb92f588ce720786eull,
      0xdadc8a6255b4829bull, 0x574269377227d80aull, 0x09e6451ed2ff8b1dull,
      0x94ad0095e72b24d5ull, 0x1464f2eff23b5fe1ull, 0x712c39f6d1ed935eull,
      0x83ef9c758393e89dull, 0x67822fa80e0c8933ull, 0xfa6de19e99ff8d43ull,
      0xa8d0ae04d79885f2ull, 0xcf65b69586b05fabull, 0x0a3b0194f3afe0b8ull,
      0xe0fd072fff811c86ull, 0xc4f7372a7fb8f247ull, 0xfee26cac05aeecf0ull,
      0x01a6f3d224fa7d3bull, 0x161a3bc98afcf092ull, 0x3f8796d7bfaaaa08ull,
      0x6711d55e306b5d8full, 0x07f7b8e3bc5d6e25ull, 0x09f85eeb4e1cbe9full,
      0x35284e7f91dd1ae5ull, 0x25cc31e4544bc8c9ull, 0xe7ac625222f2b655ull,
      0x1d8c3a2215085739ull, 0x1fb3064ed36c675full, 0xb13c137a0fb701c3ull,
      0xd25150177ba46490ull, 0x3ad8bb2779d9285eull, 0xfe4ddab6e3d75ddcull,
      0x9d340603aa03cc62ull, 0xd02b2028c27a5329ull, 0xff59426b0066066bull,
      0x713a114207f600e2ull, 0x79bd9d6dd8c15570ull, 0x2947de5e3a6afeceull,
      0x43f1e784039912d3ull, 0x072fa9968401e9c7ull, 0xc3c4ff0d8f66e206ull,
      0x0efbc3939fa05814ull, 0x42be842d0902d7a7ull, 0x8a78b907c424dc46ull,
      0x8f8dc5b07f6d48edull, 0xa2acf5b431db2e52ull, 0x403200f5d0354116ull,
      0xc326a3d65678339bull, 0xa53b8e5bc9ff65a4ull, 0x4cce586d8aca19e5ull,
      0xbd3bd33486af6dc6ull, 0x4149dd403b20a2dcull, 0xb7c9968c066cb6a5ull,
      0x50d4159a0411632eull, 0xd277176bff863efcull, 0x578ba93daaaa4333ull,
      0x5c44ab49f377e73full,
  };
  const auto bytes = pattern_bytes(4096);
  for (std::size_t n = 1; n <= 67; ++n) {
    EXPECT_EQ(net::frame_checksum(bytes.data(), n), golden[n - 1]) << "length " << n;
  }
  EXPECT_EQ(net::frame_checksum(bytes.data(), bytes.size()), 0xcf05adf75aca30cfull);
  const std::uint8_t abc[3] = {'a', 'b', 'c'};
  EXPECT_EQ(net::frame_checksum(abc, 3), 0x44bc2cf5ad770999ull);  // published vector
}

TEST(Frame, EveryHeaderBitFlipIsTypedWithoutWaitingForThePayload) {
  // The header check catches a damaged length before the reader waits
  // for the bytes it promises. On an open stream that carries nothing
  // past the frame, a raised length would block until a receive
  // timeout; here the sender closes, so such a wait shows as Truncated.
  const auto good = valid_frame_bytes();
  for (std::size_t bit = 0; bit < net::kFrameHeaderBytes * 8; ++bit) {
    auto wire = good;
    wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    net::Frame out;
    EXPECT_NE(net::decode_frame(wire.data(), wire.size(), out), net::WireStatus::Ok)
        << "bit " << bit;
    auto [a, b] = net::make_loopback_pair();
    ASSERT_TRUE(a->send_all(wire.data(), wire.size()));
    a->close();
    const net::WireStatus st = net::read_frame(*b, out);
    EXPECT_TRUE(st == net::WireStatus::BadMagic || st == net::WireStatus::EmptyPayload ||
                st == net::WireStatus::Oversized || st == net::WireStatus::ChecksumMismatch)
        << "bit " << bit << ": " << net::to_string(st);
  }
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

/// Wraps the router's end of peer i's connection (tests inject faults).
using WrapTransport =
    std::function<std::unique_ptr<net::Transport>(Index, std::unique_ptr<net::Transport>)>;

struct LoopbackCluster {
  std::vector<std::unique_ptr<net::NodeService>> services;
  std::vector<std::thread> threads;
  net::ClusterClient client;

  explicit LoopbackCluster(Index n, net::NodeConfig cfg = {}, const WrapTransport& wrap = {}) {
    for (Index i = 0; i < n; ++i) {
      auto [client_end, server_end] = net::make_loopback_pair();
      services.push_back(std::make_unique<net::NodeService>(cfg));
      net::NodeService* svc = services.back().get();
      threads.emplace_back(
          [svc, t = std::move(server_end)]() mutable { svc->serve(*t); });
      if (wrap) client_end = wrap(i, std::move(client_end));
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
  struct Shape {
    Index L, d;
    double density;
  };
  // The second shape gives rows ~77 edges at d = 64: each node folds
  // whole sixteen-edge tiles cut at its shard boundaries, against
  // sim_cluster's tiles over whole rows.
  for (const Shape& sh : {Shape{96, 16, 0.15}, Shape{256, 64, 0.3}}) {
    const Index L = sh.L, d = sh.d;
    const auto mask = build_csr_random(L, RandomParams{sh.density, 99});
    Rng rng(21);
    Matrix<float> q(L, d), k(L, d), v(L, d);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    const auto degrees = seqpar::degrees_of(mask);
    std::vector<seqpar::Partition> parts;
    for (const Index P : {2, 3}) parts.push_back(seqpar::partition_balanced_nnz(L, P, degrees));
    // P=4 by hand, with an empty part: node 1 owns no rows, folds
    // nothing and relays an empty shard at every step.
    seqpar::Partition gap;
    gap.boundaries = {0, 30, 30, 61, L};
    for (std::size_t p = 0; p + 1 < gap.boundaries.size(); ++p) {
      gap.work.push_back(static_cast<Size>(
          std::accumulate(degrees.begin() + gap.boundaries[p],
                          degrees.begin() + gap.boundaries[p + 1], Index{0})));
    }
    parts.push_back(gap);

    for (const seqpar::Partition& part : parts) {
      const Index P = part.parts();
      // One client for both prefills: the second reuses the router's
      // kept buffers and overwrites the first prefill's rows in
      // `wire_out`.
      LoopbackCluster cluster(P);
      Matrix<float> wire_out;
      for (const bool causal : {false, true}) {
        const auto rep =
            cluster.client.ring_prefill(q, k, v, mask, part, causal, -1.0f, wire_out);
        EXPECT_EQ(rep.shard_deliveries, static_cast<Size>(P) * static_cast<Size>(P - 1));

        Matrix<float> oracle(L, d);
        AttentionOptions opts;
        opts.causal = causal;
        const auto sim = seqpar::distributed_csr_attention(q, k, v, mask, part, oracle, opts);
        ASSERT_EQ(std::memcmp(wire_out.data(), oracle.data(), oracle.size_bytes()), 0)
            << "L=" << L << " P=" << P << " causal=" << causal;

        // Edge accounting matches the simulated cluster node for node.
        ASSERT_EQ(rep.nodes.size(), sim.nodes.size());
        for (std::size_t p = 0; p < sim.nodes.size(); ++p) {
          EXPECT_EQ(rep.nodes[p].edges, sim.nodes[p].edges);
        }
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
// Fault injection

/// Transport decorator that injects one seeded fault into the bytes
/// crossing it, counted over both directions: it flips one bit of byte
/// `at`, or it closes the connection once `at` bytes have crossed (a
/// send in progress delivers its first bytes, so the peer sees a
/// truncated frame, then EOF). Drop, delay and truncation without a
/// close need receive timeouts, which the loopback arm does not have.
class FaultyTransport final : public net::Transport {
 public:
  enum class Fault { None, FlipBit, CloseAfter };

  FaultyTransport(std::unique_ptr<net::Transport> inner, Fault fault, std::uint64_t at, int bit)
      : inner_(std::move(inner)), fault_(fault), at_(at), bit_(bit) {}

  bool send_all(const void* data, std::size_t n) override {
    sends_.push_back(crossed_);
    const auto* p = static_cast<const std::uint8_t*>(data);
    if (fault_ == Fault::CloseAfter && crossed_ + n > at_) {
      inner_->send_all(p, static_cast<std::size_t>(at_ - crossed_));
      return close_now();
    }
    std::vector<std::uint8_t> bytes(p, p + n);
    flip_if_due(bytes.data(), n);
    return inner_->send_all(bytes.data(), n);
  }
  bool recv_exact(void* data, std::size_t n) override {
    if (fault_ == Fault::CloseAfter && crossed_ + n > at_) return close_now();
    if (!inner_->recv_exact(data, n)) return false;
    flip_if_due(static_cast<std::uint8_t*>(data), n);
    return true;
  }
  void close() override { inner_->close(); }

  std::uint64_t crossed() const { return crossed_; }
  bool fired() const { return fired_; }
  /// Where each send began: write_frame sends one frame per call.
  const std::vector<std::uint64_t>& sends() const { return sends_; }

 private:
  void flip_if_due(std::uint8_t* p, std::size_t n) {
    if (fault_ == Fault::FlipBit && at_ >= crossed_ && at_ - crossed_ < n) {
      p[at_ - crossed_] ^= static_cast<std::uint8_t>(1u << bit_);
      fired_ = true;
    }
    crossed_ += n;
  }
  bool close_now() {
    fired_ = true;
    crossed_ = at_;
    inner_->close();
    return false;
  }

  std::unique_ptr<net::Transport> inner_;
  Fault fault_;
  std::uint64_t at_;
  int bit_;
  std::uint64_t crossed_ = 0;
  bool fired_ = false;
  std::vector<std::uint64_t> sends_;
};

TEST(Cluster, FaultedPeerFailsTypedAndLeavesTheOthersUsable) {
  using Fault = FaultyTransport::Fault;
  const Index L = 96, d = 16, P = 3;
  const auto mask = build_csr_random(L, RandomParams{0.15, 7});
  const auto part = seqpar::partition_balanced_nnz(L, P, seqpar::degrees_of(mask));
  Rng rng(8);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> oracle(L, d);
  seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);

  // Where each RPC of one clean prefill starts on each peer's
  // connection, and where the last one ends: a fault point drawn inside
  // one RPC hits its request or its response.
  std::vector<std::vector<std::uint64_t>> rpcs(static_cast<std::size_t>(P));
  {
    std::vector<FaultyTransport*> probes;
    LoopbackCluster cluster(P, {}, [&](Index, std::unique_ptr<net::Transport> t) {
      auto f = std::make_unique<FaultyTransport>(std::move(t), Fault::None, 0, 0);
      probes.push_back(f.get());
      return f;
    });
    Matrix<float> out;
    cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      rpcs[p] = probes[p]->sends();
      rpcs[p].push_back(probes[p]->crossed());
    }
  }
  const Index phases = 2 * P;  // start, P-1 fetches, P-1 deliveries, finish
  ASSERT_EQ(rpcs[0].size(), static_cast<std::size_t>(phases) + 1);

  // Trials 0..6P²-1 cover every (victim, fault, phase) once; the rest
  // repeat them at other seeded bytes.
  for (int trial = 0; trial < 60; ++trial) {
    const Index victim = trial % P;
    const Fault fault = (trial / P) % 2 == 0 ? Fault::FlipBit : Fault::CloseAfter;
    const auto phase = static_cast<std::size_t>((trial / (2 * P)) % phases);
    const auto& marks = rpcs[static_cast<std::size_t>(victim)];
    const std::uint64_t at = marks[phase] + rng.next_below(marks[phase + 1] - marks[phase]);
    const int bit = static_cast<int>(rng.next_below(8));
    SCOPED_TRACE("trial " + std::to_string(trial) + " victim " + std::to_string(victim) +
                 " phase " + std::to_string(phase) + " byte " + std::to_string(at));
    FaultyTransport* faulty = nullptr;
    LoopbackCluster cluster(P, {}, [&](Index i, std::unique_ptr<net::Transport> t) {
      if (i != victim) return t;
      auto f = std::make_unique<FaultyTransport>(std::move(t), fault, at, bit);
      faulty = f.get();
      return std::unique_ptr<net::Transport>(std::move(f));
    });

    const auto t0 = std::chrono::steady_clock::now();
    bool threw = false;
    Matrix<float> out;
    try {
      cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
      EXPECT_EQ(std::memcmp(out.data(), oracle.data(), oracle.size_bytes()), 0);
    } catch (const net::TransportError&) {
      threw = true;
    } catch (const net::RpcError&) {
      threw = true;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    // Every byte on the wire is under a magic, header check or payload
    // checksum, so a fault inside the prefill never goes unnoticed.
    EXPECT_TRUE(faulty->fired());
    EXPECT_TRUE(threw);
    // The others read their outstanding responses, so nothing stale is
    // left on their connections.
    for (Index p = 0; p < P; ++p) {
      if (p == victim) continue;
      EXPECT_NO_THROW(cluster.client.ping(static_cast<std::uint64_t>(p)));
    }
  }
}

TEST(Cluster, RpcMetricsAndSpansCoverEveryRingRpc) {
  const Index L = 64, d = 8, P = 3;
  const auto mask = build_csr_random(L, RandomParams{0.2, 3});
  const auto part = seqpar::partition_balanced_nnz(L, P, seqpar::degrees_of(mask));
  Rng rng(4);
  Matrix<float> q(L, d), k(L, d), v(L, d), out;
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  LoopbackCluster cluster(P);

  obs::trace::reset();
  obs::trace::set_enabled(true);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  cluster.client.ring_prefill(q, k, v, mask, part, false, -1.0f, out);
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  obs::trace::set_enabled(false);

  // Start and finish per peer, plus a fetch and a delivery per peer at
  // each of the P-1 rotation steps.
  const std::uint64_t ring_rpcs = 2 * P * P;
  EXPECT_EQ(after.counter("net.rpc.calls") - before.counter("net.rpc.calls"), ring_rpcs);
  EXPECT_EQ(after.histogram("net.rpc.latency_us")->count -
                before.histogram("net.rpc.latency_us")->count,
            ring_rpcs);

  // One net.rpc span per phase on the calling thread, and siblings never
  // overlap, so self times stay well defined.
  std::vector<obs::trace::Event> spans;
  for (const obs::trace::Event& e : obs::trace::drain_snapshot()) {
    if (e.ph == 'X' && e.tid == obs::trace::this_thread_id() &&
        std::string_view(e.cat) == "net.rpc") {
      spans.push_back(e);
    }
  }
  obs::trace::reset();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(2 + 2 * (P - 1)));
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; });
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].ts_us, spans[i - 1].ts_us + spans[i - 1].dur_us) << spans[i].name;
  }
  EXPECT_STREQ(spans.front().name, "ring-start");
  EXPECT_STREQ(spans.back().name, "ring-finish");
}

TEST(NodeRing, NewRingStartReplacesAnAbandonedRing) {
  const Index L = 16, d = 4;
  const auto mask = build_csr_local(L, make_local(2));
  Rng rng(6);
  Matrix<float> q(L, d), k(L, d), v(L, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  seqpar::Partition part;
  part.boundaries = {0, L};
  part.work = {mask.nnz()};

  net::NodeService node(net::NodeConfig{});
  auto handle = [&](net::Op op, std::uint64_t rid, bool start) {
    net::Writer w;
    w.u64(rid);
    if (start) {
      w.u32(1);
      w.u32(0);
      net::put_partition(w, part);
      net::put_csr(w, mask);
      w.u8(0);
      w.f32(-1.0f);
      net::put_matrix(w, q);
      net::put_matrix(w, k);
      net::put_matrix(w, v);
    }
    net::RpcRequest req{rid, op, std::move(w.buf)};
    net::RpcResponse rsp;
    node.handle(req, rsp);
    return rsp;
  };

  ASSERT_EQ(handle(net::Op::RingStart, 1, true).status, net::RpcStatus::Ok);
  ASSERT_EQ(handle(net::Op::RingStart, 2, true).status, net::RpcStatus::Ok);
  EXPECT_EQ(handle(net::Op::RingFinish, 1, false).status, net::RpcStatus::InvalidArgument);
  const net::RpcResponse done = handle(net::Op::RingFinish, 2, false);
  ASSERT_EQ(done.status, net::RpcStatus::Ok);
  net::Reader r(done.body);
  Matrix<float> rows;
  ASSERT_TRUE(net::get_matrix(r, rows));
  Matrix<float> oracle(L, d);
  seqpar::distributed_csr_attention(q, k, v, mask, part, oracle);
  ASSERT_TRUE(rows.same_shape(oracle));
  EXPECT_EQ(std::memcmp(rows.data(), oracle.data(), oracle.size_bytes()), 0);
  // Finished rings free their slot.
  EXPECT_EQ(handle(net::Op::RingFinish, 2, false).status, net::RpcStatus::InvalidArgument);
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

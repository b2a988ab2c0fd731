#include "net/cluster.hpp"

#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "common/fnv1a.hpp"
#include "obs/trace.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// HashRing

namespace {
std::uint64_t hash_key(std::uint64_t key) {
  Fnv1a f;
  f.mix(key);
  return f.h;
}
std::uint64_t hash_point(std::uint64_t node_id, Index replica) {
  Fnv1a f;
  f.mix(node_id);
  f.mix(static_cast<std::uint64_t>(replica));
  return f.h;
}
}  // namespace

HashRing::HashRing(Index virtual_nodes) : vnodes_(virtual_nodes) {
  GPA_CHECK(virtual_nodes > 0, "hash ring: need at least one virtual node");
}

void HashRing::add_node(std::uint64_t node_id) {
  GPA_CHECK(nodes_.insert(node_id).second, "hash ring: duplicate node id");
  for (Index rep = 0; rep < vnodes_; ++rep) {
    // Collisions between 64-bit points are vanishingly rare; if two
    // vnodes do collide, last-insert wins for that point, which only
    // perturbs the balance, never correctness.
    points_[hash_point(node_id, rep)] = node_id;
  }
}

void HashRing::remove_node(std::uint64_t node_id) {
  if (nodes_.erase(node_id) == 0) return;
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second == node_id) {
      it = points_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t HashRing::owner(std::uint64_t key) const {
  GPA_CHECK(!points_.empty(), "hash ring: no nodes");
  auto it = points_.lower_bound(hash_key(key));
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->second;
}

// ---------------------------------------------------------------------
// ClusterClient

void ClusterClient::add_peer(std::uint64_t node_id, std::unique_ptr<Transport> transport) {
  GPA_CHECK(transport != nullptr, "cluster: null transport");
  ring_.add_node(node_id);  // throws on duplicates before we mutate peers_
  Peer p;
  p.id = node_id;
  p.transport = std::move(transport);
  p.rpc = std::make_unique<RpcClient>(*p.transport);
  peers_.push_back(std::move(p));
}

ClusterClient::Peer& ClusterClient::by_id(std::uint64_t node_id) {
  for (Peer& p : peers_) {
    if (p.id == node_id) return p;
  }
  GPA_CHECK(false, "cluster: unknown node id");
  return peers_.front();  // unreachable
}

ClusterClient::Peer& ClusterClient::by_session(std::uint64_t session_id) {
  return by_id(ring_.owner(session_id));
}

void ClusterClient::create_session(std::uint64_t session_id, const WireMask& mask) {
  Writer w;
  w.u64(session_id);
  put_mask(w, mask);
  by_session(session_id).rpc->call(Op::CreateSession, w.buf);
}

void ClusterClient::prefill(std::uint64_t session_id, const Matrix<float>& q,
                            const Matrix<float>& k, const Matrix<float>& v,
                            Matrix<float>& out) {
  Writer w;
  w.u64(session_id);
  put_matrix(w, q);
  put_matrix(w, k);
  put_matrix(w, v);
  const auto body = by_session(session_id).rpc->call(Op::Prefill, w.buf);
  Reader r(body);
  GPA_CHECK(get_matrix(r, out) && r.done(), "cluster: bad prefill response");
}

Index ClusterClient::decode_step(std::uint64_t session_id, const float* q, const float* k,
                                 const float* v, Index head_dim, float* out_row) {
  GPA_CHECK(head_dim > 0, "cluster: head_dim must be positive");
  Writer w;
  w.u64(session_id);
  w.u32(static_cast<std::uint32_t>(head_dim));
  const std::size_t row_bytes = static_cast<std::size_t>(head_dim) * sizeof(float);
  w.bytes(q, row_bytes);
  w.bytes(k, row_bytes);
  w.bytes(v, row_bytes);
  const auto body = by_session(session_id).rpc->call(Op::DecodeStep, w.buf);
  Reader r(body);
  const Index d = static_cast<Index>(r.u32());
  GPA_CHECK(r.ok && d == head_dim, "cluster: decode response dimension mismatch");
  GPA_CHECK(r.bytes(out_row, row_bytes), "cluster: short decode response");
  const Index edges = static_cast<Index>(r.i64());
  GPA_CHECK(r.done(), "cluster: bad decode response");
  return edges;
}

void ClusterClient::release_session(std::uint64_t session_id) {
  Writer w;
  w.u64(session_id);
  by_session(session_id).rpc->call(Op::ReleaseSession, w.buf);
}

PingInfo ClusterClient::ping(std::uint64_t node_id) {
  Writer w;
  w.u8(1);
  const auto body = by_id(node_id).rpc->call(Op::Ping, w.buf);
  Reader r(body);
  PingInfo info;
  info.sessions = r.u64();
  info.pages_in_use = static_cast<Index>(r.i64());
  info.pages_free = static_cast<Index>(r.i64());
  GPA_CHECK(r.done(), "cluster: bad ping response");
  return info;
}

obs::MetricsSnapshot ClusterClient::node_stats(std::uint64_t node_id) {
  Writer w;
  w.u8(1);
  const auto body = by_id(node_id).rpc->call(Op::Stats, w.buf);
  Reader r(body);
  obs::MetricsSnapshot snap;
  GPA_CHECK(get_metrics_snapshot(r, snap) && r.done(), "cluster: bad stats response");
  return snap;
}

std::vector<std::span<const std::uint8_t>> ClusterClient::fan_out(Op op) {
  // One span per phase: the sends and receives of P peers interleave,
  // so per-call spans would overlap as siblings.
  obs::trace::Span span(to_string(op), "net.rpc");
  const std::size_t n = peers_.size();
  std::vector<std::uint64_t> ids(n, 0);
  std::vector<std::span<const std::uint8_t>> out(n);
  std::exception_ptr first;
  for (std::size_t p = 0; p < n && !first; ++p) {
    try {
      ids[p] = peers_[p].rpc->send(op);
    } catch (...) {
      first = std::current_exception();
    }
  }
  // Every request sent is answered and read, even after a failure, so
  // no healthy connection is left holding a stale response.
  for (std::size_t p = 0; p < n; ++p) {
    if (ids[p] == 0) continue;
    try {
      out[p] = peers_[p].rpc->receive(ids[p]);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
  return out;
}

ClusterRingReport ClusterClient::ring_prefill(const Matrix<float>& q, const Matrix<float>& k,
                                              const Matrix<float>& v, const Csr<float>& mask,
                                              const seqpar::Partition& partition, bool causal,
                                              float scale, Matrix<float>& out) {
  const Index L = q.rows();
  const Index d = q.cols();
  const Index P = static_cast<Index>(peers_.size());
  GPA_CHECK(P > 0, "cluster: no peers");
  GPA_CHECK(partition.parts() == P, "cluster: partition parts must equal peer count");
  GPA_CHECK(!partition.boundaries.empty() && partition.boundaries.front() == 0 &&
                partition.boundaries.back() == L,
            "cluster: partition must cover [0, L)");
  GPA_CHECK(mask.rows == L && mask.cols == L, "cluster: mask shape mismatch");
  GPA_CHECK(k.rows() == L && v.rows() == L && k.cols() == d && v.cols() == d,
            "cluster: K/V shape mismatch");
  if (out.rows() != L || out.cols() != d) out = Matrix<float>(L, d);

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t rid = next_ring_id_++;
  ClusterRingReport report;
  auto body = [&](Index p) -> Writer& { return peers_[static_cast<std::size_t>(p)].rpc->body(); };

  // Step 0: every node gets its mask rows, its Q rows and the K/V shard
  // it owns, written straight from the caller's arrays.
  for (Index p = 0; p < P; ++p) {
    const Index lo = partition.boundaries[static_cast<std::size_t>(p)];
    const Index hi = partition.boundaries[static_cast<std::size_t>(p) + 1];
    Writer& w = body(p);
    w.u64(rid);
    w.u32(static_cast<std::uint32_t>(P));
    w.u32(static_cast<std::uint32_t>(p));
    put_partition(w, partition);
    put_csr_rows(w, mask, lo, hi);
    w.u8(causal ? 1 : 0);
    w.f32(scale);
    put_matrix_rows(w, q, lo, hi);
    put_matrix_rows(w, k, lo, hi);
    put_matrix_rows(w, v, lo, hi);
  }
  fan_out(Op::RingStart);

  // Steps 1..P-1: rotate. Node p needs shard (p+s) mod P at step s; the
  // router fetches every shard from its owner, then relays each to its
  // consumer (see cluster.hpp for the star-vs-p2p trade). Delivery
  // order is irrelevant: nodes fold deferred-in-order regardless of
  // arrival order.
  for (Index s = 1; s < P; ++s) {
    for (Index p = 0; p < P; ++p) body(p).u64(rid);
    const auto fetched = fan_out(Op::RingFetch);
    std::vector<Reader> shards;
    for (Index owner = 0; owner < P; ++owner) {
      Reader& fr = shards.emplace_back(fetched[static_cast<std::size_t>(owner)]);
      const Index idx = static_cast<Index>(fr.u32());
      GPA_CHECK(fr.ok && idx == owner, "cluster: ring fetch returned wrong shard");
    }
    // Each fetched shard is copied once, from its owner's receive frame
    // into its consumer's request.
    for (Index p = 0; p < P; ++p) {
      const Index shard = (p + s) % P;
      const Reader& fr = shards[static_cast<std::size_t>(shard)];
      Writer& w = body(p);
      w.u64(rid);
      w.u32(static_cast<std::uint32_t>(shard));
      w.bytes(fr.p, fr.remaining());  // shard K/V matrices, verbatim
    }
    fan_out(Op::RingShard);
    report.shard_deliveries += static_cast<Size>(P);
  }

  // Collect each node's finalized rows, read straight into `out`.
  for (Index p = 0; p < P; ++p) body(p).u64(rid);
  const auto finished = fan_out(Op::RingFinish);
  for (Index p = 0; p < P; ++p) {
    const Index lo = partition.boundaries[static_cast<std::size_t>(p)];
    const Index hi = partition.boundaries[static_cast<std::size_t>(p) + 1];
    Reader r(finished[static_cast<std::size_t>(p)]);
    GPA_CHECK(get_matrix_rows(r, out, lo, hi), "cluster: bad ring finish response");
    const Size edges = r.u64();
    GPA_CHECK(r.done(), "cluster: bad ring finish response");
    ClusterNodeReport nr;
    nr.node_id = peers_[static_cast<std::size_t>(p)].id;
    nr.row_begin = lo;
    nr.row_end = hi;
    nr.edges = edges;
    report.nodes.push_back(nr);
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return report;
}

void ClusterClient::shutdown_all() {
  for (Peer& p : peers_) {
    Writer w;
    w.u8(1);
    try {
      p.rpc->call(Op::Shutdown, w.buf);
    } catch (const TransportError&) {
      // Peer already gone — shutdown is best-effort by design.
    }
    p.transport->close();
  }
}

}  // namespace gpa::net

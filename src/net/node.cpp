#include "net/node.hpp"

#include <cstring>

#include "common/error.hpp"
#include "core/kernel_common.hpp"
#include "core/traversal.hpp"
#include "obs/trace.hpp"

namespace gpa::net {

// ---------------------------------------------------------------------
// Metrics snapshot codec

namespace {
/// A registry holds tens of metrics; a peer claiming orders of
/// magnitude more is corrupt, not just big.
constexpr std::uint32_t kMaxMetrics = 4096;
constexpr std::uint32_t kMaxHistEdges = 512;
}  // namespace

void put_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& s) {
  w.u32(static_cast<std::uint32_t>(s.counters.size()));
  for (const auto& c : s.counters) {
    put_string(w, c.name);
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(s.gauges.size()));
  for (const auto& g : s.gauges) {
    put_string(w, g.name);
    w.i64(g.value);
  }
  w.u32(static_cast<std::uint32_t>(s.histograms.size()));
  for (const auto& h : s.histograms) {
    put_string(w, h.name);
    w.u32(static_cast<std::uint32_t>(h.edges.size()));
    for (const double e : h.edges) w.f64(e);
    for (const std::uint64_t c : h.counts) w.u64(c);  // edges + 1 of them
    w.f64(h.sum);
    w.u64(h.count);
  }
}

bool get_metrics_snapshot(Reader& r, obs::MetricsSnapshot& s) {
  s = obs::MetricsSnapshot{};
  const std::uint32_t nc = r.u32();
  if (!r.ok || nc > kMaxMetrics) return false;
  s.counters.resize(nc);
  for (auto& c : s.counters) {
    if (!get_string(r, c.name)) return false;
    c.value = r.u64();
  }
  const std::uint32_t ng = r.u32();
  if (!r.ok || ng > kMaxMetrics) return false;
  s.gauges.resize(ng);
  for (auto& g : s.gauges) {
    if (!get_string(r, g.name)) return false;
    g.value = r.i64();
  }
  const std::uint32_t nh = r.u32();
  if (!r.ok || nh > kMaxMetrics) return false;
  s.histograms.resize(nh);
  for (auto& h : s.histograms) {
    if (!get_string(r, h.name)) return false;
    const std::uint32_t ne = r.u32();
    if (!r.ok || ne == 0 || ne > kMaxHistEdges ||
        r.remaining() < (static_cast<std::uint64_t>(ne) * 2 + 1) * 8) {
      r.ok = false;
      return false;
    }
    h.edges.resize(ne);
    for (double& e : h.edges) e = r.f64();
    h.counts.resize(ne + 1);
    for (std::uint64_t& c : h.counts) c = r.u64();
    h.sum = r.f64();
    h.count = r.u64();
  }
  return r.ok;
}

// ---------------------------------------------------------------------
// Wire mask

kvcache::MaskSpec WireMask::to_spec() const {
  switch (kind) {
    case WireMaskKind::Local:
      return kvcache::MaskSpec::make_local(LocalParams{a});
    case WireMaskKind::Dilated1d:
      return kvcache::MaskSpec::make_dilated1d(Dilated1DParams{a, b});
    case WireMaskKind::Global:
      return kvcache::MaskSpec::make_global(
          GlobalMinusLocalParams{GlobalParams{tokens}, LocalParams{a}});
    case WireMaskKind::Csr:
      GPA_CHECK(csr != nullptr, "wire mask: missing CSR payload");
      return kvcache::MaskSpec::make_csr(csr);
  }
  GPA_CHECK(false, "wire mask: unknown kind");
  return {};  // unreachable
}

void put_mask(Writer& w, const WireMask& m) {
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.i64(m.a);
  w.i64(m.b);
  w.u32(static_cast<std::uint32_t>(m.tokens.size()));
  for (const Index t : m.tokens) w.i64(t);
  if (m.kind == WireMaskKind::Csr) {
    GPA_CHECK(m.csr != nullptr, "wire mask: missing CSR payload");
    put_csr(w, *m.csr);
  }
}

bool get_mask(Reader& r, WireMask& m) {
  const auto kind = static_cast<WireMaskKind>(r.u8());
  m.a = static_cast<Index>(r.i64());
  m.b = static_cast<Index>(r.i64());
  const std::uint32_t ntok = r.u32();
  if (!r.ok || r.remaining() < static_cast<std::uint64_t>(ntok) * 8) return false;
  m.tokens.resize(ntok);
  for (Index& t : m.tokens) t = static_cast<Index>(r.i64());
  switch (kind) {
    case WireMaskKind::Local:
    case WireMaskKind::Dilated1d:
    case WireMaskKind::Global:
      m.kind = kind;
      return true;
    case WireMaskKind::Csr: {
      auto csr = std::make_shared<Csr<float>>();
      if (!get_csr(r, *csr)) return false;
      m.kind = kind;
      m.csr = std::move(csr);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Request handling

bool NodeService::serve(Transport& t) {
  for (;;) {
    RpcRequest req;
    const WireStatus ws = recv_request(t, req);
    // Closed is the peer hanging up (normal); anything else is corrupt
    // bytes — the stream position is unrecoverable either way.
    if (ws != WireStatus::Ok) return false;
    RpcResponse rsp;
    handle(req, rsp);
    if (send_response(t, rsp) != WireStatus::Ok) return false;
    if (req.op == Op::Shutdown && rsp.status == RpcStatus::Ok) return true;
  }
}

void NodeService::handle(const RpcRequest& req, RpcResponse& rsp) {
  // Server-side twin of RpcClient::call's span: same static op name,
  // different category, so a merged client+server trace shows the wire
  // round-trip bracketing the handler.
  obs::trace::Span span(to_string(req.op), "net.node");
  rsp.id = req.id;
  rsp.status = RpcStatus::Ok;
  Reader r(req.body);
  Writer out;
  // Session id parsed before dispatch where the op carries one, so the
  // catch blocks below can echo it in typed errors.
  std::uint64_t sid = 0;
  try {
    switch (req.op) {
      case Op::Ping: {
        const auto st = sessions_.stats();
        out.u64(st.sessions);
        out.i64(st.pages_in_use);
        out.i64(st.pages_free);
        break;
      }
      case Op::CreateSession: {
        sid = r.u64();
        WireMask mask;
        if (!r.ok || !get_mask(r, mask)) {
          make_error_response(rsp, RpcStatus::Malformed, "create-session: bad body", sid);
          return;
        }
        sessions_.create(sid, mask.to_spec());
        out.u8(1);
        break;
      }
      case Op::Prefill: {
        sid = r.u64();
        Matrix<float> q, k, v;
        if (!r.ok || !get_matrix(r, q) || !get_matrix(r, k) || !get_matrix(r, v)) {
          make_error_response(rsp, RpcStatus::Malformed, "prefill: bad body", sid);
          return;
        }
        Matrix<float> o;
        sessions_.prefill(sid, q, k, v, o);
        put_matrix(out, o);
        break;
      }
      case Op::DecodeStep: {
        sid = r.u64();
        const Index d = static_cast<Index>(r.u32());
        if (!r.ok || d <= 0 ||
            r.remaining() < 3 * static_cast<std::size_t>(d) * sizeof(float)) {
          make_error_response(rsp, RpcStatus::Malformed, "decode-step: bad body", sid);
          return;
        }
        std::vector<float> qr(static_cast<std::size_t>(d)), kr(qr.size()), vr(qr.size()),
            orow(qr.size());
        r.bytes(qr.data(), qr.size() * sizeof(float));
        r.bytes(kr.data(), kr.size() * sizeof(float));
        r.bytes(vr.data(), vr.size() * sizeof(float));
        const Index edges = sessions_.decode_step(sid, qr.data(), kr.data(), vr.data(),
                                                  orow.data());
        out.u32(static_cast<std::uint32_t>(d));
        out.bytes(orow.data(), orow.size() * sizeof(float));
        out.i64(edges);
        break;
      }
      case Op::ReleaseSession: {
        sid = r.u64();
        sessions_.release(sid);
        out.u8(1);
        break;
      }
      case Op::Stats: {
        // Counters stream in continuously; the pool/session gauges are
        // refreshed here so every scrape carries current occupancy
        // without a per-allocation gauge write on the hot path.
        const auto st = sessions_.stats();
        obs::Registry& reg = obs::Registry::global();
        reg.gauge("kvcache.sessions.live").set(static_cast<std::int64_t>(st.sessions));
        reg.gauge("kvcache.pages.in_use").set(st.pages_in_use);
        reg.gauge("kvcache.pages.free").set(st.pages_free);
        reg.gauge("kvcache.prefix.entries").set(st.prefix_entries);
        put_metrics_snapshot(out, reg.snapshot());
        break;
      }
      case Op::RingStart: rsp.status = ring_start(r); break;
      case Op::RingFetch: rsp.status = ring_fetch(r, out); break;
      case Op::RingShard: rsp.status = ring_shard(r); break;
      case Op::RingFinish: rsp.status = ring_finish(r, out); break;
      case Op::Shutdown: out.u8(1); break;
      default:
        make_error_response(rsp, RpcStatus::Malformed, "unknown op", 0);
        return;
    }
  } catch (const kvcache::SessionNotFound& e) {
    make_error_response(rsp, RpcStatus::SessionNotFound, e.what(), sid);
    return;
  } catch (const kvcache::SessionEvicted& e) {
    make_error_response(rsp, RpcStatus::SessionEvicted, e.what(), sid);
    return;
  } catch (const kvcache::CacheFull& e) {
    make_error_response(rsp, RpcStatus::CacheFull, e.what(), sid);
    return;
  } catch (const InvalidArgument& e) {
    make_error_response(rsp, RpcStatus::InvalidArgument, e.what(), sid);
    return;
  } catch (const std::exception& e) {
    make_error_response(rsp, RpcStatus::Internal, e.what(), sid);
    return;
  }
  if (rsp.status == RpcStatus::Ok) {
    if (out.buf.empty()) out.u8(1);  // every payload is non-empty
    rsp.body = std::move(out.buf);
  } else {
    make_error_response(rsp, rsp.status, to_string(rsp.status), 0);
  }
}

// ---------------------------------------------------------------------
// Ring prefill

NodeService::Ring* NodeService::find_ring(std::uint64_t rid) {
  return ring_ && ring_->id == rid ? &*ring_ : nullptr;
}

RpcStatus NodeService::ring_start(Reader& r) {
  Ring g;
  g.id = r.u64();
  g.parts = static_cast<Index>(r.u32());
  g.part = static_cast<Index>(r.u32());
  if (!get_partition(r, g.partition) || !get_csr(r, g.mask)) return RpcStatus::Malformed;
  g.causal = r.u8() != 0;
  g.scale = r.f32();
  Matrix<float> ks, vs;
  if (!get_matrix(r, g.q) || !get_matrix(r, ks) || !get_matrix(r, vs) || !r.done()) {
    return RpcStatus::Malformed;
  }
  if (g.parts <= 0 || g.part < 0 || g.part >= g.parts ||
      g.partition.parts() != g.parts || g.mask.rows != g.mask.cols) {
    return RpcStatus::InvalidArgument;
  }
  g.seq_len = g.mask.rows;
  g.head_dim = g.q.cols();
  if (g.head_dim <= 0) return RpcStatus::InvalidArgument;
  // Wire contract matches AttentionOptions: scale < 0 selects the
  // 1/sqrt(dk) default — resolved here exactly as the oracle resolves
  // it, so both sides fold with the same float.
  g.scale = gpa::detail::resolve_scale(g.scale, g.head_dim);
  g.row_lo = g.partition.boundaries[static_cast<std::size_t>(g.part)];
  g.row_hi = g.partition.boundaries[static_cast<std::size_t>(g.part) + 1];
  if (g.partition.boundaries.back() != g.seq_len || g.q.rows() != g.row_hi - g.row_lo ||
      ks.rows() != g.row_hi - g.row_lo || !ks.same_shape(vs) || ks.cols() != g.head_dim) {
    return RpcStatus::InvalidArgument;
  }
  g.state.reset(g.row_hi - g.row_lo, g.head_dim);
  g.k_own = ks;  // kept verbatim for RingFetch
  g.v_own = vs;

  std::lock_guard<std::mutex> lk(ring_mu_);
  ring_ = std::move(g);
  stash_and_fold(*ring_, ring_->part, std::move(ks), std::move(vs));
  return RpcStatus::Ok;
}

RpcStatus NodeService::ring_fetch(Reader& r, Writer& out) {
  const std::uint64_t rid = r.u64();
  if (!r.ok || !r.done()) return RpcStatus::Malformed;
  std::lock_guard<std::mutex> lk(ring_mu_);
  const Ring* g = find_ring(rid);
  if (g == nullptr) return RpcStatus::InvalidArgument;
  out.u32(static_cast<std::uint32_t>(g->part));
  put_matrix(out, g->k_own);
  put_matrix(out, g->v_own);
  return RpcStatus::Ok;
}

RpcStatus NodeService::ring_shard(Reader& r) {
  const std::uint64_t rid = r.u64();
  const Index idx = static_cast<Index>(r.u32());
  Matrix<float> ks, vs;
  if (!r.ok || !get_matrix(r, ks) || !get_matrix(r, vs) || !r.done()) {
    return RpcStatus::Malformed;
  }
  std::lock_guard<std::mutex> lk(ring_mu_);
  Ring* ring = find_ring(rid);
  if (ring == nullptr) return RpcStatus::InvalidArgument;
  Ring& g = *ring;
  if (idx < 0 || idx >= g.parts ||
      ks.rows() != g.partition.boundaries[static_cast<std::size_t>(idx) + 1] -
                       g.partition.boundaries[static_cast<std::size_t>(idx)] ||
      !ks.same_shape(vs) || ks.cols() != g.head_dim) {
    return RpcStatus::InvalidArgument;
  }
  stash_and_fold(g, idx, std::move(ks), std::move(vs));
  return RpcStatus::Ok;
}

RpcStatus NodeService::ring_finish(Reader& r, Writer& out) {
  const std::uint64_t rid = r.u64();
  if (!r.ok || !r.done()) return RpcStatus::Malformed;
  std::lock_guard<std::mutex> lk(ring_mu_);
  Ring* ring = find_ring(rid);
  if (ring == nullptr) return RpcStatus::InvalidArgument;
  Ring& g = *ring;
  // Finishing before every shard folded would return partial sums.
  if (g.next_fold != g.parts) return RpcStatus::InvalidArgument;
  Matrix<float> o(g.row_hi - g.row_lo, g.head_dim);
  g.state.finalize_into(o);
  put_matrix(out, o);
  out.u64(g.edges);
  ring_.reset();
  return RpcStatus::Ok;
}

void NodeService::stash_and_fold(Ring& g, Index idx,
                                 Matrix<float>&& ks, Matrix<float>&& vs) {
  if (idx >= g.next_fold) {
    g.stash[idx] = {std::move(ks), std::move(vs)};
  }
  for (auto it = g.stash.find(g.next_fold); it != g.stash.end();
       it = g.stash.find(g.next_fold)) {
    fold_shard(g, it->first, it->second.first, it->second.second);
    g.stash.erase(it);  // folded: free the buffered shard
    ++g.next_fold;
  }
}

void NodeService::fold_shard(Ring& g, Index idx, const Matrix<float>& ks,
                             const Matrix<float>& vs) {
  const Index col_lo = g.partition.boundaries[static_cast<std::size_t>(idx)];
  const Index col_hi = g.partition.boundaries[static_cast<std::size_t>(idx) + 1];
  const MaskTraversal tr = MaskTraversal::over(g.mask);
  // Default dispatch: every node runs the same binary on the same
  // host class as the sim_cluster oracle, so the resolved VecOps arm
  // (and with it the fold's operation order) matches.
  const simd::VecOps& vo = simd::ops(ExecPolicy{}.simd);
  for (Index i = g.row_lo; i < g.row_hi; ++i) {
    const Index li = i - g.row_lo;
    gpa::detail::EdgeTile<float> tile(g.q.row(li), g.state.acc_row(li),
                                      {g.state.m(li), g.state.l(li)}, g.head_dim, g.scale,
                                      false, vo);
    tr.for_each_edge_in_cols(i, g.seq_len, g.causal, col_lo, col_hi, [&](Index j, float) {
      tile.add(ks.row(j - col_lo), vs.row(j - col_lo), 1.0f);
      ++g.edges;
    });
    tile.flush();
    g.state.m(li) = tile.osr.m;
    g.state.l(li) = tile.osr.l;
  }
}

}  // namespace gpa::net

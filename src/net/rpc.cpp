#include "net/rpc.hpp"

#include <chrono>

#include "common/error.hpp"
#include "kvcache/errors.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpa::net {

namespace {

struct RpcMetrics {
  obs::Counter& calls;
  obs::Counter& errors;              ///< typed non-Ok statuses from the peer
  obs::Counter& transport_failures;  ///< connection died / desynchronised
  obs::Histogram& latency_us;

  static RpcMetrics& get() {
    static RpcMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return RpcMetrics{
          reg.counter("net.rpc.calls"), reg.counter("net.rpc.errors"),
          reg.counter("net.rpc.transport_failures"),
          reg.histogram("net.rpc.latency_us",
                        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
                         100000, 250000, 1000000})};
    }();
    return m;
  }
};

}  // namespace

const char* to_string(RpcStatus s) {
  switch (s) {
    case RpcStatus::Ok: return "ok";
    case RpcStatus::SessionNotFound: return "session not found";
    case RpcStatus::SessionEvicted: return "session evicted";
    case RpcStatus::CacheFull: return "cache full";
    case RpcStatus::InvalidArgument: return "invalid argument";
    case RpcStatus::Malformed: return "malformed request body";
    case RpcStatus::Internal: return "internal error";
  }
  return "unknown";
}

const char* to_string(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::CreateSession: return "create-session";
    case Op::Prefill: return "prefill";
    case Op::DecodeStep: return "decode-step";
    case Op::ReleaseSession: return "release-session";
    case Op::RingStart: return "ring-start";
    case Op::RingFetch: return "ring-fetch";
    case Op::RingShard: return "ring-shard";
    case Op::RingFinish: return "ring-finish";
    case Op::Shutdown: return "shutdown";
    case Op::Stats: return "stats";
  }
  return "unknown";
}

WireStatus recv_request(Transport& t, RpcRequest& req) {
  Frame f;
  const WireStatus ws = read_frame(t, f);
  if (ws != WireStatus::Ok) return ws;
  if (f.type != kFrameRequest) return WireStatus::Malformed;
  Reader r(f.payload);
  req.id = r.u64();
  req.op = static_cast<Op>(r.u8());
  if (!r.ok) return WireStatus::Malformed;
  req.body.assign(r.p, r.end);
  return WireStatus::Ok;
}

WireStatus send_response(Transport& t, const RpcResponse& rsp) {
  Frame f;
  f.type = kFrameResponse;
  Writer w;
  w.u64(rsp.id);
  w.u8(static_cast<std::uint8_t>(rsp.status));
  w.bytes(rsp.body.data(), rsp.body.size());
  f.payload = std::move(w.buf);
  return write_frame(t, f);
}

void make_error_response(RpcResponse& rsp, RpcStatus status, const std::string& detail,
                         std::uint64_t session_id) {
  rsp.status = status;
  Writer w;
  put_string(w, detail);
  w.u64(session_id);
  rsp.body = std::move(w.buf);
}

namespace {
/// Where a request body starts in the send buffer: after the frame
/// header, the request id (u64) and the op (u8).
constexpr std::size_t kRequestBodyAt = kFrameHeaderBytes + 9;
}  // namespace

void RpcClient::fail(const std::string& what) {
  RpcMetrics::get().transport_failures.inc();
  pending_ = 0;
  t_.close();
  throw TransportError("rpc: " + what);
}

Writer& RpcClient::body() {
  // Room for the frame header, the request id and the op, which send()
  // fills in; the body follows.
  out_.buf.assign(kRequestBodyAt, 0);
  return out_;
}

std::uint64_t RpcClient::send(Op op) {
  GPA_CHECK(pending_ == 0, "rpc: a request is already in flight on this connection");
  std::vector<std::uint8_t>& wire = out_.buf;
  GPA_CHECK(wire.size() >= kRequestBodyAt, "rpc: write the request through body()");
  if (wire.size() - kFrameHeaderBytes > kMaxFramePayload) {
    std::vector<std::uint8_t>().swap(wire);  // keep nothing above the cap
    throw InvalidArgument("rpc: request exceeds the frame cap");
  }
  RpcMetrics::get().calls.inc();
  const std::uint64_t id = next_id_++;
  std::uint8_t* head = wire.data() + kFrameHeaderBytes;
  for (int b = 0; b < 8; ++b) head[b] = static_cast<std::uint8_t>(id >> (8 * b));
  head[8] = static_cast<std::uint8_t>(op);
  frame_in_place(wire, kFrameRequest, 0);
  sent_at_ = std::chrono::steady_clock::now();
  if (send_framed(t_, wire) != WireStatus::Ok) {
    fail("send failed (" + std::string(to_string(op)) + ")");
  }
  wire.clear();  // keeps its capacity for the next body()
  pending_ = id;
  pending_op_ = op;
  return id;
}

std::span<const std::uint8_t> RpcClient::receive(std::uint64_t id) {
  GPA_CHECK(id != 0 && id == pending_, "rpc: no request in flight with this id");
  RpcMetrics& rm = RpcMetrics::get();
  WireStatus ws = read_frame(t_, in_);
  Reader r(in_.payload);
  const std::uint64_t got = r.u64();
  const auto status = static_cast<RpcStatus>(r.u8());
  if (ws == WireStatus::Ok && (in_.type != kFrameResponse || !r.ok)) ws = WireStatus::Malformed;
  if (ws != WireStatus::Ok) {
    fail("receive failed (" + std::string(to_string(pending_op_)) + ": " + to_string(ws) +
         ")");
  }
  if (got != id) fail("response id mismatch — connection desynchronised");
  pending_ = 0;
  rm.latency_us.observe(
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - sent_at_)
          .count());
  if (status == RpcStatus::Ok) return {r.p, r.remaining()};
  rm.errors.inc();

  // Rebuild the typed exception the local API would have thrown.
  std::string detail;
  get_string(r, detail);
  const std::uint64_t sid = r.u64();
  switch (status) {
    case RpcStatus::SessionNotFound: throw kvcache::SessionNotFound(sid);
    case RpcStatus::SessionEvicted: throw kvcache::SessionEvicted(sid);
    case RpcStatus::CacheFull: throw kvcache::CacheFull();
    case RpcStatus::InvalidArgument:
      throw InvalidArgument(detail.empty() ? std::string(to_string(status)) : detail);
    default: throw RpcError(status, detail.empty() ? to_string(status) : detail);
  }
}

std::vector<std::uint8_t> RpcClient::call(Op op, const std::vector<std::uint8_t>& body) {
  // Span name = the op's static string, so a trace shows which RPCs a
  // client spent its wall-clock in; the latency histogram is the
  // aggregate view of the same interval.
  obs::trace::Span span(to_string(op), "net.rpc");
  this->body().bytes(body.data(), body.size());
  const auto rsp = receive(send(op));
  return {rsp.begin(), rsp.end()};
}

}  // namespace gpa::net

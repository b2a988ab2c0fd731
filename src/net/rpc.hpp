#pragma once
// RPC layer: a minimal request/response protocol over frames, carrying
// the KV-cache error taxonomy (SessionNotFound / SessionEvicted /
// CacheFull) across the wire as typed statuses instead of letting a
// node assert on an operational condition.
//
// Request payload:   [id u64][op u8][body ...]
// Response payload:  [id u64][status u8][body ...]
//
// On any status other than Ok the response body is [detail string]
// [session id u64] so the client can rethrow the exact exception the
// local API would have thrown — the serving layer's catch sites work
// unchanged whether the session lives in-process or across a socket.

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace gpa::net {

inline constexpr std::uint16_t kFrameRequest = 1;
inline constexpr std::uint16_t kFrameResponse = 2;

/// Operations a node serves. Values are wire format — append only.
enum class Op : std::uint8_t {
  Ping = 1,
  CreateSession = 2,
  Prefill = 3,
  DecodeStep = 4,
  ReleaseSession = 5,
  RingStart = 6,   ///< install ring-prefill state + this node's shard
  RingFetch = 7,   ///< read back the shard this node owns
  RingShard = 8,   ///< deliver a rotated shard to fold
  RingFinish = 9,  ///< finalize and return the node's output rows
  Shutdown = 10,
  Stats = 11,  ///< scrape the node's metrics registry snapshot
};

/// Wire form of the error taxonomy. Values are wire format — append
/// only.
enum class RpcStatus : std::uint8_t {
  Ok = 0,
  SessionNotFound = 1,
  SessionEvicted = 2,
  CacheFull = 3,
  InvalidArgument = 4,
  Malformed = 5,  ///< request body failed to decode
  Internal = 6,
};

const char* to_string(RpcStatus s);
const char* to_string(Op op);

struct RpcRequest {
  std::uint64_t id = 0;
  Op op = Op::Ping;
  std::vector<std::uint8_t> body;
};

struct RpcResponse {
  std::uint64_t id = 0;
  RpcStatus status = RpcStatus::Ok;
  std::vector<std::uint8_t> body;
};

/// The node's half of the protocol (RpcClient is the client's).
WireStatus recv_request(Transport& t, RpcRequest& req);
WireStatus send_response(Transport& t, const RpcResponse& rsp);

/// Helper for error responses: body = [detail][session id].
void make_error_response(RpcResponse& rsp, RpcStatus status, const std::string& detail,
                         std::uint64_t session_id);

/// Client half of one connection: matches response ids to request ids.
/// A connection carries at most one request in flight. A request is
/// written into body(), then sent; call() is that, then receive(). A
/// caller that talks to several peers at once sends to each before it
/// receives from any, so the peers work concurrently on the calling
/// thread.
///
/// The client keeps one send buffer and one receive frame for the life
/// of the connection. Each is cleared and reused by the next request
/// and never freed, so sends and receives allocate nothing once the
/// buffers have grown to the largest frame seen; neither is kept above
/// the frame cap. body() writes the request straight into the send
/// buffer, after room for the frame header; send() frames it where it
/// lies. receive() returns a view of the response body inside the
/// receive frame: it stays valid until the next receive() on this
/// client.
///
/// Both halves throw TransportError if the peer vanished or sent
/// unframeable bytes, and close the transport first: its stream
/// position is lost, so nothing later may read from it. receive()
/// rethrows error statuses as the library's own typed exceptions
/// (kvcache::SessionNotFound / SessionEvicted / CacheFull,
/// InvalidArgument, RpcError for the rest); on Ok it returns the
/// response body. Either way the request is no longer in flight.
///
/// net.rpc.calls counts sends; net.rpc.latency_us runs from send to
/// receive. call() opens a `net.rpc` span named by its op; send() and
/// receive() open none, so a fan-out can bracket its whole phase in one
/// span and spans stay nested on the calling thread.
class RpcClient {
 public:
  explicit RpcClient(Transport& t) : t_(t) {}

  /// The body of the next request, empty. Write it through the
  /// Writer's methods (its buffer also holds the framing room).
  Writer& body();
  /// Sends body() as `op` and returns the request id. InvalidArgument
  /// if another request is still in flight, or if the body exceeds the
  /// frame cap (the send buffer is then freed).
  std::uint64_t send(Op op);
  /// Reads the response to `id`, which must be the request in flight.
  std::span<const std::uint8_t> receive(std::uint64_t id);
  /// send() with `body` as the body, then receive(); returns a copy of
  /// the response body.
  std::vector<std::uint8_t> call(Op op, const std::vector<std::uint8_t>& body);

 private:
  [[noreturn]] void fail(const std::string& what);

  Transport& t_;
  Writer out_;  ///< the request being written, then its frame
  Frame in_;    ///< the last response
  std::uint64_t next_id_ = 1;
  std::uint64_t pending_ = 0;  ///< id in flight; 0 when idle
  Op pending_op_ = Op::Ping;
  std::chrono::steady_clock::time_point sent_at_{};
};

/// The connection died or the peer sent unframeable bytes.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A typed remote failure with no more specific local exception.
class RpcError : public std::runtime_error {
 public:
  RpcError(RpcStatus status, const std::string& detail)
      : std::runtime_error(detail), status_(status) {}
  RpcStatus status() const noexcept { return status_; }

 private:
  RpcStatus status_;
};

}  // namespace gpa::net

// gpa_serve — one cluster node process.
//
//   gpa_serve --port 0 --pages 256 --page-size 16 --dim 64
//             [--accept-timeout-ms 30000] [--io-timeout-ms 30000]
//             [--trace-out <file>]
//
// Binds 127.0.0.1:<port> (0 = ephemeral), prints exactly one line
//
//   LISTENING <port>
//
// to stdout (the spawner parses it to learn the ephemeral port), then
// serves connections one at a time until a client sends Shutdown or no
// connection arrives within the accept timeout. Session state (the
// SessionManager) persists across connections; a front-end can
// reconnect without losing sessions.
//
// --trace-out enables span tracing for the process lifetime and dumps
// the ring as Chrome trace_event JSON on every orderly exit path
// (Shutdown op or idle accept-timeout) — load the file at
// chrome://tracing. A crash loses the ring by design: it lives in
// memory to stay off the serving hot path.
//
// Every flag takes a value. Numbers parse whole-string: --port in
// [0, 65535], the counts and sizes at least 1, --accept-timeout-ms at
// least 0 and --io-timeout-ms at least 1 (a zero socket timeout would
// mean none), all at most 2^31 - 1 ms or units.
//
// Exit codes: 0 orderly shutdown (op or accept-timeout idle exit),
// 1 setup failure, including an unknown flag or a malformed or
// out-of-range value (the message names the flag and the value).

#include <algorithm>
#include <climits>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "common/parse.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace {

constexpr std::string_view kFlags[] = {"--port", "--pages", "--page-size", "--dim",
                                       "--accept-timeout-ms", "--io-timeout-ms",
                                       "--trace-out"};

/// Rejects unknown flags and a flag without its value. Flag parsing
/// keeps nothing on the heap, so it does not shift where the node's
/// buffers land: a parser that kept its flags in a std::map made
/// ring-prefill 1.2× slower.
void check_flags(int argc, char** argv) {
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (std::find(std::begin(kFlags), std::end(kFlags), flag) == std::end(kFlags)) {
      throw gpa::InvalidArgument("unknown flag " + std::string(flag));
    }
    if (i + 1 >= argc) throw gpa::InvalidArgument(std::string(flag) + " requires a value");
  }
}

/// The value given for `flag` (the last one if repeated), or nullptr.
const char* flag_value(int argc, char** argv, std::string_view flag) {
  const char* value = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (flag == argv[i]) value = argv[i + 1];
  }
  return value;
}

int finish(const std::string& trace_out) {
  if (!trace_out.empty() && !gpa::obs::trace::write_chrome_json(trace_out)) {
    std::cerr << "gpa_serve: failed to write trace to " << trace_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpa;
  try {
    check_flags(argc, argv);
    const auto num = [&](const char* flag, long long fallback, long long lo,
                         long long hi = INT_MAX) {
      const char* value = flag_value(argc, argv, flag);
      return value == nullptr ? fallback : parse_integer(flag, value, lo, hi);
    };
    const auto port = static_cast<std::uint16_t>(num("--port", 0, 0, 65535));
    net::NodeConfig cfg;
    cfg.sessions.pool.num_pages = static_cast<Index>(num("--pages", 256, 1));
    cfg.sessions.pool.page_size = static_cast<Index>(num("--page-size", 16, 1));
    cfg.sessions.pool.head_dim = static_cast<Index>(num("--dim", 64, 1));
    const net::Millis accept_timeout{num("--accept-timeout-ms", 30000, 0)};
    const net::Millis io_timeout{num("--io-timeout-ms", 30000, 1)};
    const char* trace_value = flag_value(argc, argv, "--trace-out");
    const std::string trace_out = trace_value == nullptr ? "" : trace_value;
    if (!trace_out.empty()) obs::trace::set_enabled(true);

    net::TcpListener listener(port);
    net::NodeService node(cfg);
    std::cout << "LISTENING " << listener.port() << std::endl;  // flushed: spawner blocks on it

    for (;;) {
      auto conn = listener.accept(accept_timeout, io_timeout);
      if (!conn) {
        // Idle exit: nobody connected within the window. Keeps an
        // orphaned node from outliving a crashed front-end forever.
        std::cerr << "gpa_serve: accept timeout, exiting\n";
        return finish(trace_out);
      }
      if (node.serve(*conn)) return finish(trace_out);  // Shutdown op
      // EOF / transport error: drop the connection, keep the sessions.
    }
  } catch (const std::exception& e) {
    std::cerr << "gpa_serve: " << e.what() << "\n";
    return 1;
  }
}

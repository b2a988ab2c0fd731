// ring-prefill: closed loop of wire-rotated ring prefills across three
// forked gpa_serve nodes over localhost TCP. Nearly all time is net
// framing/relay and seqpar; bypasses serve and kvcache. Every prefill is
// compared bit for bit with seqpar::distributed_csr_attention.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "seqpar/partition.hpp"
#include "seqpar/sim_cluster.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using namespace gpa;
namespace trace = gpa::obs::trace;

struct Sizes {
  Index seq_len, dim, reach, global;
  int nodes;
};
constexpr Sizes kFull{4096, 64, 64, 4, 3};
constexpr Sizes kSmoke{256, 32, 8, 2, 3};
constexpr int kPingsPerNode = 100;
constexpr int kMakespanReps = 5;
constexpr int kSampledRows = 16;

/// Spawned gpa_serve processes. Every node is killed and reaped on every
/// exit path (the destructor runs on exceptions too), and each node dies
/// with the process that spawned it (PR_SET_PDEATHSIG), so none
/// outlives the run.
class NodeGroup {
 public:
  NodeGroup() = default;
  ~NodeGroup() { reap(); }
  NodeGroup(const NodeGroup&) = delete;
  NodeGroup& operator=(const NodeGroup&) = delete;

  /// Forks + execs one node and waits for its "LISTENING <port>" line.
  std::uint16_t spawn(const std::string& bin, Index dim) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const std::string d = std::to_string(dim);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      // Async-signal-safe calls only between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execl(bin.c_str(), bin.c_str(), "--port", "0", "--pages", "64", "--page-size", "16",
              "--dim", d.c_str(), "--accept-timeout-ms", "30000", "--io-timeout-ms", "30000",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    pids_.push_back(pid);
    std::string line;
    char c = 0;
    pollfd pfd{fds[0], POLLIN, 0};
    while (::poll(&pfd, 1, 10000) == 1 && ::read(fds[0], &c, 1) == 1 && c != '\n') {
      line.push_back(c);
    }
    ::close(fds[0]);
    if (line.rfind("LISTENING ", 0) != 0) {
      throw std::runtime_error("gpa_serve node did not start (" + bin + ")");
    }
    return static_cast<std::uint16_t>(std::stoi(line.substr(10)));
  }

  /// Gives nodes that were asked to shut down a moment to exit, kills
  /// the rest, and wait4s all of them. Returns their summed peak RSS
  /// (KiB).
  long reap() {
    long rss_kb = 0;
    const Clock::time_point grace = Clock::now() + std::chrono::milliseconds(500);
    for (const pid_t pid : pids_) {
      int status = 0;
      rusage ru{};
      while (::wait4(pid, &status, WNOHANG, &ru) == 0) {
        if (Clock::now() >= grace) {
          ::kill(pid, SIGKILL);
          ::wait4(pid, &status, 0, &ru);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      rss_kb += ru.ru_maxrss;
    }
    pids_.clear();
    return rss_kb;
  }

 private:
  std::vector<pid_t> pids_;
};

class Ring final : public Workload {
 public:
  explicit Ring(const RunConfig& cfg)
      : Workload(cfg),
        s_(cfg.smoke ? kSmoke : kFull),
        q_(s_.seq_len, s_.dim),
        k_(s_.seq_len, s_.dim),
        v_(s_.seq_len, s_.dim) {
    Rng rng(cfg.seed);
    fill_uniform(q_, rng);
    fill_uniform(k_, rng);
    fill_uniform(v_, rng);
    rows_ = {0, s_.global, s_.seq_len - 1};
    while (static_cast<int>(rows_.size()) < kSampledRows) {
      rows_.push_back(rng.next_index(0, s_.seq_len));
    }
  }

  const char* name() const override { return "ring-prefill"; }

 protected:
  double tail_pct() const override { return 80.0; }

  void setup() override {
    {
      trace::Span sp("bench.sparse.make_longformer", "bench");
      mask_ = make_longformer(s_.seq_len, s_.reach, s_.global).fused;
    }
    {
      trace::Span sp("bench.seqpar.partition_balanced_nnz", "bench");
      part_ = seqpar::partition_balanced_nnz(s_.seq_len, s_.nodes, seqpar::degrees_of(mask_));
    }
    nodes_ = std::make_unique<NodeGroup>();
    std::vector<std::uint16_t> ports;
    for (int n = 0; n < s_.nodes; ++n) ports.push_back(nodes_->spawn(cfg_.serve_bin, s_.dim));
    client_ = std::make_unique<net::ClusterClient>();
    for (int n = 0; n < s_.nodes; ++n) {
      trace::Span sp("bench.net.connect", "bench");
      auto t = net::TcpTransport::connect("127.0.0.1", ports[static_cast<std::size_t>(n)],
                                          net::Millis{5000}, net::Millis{30000});
      if (t == nullptr) throw std::runtime_error("connect to gpa_serve node failed");
      client_->add_peer(static_cast<std::uint64_t>(n), std::move(t));
    }
  }

  void teardown() override {
    if (client_ != nullptr) {
      try {
        client_->shutdown_all();
      } catch (const std::exception&) {
        // The nodes are killed below either way.
      }
      client_.reset();
    }
    if (nodes_ != nullptr) {
      nodes_rss_kb_ = std::max(nodes_rss_kb_, nodes_->reap());
      nodes_.reset();
    }
  }

  long extra_rss_kb() const override { return nodes_rss_kb_; }

  Phase measure(double seconds, Result* layers) override {
    if (oracle_.rows() == 0) {
      trace::Span sp("bench.seqpar.distributed_csr_attention", "bench");
      oracle_ = Matrix<float>(s_.seq_len, s_.dim);
      seqpar::distributed_csr_attention(q_, k_, v_, mask_, part_, oracle_);
    }
    const auto bytes_before = node_bytes();
    Phase p;
    std::vector<double> wire_ms;
    Size deliveries = 0;
    {
      trace::Span root(kRootSpan, "bench");
      const Clock::time_point end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
      // Closed loop: each prefill is due when the previous one (and its
      // bit-identity check, which is the benchmark's own work) is done.
      Clock::time_point due = Clock::now();
      while (due < end) {
        const Clock::time_point start = Clock::now();
        p.late_ms.push_back(ms_between(due, start));
        net::ClusterRingReport rep;
        {
          trace::Span sp("bench.net.ring_prefill", "bench");
          rep = client_->ring_prefill(q_, k_, v_, mask_, part_, false, -1.0f, out_);
        }
        p.latency_ms.push_back(ms_between(due, Clock::now()));
        ++p.attempted;
        wire_ms.push_back(rep.seconds * 1e3);
        deliveries = rep.shard_deliveries;
        if (!out_.same_shape(oracle_) ||
            std::memcmp(out_.data(), oracle_.data(), oracle_.size_bytes()) != 0) {
          ++mismatches_;
        }
        due = Clock::now();
      }
    }
    if (layers != nullptr) {
      const auto bytes_after = node_bytes();
      report_layers(*layers, wire_ms, deliveries, p.attempted, bytes_before, bytes_after);
    }
    return p;
  }

  void check(Result& r) override {
    if (mismatches_ > 0) {
      r.fail_check(std::to_string(mismatches_) +
                   " ring prefills differ from seqpar::distributed_csr_attention");
    }
    // The oracle itself against the benchmark's double-precision rows.
    const double scale = 1.0 / std::sqrt(static_cast<double>(s_.dim));
    double worst = 0.0;
    for (const Index i : rows_) {
      const auto cols = local_global_cols(i, s_.seq_len, s_.reach, s_.global, false);
      const auto want = reference_row(
          q_.row(i), s_.dim, cols, scale, [&](Index j) { return k_.row(j); },
          [&](Index j) { return v_.row(j); });
      worst = std::max(worst, row_error(oracle_.row(i), want));
    }
    if (!(worst <= kTolerance)) {
      r.fail_check("ring prefill rows differ from the reference by " + std::to_string(worst));
    }
  }

 private:
  /// Bytes received / sent, summed over the nodes' own registries.
  std::pair<double, double> node_bytes() {
    double in = 0.0;
    double out = 0.0;
    for (int n = 0; n < s_.nodes; ++n) {
      trace::Span sp("bench.net.node_stats", "bench");
      const auto snap = client_->node_stats(static_cast<std::uint64_t>(n));
      in += static_cast<double>(snap.counter("net.bytes.received"));
      out += static_cast<double>(snap.counter("net.bytes.sent"));
    }
    return {in, out};
  }

  void report_layers(Result& r, const std::vector<double>& wire_ms, Size deliveries,
                     std::uint64_t calls, std::pair<double, double> before,
                     std::pair<double, double> after) {
    std::vector<double> ping_us;
    for (int i = 0; i < kPingsPerNode * s_.nodes; ++i) {
      const Clock::time_point t0 = Clock::now();
      {
        trace::Span sp("bench.net.ping", "bench");
        client_->ping(static_cast<std::uint64_t>(i % s_.nodes));
      }
      ping_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    std::vector<double> makespan_ms;
    Matrix<float> sim_out(s_.seq_len, s_.dim);
    for (int i = 0; i < kMakespanReps; ++i) {
      trace::Span sp("bench.seqpar.distributed_csr_attention", "bench");
      makespan_ms.push_back(
          seqpar::distributed_csr_attention(q_, k_, v_, mask_, part_, sim_out).makespan_seconds *
          1e3);
    }
    const double wire = median(wire_ms);
    const double makespan = median(makespan_ms);
    const double per_call = calls > 0 ? 1.0 / static_cast<double>(calls) : 0.0;
    // The router relays each rotated K/V shard: fetched from its owner,
    // pushed to the node, for P-1 steps per node.
    const double shard_bytes = static_cast<double>(s_.seq_len * s_.dim) * 2 * sizeof(float);
    r.add("net.ring.wire_ms_p50", wire, "ms", "ClusterRingReport.seconds");
    r.add("net.ring.overhead_ratio", makespan > 0 ? wire / makespan : 0.0, "ratio",
          "wire time over sim_cluster makespan");
    r.add("net.ring.shard_deliveries", static_cast<double>(deliveries), "count", "per prefill");
    r.add("net.ring.bytes_computed", 2.0 * (s_.nodes - 1) * shard_bytes, "B",
          "computed relay volume per prefill");
    r.add("net.node.bytes_in", (after.first - before.first) * per_call, "B",
          "scraped, per prefill");
    r.add("net.node.bytes_out", (after.second - before.second) * per_call, "B",
          "scraped, per prefill");
    r.add_quantiles("net.rpc.ping_us", ping_us, 99.0, "p99", "us");
    r.add("seqpar.sim_makespan_ms", makespan, "ms",
          "median of " + std::to_string(kMakespanReps));
    r.add("seqpar.partition_imbalance", part_.imbalance(), "ratio", "max/mean part NNZ");
  }

  Sizes s_;
  Matrix<float> q_, k_, v_;
  std::vector<Index> rows_;

  Csr<float> mask_;
  seqpar::Partition part_;
  std::unique_ptr<NodeGroup> nodes_;
  std::unique_ptr<net::ClusterClient> client_;
  Matrix<float> oracle_, out_;
  std::uint64_t mismatches_ = 0;
  long nodes_rss_kb_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ring(const RunConfig& cfg) { return std::make_unique<Ring>(cfg); }

}  // namespace e2e

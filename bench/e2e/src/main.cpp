// bench_e2e — end-to-end benchmark of the gpa system over four workloads.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>] [--json <file>] [--rev <git rev>]
//   bench_e2e --smoke [--seed <n>]      all four workloads at toy sizes
//   bench_e2e --self-test               the measuring code's own tests
//   bench_e2e --calibrate --workload <decode-stream|pattern-serve>
//
// Each workload runs in a forked child so its peak RSS is its own. The
// log prints one `workload metric value unit` line per metric; the last
// line of standard output is one JSON object with correct / attempted /
// failed / metrics: the end-to-end metrics for --trace 0, the per-layer
// metrics for --trace 1. Exits non-zero if any output check fails.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "workload.hpp"

#ifndef GPA_E2E_SERVE_BIN
#define GPA_E2E_SERVE_BIN "gpa_serve"
#endif

namespace {

using namespace e2e;

const std::vector<std::string> kWorkloads = {"longctx-prefill", "decode-stream", "pattern-serve",
                                             "ring-prefill"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares. Every run prints all of one
// list; a per-layer metric of a layer the workload bypasses reads 0.
const std::vector<MetricSpec> kEndToEnd = {{"setup_s", "s"},
                                           {"adj_latency_ms_p50", "ms"},
                                           {"adj_latency_ms_tail", "ms"},
                                           {"peak_rss_mb", "MB"}};

const std::vector<MetricSpec> kPerLayer = {
    {"sparse.build_s.longformer", "s"},
    {"sparse.build_s.bigbird", "s"},
    {"sparse.build_s.csr_random", "s"},
    {"core.call_ms_p50.longformer", "ms"},
    {"core.call_ms_p50.bigbird", "ms"},
    {"core.call_ms_p50.dilated", "ms"},
    {"core.call_ms_p50.csr_random", "ms"},
    {"core.edges_per_s.longformer", "1/s"},
    {"core.edges_per_s.bigbird", "1/s"},
    {"core.edges_per_s.dilated", "1/s"},
    {"core.edges_per_s.csr_random", "1/s"},
    {"core.flops.longformer", "flop"},
    {"core.flops.bigbird", "flop"},
    {"core.flops.dilated", "flop"},
    {"core.flops.csr_random", "flop"},
    {"core.bytes.longformer", "B"},
    {"core.bytes.bigbird", "B"},
    {"core.bytes.dilated", "B"},
    {"core.bytes.csr_random", "B"},
    {"parallel.speedup_vs_serial", "x"},
    {"simd.speedup_vs_scalar", "x"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.service_ms_p99", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.rejected.queue_full", "count"},
    {"serve.rejected.deadline", "count"},
    {"serve.rejected.shutdown", "count"},
    {"serve.rejected.session", "count"},
    {"serve.rejected.internal_error", "count"},
    {"kvcache.prefill_ms_p50", "ms"},
    {"kvcache.prefill_ms_p99", "ms"},
    {"kvcache.prefix_hit_ratio", "ratio"},
    {"kvcache.pages_in_use_max", "count"},
    {"kvcache.pool_pages", "count"},
    {"kvcache.evictions", "count"},
    {"kvcache.decode_edges_per_token", "count"},
    {"net.ring.wire_ms_p50", "ms"},
    {"net.ring.overhead_ratio", "ratio"},
    {"net.ring.shard_deliveries", "count"},
    {"net.ring.bytes_computed", "B"},
    {"net.node.bytes_in", "B"},
    {"net.node.bytes_out", "B"},
    {"net.rpc.ping_us_p50", "us"},
    {"net.rpc.ping_us_p99", "us"},
    {"seqpar.sim_makespan_ms", "ms"},
    {"seqpar.partition_imbalance", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"loadgen.ttft_ms_p50", "ms"},
    {"loadgen.ttft_ms_p99", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_residual_pct", "%"},
};

struct Args {
  std::vector<std::string> workloads;
  RunConfig cfg;
  bool seconds_given = false;
  bool self_test = false;
  std::string json_path;
  std::string rev = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "bench_e2e: " << error
            << "\nusage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--trace-dir <dir>] [--json <file>] [--rev <rev>]\n"
               "       bench_e2e --smoke [--seed <n>] | --self-test\n"
               "       bench_e2e --calibrate --workload <name>\n"
               "workloads: longctx-prefill decode-stream pattern-serve ring-prefill\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.cfg.trace_dir = "e2e-trace";
  a.cfg.serve_bin = GPA_E2E_SERVE_BIN;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        const std::string w = value();
        if (std::find(kWorkloads.begin(), kWorkloads.end(), w) == kWorkloads.end()) {
          usage("unknown workload " + w);
        }
        a.workloads.push_back(w);
      } else if (flag == "--seed") {
        a.cfg.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.cfg.seconds = std::stod(value());
        a.seconds_given = true;
        if (!(a.cfg.seconds > 0 && a.cfg.seconds <= 600)) usage("--seconds must be in (0, 600]");
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        a.cfg.trace = t == "1";
      } else if (flag == "--trace-dir") {
        a.cfg.trace_dir = value();
      } else if (flag == "--json") {
        a.json_path = value();
      } else if (flag == "--rev") {
        a.rev = value();
      } else if (flag == "--smoke") {
        a.cfg.smoke = true;
      } else if (flag == "--calibrate") {
        a.cfg.calibrate = true;
      } else if (flag == "--self-test") {
        a.self_test = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.workloads.empty()) a.workloads = kWorkloads;
  if (a.cfg.smoke && !a.seconds_given) a.cfg.seconds = 1.0;
  if (a.cfg.calibrate && !a.seconds_given) a.cfg.seconds = 3.0;
  return a;
}

std::unique_ptr<Workload> make(const std::string& name, const RunConfig& cfg) {
  if (name == "longctx-prefill") return make_longctx(cfg);
  if (name == "decode-stream") return make_decode(cfg);
  if (name == "pattern-serve") return make_pattern(cfg);
  return make_ring(cfg);
}

/// Runs the workload in a forked child and collects its Result through a
/// pipe. The parent has run no parallel region yet, so the child starts
/// with a clean OpenMP runtime.
bool run_in_child(std::unique_ptr<Workload> w, Result& out, std::string& error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    error = "pipe2 failed";
    return false;
  }
  std::cout.flush();  // else a child that flushes at exit repeats the parent's buffered log
  const pid_t pid = ::fork();
  if (pid < 0) {
    error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    Result r;
    try {
      r = w->run();
    } catch (const std::exception& e) {
      r.fail_check(std::string("exception: ") + e.what());
    }
    w.reset();  // reaps anything the workload spawned, on this path too
    r.self_maxrss_kb = self_maxrss_kb();
    const std::string text = serialize(r);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) ::_exit(3);
      off += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  w.reset();
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  ::wait4(pid, &status, 0, &ru);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    error = WIFSIGNALED(status) ? "killed by signal " + std::to_string(WTERMSIG(status))
                                : "exit status " + std::to_string(WEXITSTATUS(status));
    return false;
  }
  if (!deserialize(text, out)) {
    error = "unreadable result";
    return false;
  }
  return true;
}

/// The declared metric list, in order, filled from what the workload
/// reported. A missing end-to-end metric is an error; a missing per-layer
/// metric is a layer the workload does not use, and reads 0.
bool canonical(const Result& r, bool trace, std::vector<Metric>& out, std::string& missing) {
  bool ok = true;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    const auto it = std::find_if(r.metrics.begin(), r.metrics.end(),
                                 [&](const Metric& m) { return m.name == spec.name; });
    if (it != r.metrics.end()) {
      out.push_back(Metric{spec.name, it->value, spec.unit, it->note});
    } else {
      out.push_back(Metric{spec.name, 0.0, spec.unit, "layer not used"});
      if (!trace) {
        ok = false;
        missing += std::string(" ") + spec.name;
      }
    }
  }
  return ok;
}

int run_workloads(const Args& a) {
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " simd=" << gpa::simd::simd_backend() << " parallel=" << gpa::parallel_backend()
            << " rev=" << a.rev << "\n";
  std::cout.flush();
  // --smoke covers both kinds of run: end-to-end, then traced.
  std::vector<bool> modes = {a.cfg.trace};
  if (a.cfg.smoke) modes = {false, true};

  bool all_ok = true;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> json_metrics;
  const bool prefix_names = a.workloads.size() > 1 || modes.size() > 1;
  for (const bool trace : modes) {
    for (const std::string& name : a.workloads) {
      RunConfig cfg = a.cfg;
      cfg.trace = trace;
      Result r;
      std::string error;
      if (!run_in_child(make(name, cfg), r, error)) {
        std::cout << name << " FAILED: " << error << "\n";
        all_ok = false;
        continue;
      }
      for (const std::string& note : r.notes) std::cout << "# " << name << ": " << note << "\n";
      if (a.cfg.calibrate) continue;
      if (!trace) {
        r.add("peak_rss_mb", static_cast<double>(r.self_maxrss_kb + r.nodes_maxrss_kb) / 1024.0,
              "MB", r.nodes_maxrss_kb > 0 ? "workload process + nodes" : "workload process");
      }
      std::vector<Metric> metrics;
      std::string missing;
      if (!canonical(r, trace, metrics, missing)) {
        std::cout << name << " FAILED: missing metrics" << missing << "\n";
        all_ok = false;
      }
      for (const Metric& m : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", m.value);
        std::cout << name << " " << m.name << " " << buf << " " << m.unit
                  << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
        json_metrics.push_back(m);
        if (prefix_names) {
          json_metrics.back().name = name + (trace ? ".layer." : ".") + m.name;
        }
      }
      std::cout << name << " attempted " << r.attempted << " failed " << r.failed
                << (r.correct ? " correct" : " INCORRECT") << (r.valid ? "" : " INVALID") << "\n";
      correct = correct && r.correct;
      all_ok = all_ok && r.correct && r.valid;
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  if (a.cfg.calibrate) return all_ok ? 0 : 1;
  if (!all_ok && json_metrics.empty()) return 1;
  const std::string json = to_json(correct, attempted, failed, json_metrics);
  if (!a.json_path.empty()) {
    std::ofstream f(a.json_path);
    f << json << "\n";
    if (!f) {
      std::cerr << "bench_e2e: cannot write " << a.json_path << "\n";
      all_ok = false;
    }
  }
  std::cout << json << std::endl;
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.self_test) return run_self_tests();
  return run_workloads(a);
}

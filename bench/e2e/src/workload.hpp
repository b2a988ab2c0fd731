#pragma once
// The four workloads behind one skeleton. A workload's constructor makes
// every input from the seed (in the parent, before any clock starts);
// run() executes in a forked child: set-up several times, warm-up, the
// timed phase (in slices, each followed by the speed probe), then the
// correctness checks.

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kvcache/mask_spec.hpp"
#include "measure.hpp"
#include "serve/request.hpp"
#include "speed_probe.hpp"

namespace e2e {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;      ///< per-layer run: untraced half, then a traced half
  bool smoke = false;      ///< toy sizes, for the CTest smoke run
  bool calibrate = false;  ///< open-loop knee search instead of a run
  double rate = 0.0;       ///< open-loop rate override (0 = the fixed rate; set by --calibrate)
  std::string trace_dir;   ///< where <workload>.trace.json is written
  std::string serve_bin;   ///< gpa_serve, for ring-prefill
};

/// One timed phase.
struct Phase {
  std::vector<double> latency_ms;  ///< per completed op, from its due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> late_ms;     ///< generator lateness per issued op
  std::uint64_t backlog_max = 0;

  /// Adds a later slice of the same phase.
  void append(const Phase& slice);
};

/// Root span every benchmark thread opens around its part of a timed
/// phase; the layer table treats threads carrying it as the benchmark's.
inline constexpr const char* kRootSpan = "bench.timed";

/// Generator lateness above this (p99) makes a run invalid: the load was
/// not offered on schedule, so its latencies describe the generator.
inline constexpr double kMaxLateMsP99 = 20.0;

/// Warm-up before the timed phase: caches fill and lazy set-up finishes.
inline constexpr double kWarmupSeconds = 2.0;

/// The end-to-end timed phase runs in slices of about this length, with
/// a speed probe after each one.
inline constexpr double kSliceSeconds = 1.0;
/// Idle time before each probe, so that the program's threads have
/// stopped spinning (OpenMP workers spin for some milliseconds after a
/// parallel region) and the probe runs on an otherwise idle process.
inline constexpr std::chrono::milliseconds kProbeIdle{30};

/// setup_s is the median of at least kSetupReps set-ups, repeated until
/// kSetupSeconds have been spent (at most kMaxSetupReps), so that a
/// microsecond set-up is measured as steadily as a multi-second one.
/// (pattern-serve's 10 µs server start is bimodal, 9 or 11.5 µs, so its
/// median needs hundreds of samples to settle.)
inline constexpr std::size_t kSetupReps = 3;
inline constexpr double kSetupSeconds = 0.25;
inline constexpr std::size_t kMaxSetupReps = 2000;

class Workload {
 public:
  explicit Workload(RunConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  Result run();

 protected:
  /// Percentile reported as latency_ms_tail (see README for why each
  /// workload reports the one it does).
  virtual double tail_pct() const = 0;
  /// Program set-up, timed and repeated (see kSetupReps); teardown()
  /// undoes it between repetitions and is not timed.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// One timed phase of `seconds`. With `layers`, also records the
  /// per-layer metrics of this workload into it.
  virtual Phase measure(double seconds, Result* layers) = 0;
  /// Output checks against the reference, outside any timed region.
  virtual void check(Result& r) = 0;
  /// Open-loop workloads: the fixed arrival rate (0 = closed loop).
  virtual double fixed_rate() const { return 0.0; }
  /// Peak RSS of processes the workload spawned (KiB, summed), known
  /// after teardown().
  virtual long extra_rss_kb() const { return 0; }

  double rate() const { return cfg_.rate > 0 ? cfg_.rate : fixed_rate(); }

  RunConfig cfg_;

 private:
  void run_timed(Result& r);
  void run_traced(Result& r);
  void run_calibration(Result& r);

  SpeedProbe probe_;
};

/// The serve layer as the serving workloads' responses describe it.
struct ServeSamples {
  std::vector<double> queue_ms, service_ms, batch;
  std::map<std::string, std::uint64_t> rejected;  ///< by status, e.g. "queue_full"

  /// Returns true for an Ok response.
  bool record(const gpa::serve::Response& resp);
  /// serve.queue_ms_*, serve.service_ms_*, serve.batch_size_mean and
  /// serve.rejected.<status>.
  void report(Result& r) const;
};

/// The open-loop machinery both serving workloads share. Arrival i is due
/// at start + i/rate; the generator (the calling thread) submits it when
/// due, and a collector thread stamps each response when it sees it
/// complete, in whatever order the server finishes them (bucketed
/// admission lets a younger request ride an earlier batch), then hands it
/// to the workload.
class ServingLoop {
 public:
  struct Sent {
    std::future<gpa::serve::Response> fut;
    Clock::time_point due;
    std::uint64_t key = 0;      ///< the workload's own: a slot or an arrival number
    std::uint32_t payload = 0;  ///< index of the request payload
  };
  /// Submits arrival i into `sent.fut` and fills the workload's fields;
  /// returns false to stop issuing arrivals.
  using Submit = std::function<bool(std::uint64_t i, Sent& sent)>;
  /// Takes one response on the collector thread; `done` is when it was
  /// seen complete.
  using Collect =
      std::function<void(const Sent& sent, gpa::serve::Response& resp, Clock::time_point done)>;

  /// One phase of `seconds` at `rate` arrivals per second. Every latency
  /// runs from the arrival's due time to when its response was seen.
  Phase run(double seconds, double rate, const Submit& submit, const Collect& collect);

  /// Records the first failure of any phase thread; from then on no
  /// arrival is issued.
  void fail(std::exception_ptr e);
  bool failed() const noexcept { return failed_.load(); }
  /// Rethrows the recorded failure, once every phase thread has stopped.
  void rethrow() const;

  ServeSamples samples;  ///< the serve layer, as every response describes it

 private:
  mutable std::mutex mu_;
  std::exception_ptr failure_;
  std::atomic<bool> failed_{false};
};

/// How often the collector looks past the oldest outstanding request for
/// responses that finished before it; bounds the stamp error of those.
inline constexpr std::chrono::microseconds kCollectPoll{50};

/// The serving workloads' mask: a local window of `reach` tokens each side
/// composed with the first `global` tokens as global rows and columns.
gpa::kvcache::MaskSpec local_global_spec(gpa::Index reach, gpa::Index global,
                                         gpa::Index max_len);

std::unique_ptr<Workload> make_longctx(const RunConfig& cfg);
std::unique_ptr<Workload> make_decode(const RunConfig& cfg);
std::unique_ptr<Workload> make_pattern(const RunConfig& cfg);
std::unique_ptr<Workload> make_ring(const RunConfig& cfg);

}  // namespace e2e

#pragma once
// The benchmark's own measuring code: percentiles, the open-loop
// schedule, result records, span self-time and process accounting.
// None of it comes from the program under test (no serve::run_open_loop,
// no ServerStats, no benchutil), so rewriting those leaves the
// measurement unchanged.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Percentiles.

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  double pct = 0.0;         ///< percentile actually reported
  std::size_t n = 0;        ///< sample count
  std::size_t beyond = 0;   ///< samples strictly above the reported rank
};

/// Nearest-rank percentile `pct` of `samples`. When fewer than
/// kMinBeyond samples would lie beyond that rank, the rank is lowered
/// until kMinBeyond do (never below the median), and `pct` says which
/// percentile was reported.
Quantile quantile(std::vector<double> samples, double pct);
/// "p99 n=1234 beyond=12", for the log.
std::string describe(const Quantile& q);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

// ---------------------------------------------------------------------
// Results. A workload reports end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs), plus free-form notes for the log.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile used, for the log
};

struct Result {
  bool correct = true;
  bool valid = true;  ///< false when the load generator itself fell behind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  long self_maxrss_kb = 0;   ///< peak RSS of the workload process
  long nodes_maxrss_kb = 0;  ///< summed peak RSS of spawned node processes

  void add(std::string name, double value, std::string unit, std::string note = {});
  /// `<base>_p50` and `<base>_<tail_suffix>` (percentile `tail_pct`,
  /// clamped by the kMinBeyond rule) from one sample set.
  void add_quantiles(const std::string& base, const std::vector<double>& samples,
                     double tail_pct, const std::string& tail_suffix, const std::string& unit);
  /// Records a failed correctness check (the run then exits non-zero).
  void fail_check(const std::string& what);
};

std::string serialize(const Result& r);
bool deserialize(const std::string& text, Result& r);

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// Every value keeps all its digits (%.17g).
std::string to_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                    const std::vector<Metric>& metrics);
std::string json_escape(const std::string& s);

// ---------------------------------------------------------------------
// Open-loop schedule: arrival i is due at start + i/rate regardless of
// how the system is doing, and every latency is taken from the due
// time, so a stall is charged to every request it delayed.

class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double rate_hz);

  Clock::time_point due(std::uint64_t i) const;

  /// Sleeps until arrival i is due. Records how late the generator got
  /// to it (its own delays, plus any time earlier arrivals spent waiting
  /// for a free session) and how many arrivals were already due but not
  /// yet issued (the backlog).
  void wait_until_due(std::uint64_t i);

  const std::vector<double>& late_ms() const noexcept { return late_ms_; }
  std::uint64_t backlog_max() const noexcept { return backlog_max_; }

 private:
  Clock::time_point start_;
  double interval_s_;
  std::vector<double> late_ms_;
  std::uint64_t backlog_max_ = 0;
};

/// Lets the calling thread's sleeps end within microseconds of their
/// deadline (Linux timer slack), so generator wake-ups do not add a
/// constant 50 µs to every latency.
void tighten_timer_slack();

// ---------------------------------------------------------------------
// Span self-time. A span's self time is its duration minus the part of
// it covered by child spans on the same thread.

struct SpanRec {
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::string name;
  std::string cat;
};

/// Per-span self times, index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans);

/// The layer a span belongs to. The benchmark's own spans are named
/// bench.<layer>.<call> ("bench.timed" is the benchmark itself); the
/// program's spans carry their layer in the category ("net.rpc" -> net).
std::string layer_of(const SpanRec& span);

struct LayerTable {
  std::map<std::string, double> bench_ms;    ///< self time on the benchmark's threads
  std::map<std::string, double> program_ms;  ///< self time on the program's own threads
  double wall_ms = 0.0;      ///< summed duration of the timed root spans
  double residual_ms = 0.0;  ///< wall minus the summed bench_ms rows
};

/// Builds the table from drained spans: threads that carry a root span
/// named `root` are the benchmark's; the rest belong to the program.
LayerTable layer_table(const std::vector<SpanRec>& spans, const std::string& root);
std::string format_table(const LayerTable& t);

// ---------------------------------------------------------------------

/// Peak RSS of the calling process (KiB).
long self_maxrss_kb();

/// --self-test: the tests of the measuring code (this file's and the
/// serving loop's). Returns the exit status.
int run_self_tests();

}  // namespace e2e

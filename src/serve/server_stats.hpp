#pragma once
// Serving metrics, owned by one Server. Counters cover the full
// admission funnel (submitted → completed/rejected-by-cause), the
// latency histograms (end-to-end and service) feed the p50/p95/p99/max
// tail summary, and the batch-occupancy histogram is the direct
// evidence for whether the batching policy actually coalesces work.
//
// Every record_* is a release add or two on obs::Counter /
// obs::Histogram shards (no lock), and memory is fixed at construction
// however many requests the server answers. snapshot() reads with
// acquire loads in the reverse of the recording order, so a reader that
// sees an event also sees what its writer recorded before it (the
// argument is spelled out in snapshot()). What a snapshot taken while
// writers run guarantees:
//   * completed_ok == latency_ms.samples, and the occupancy slots sum to
//     batches: each pair is one histogram's buckets, read once.
//   * service_ms.samples >= completed_ok: a completion records service
//     before latency, so service can run ahead by the completions in
//     flight (the two agree once writers are quiet).
//   * submitted >= every outcome counted.
//
// Quantiles come from geometric latency buckets (ratio 1.02 from 1 µs
// to 100 s), so each of p50/p95/p99/max is within 2% of the exact
// sample percentile (obs::HistogramSample::quantile). Occupancy buckets
// are the integers 1..max_batch, so per-slot counts are exact.

#include <array>
#include <atomic>
#include <vector>

#include "benchutil/stats.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"

namespace gpa::serve {

struct StatsSnapshot {
  Size submitted = 0;
  Size completed_ok = 0;
  Size rejected_queue_full = 0;
  Size rejected_deadline = 0;
  Size rejected_shutdown = 0;
  Size rejected_session = 0;
  Size internal_errors = 0;

  Size batches = 0;
  /// occupancy[b] = number of batches dispatched with exactly b
  /// requests, b in 1..max_batch (index 0 unused). Trailing empty slots
  /// are trimmed.
  std::vector<Size> occupancy;
  double mean_batch_occupancy = 0.0;

  std::size_t max_queue_depth = 0;

  /// End-to-end (admission → kernel done) and service (dispatch →
  /// kernel done) latency tails, milliseconds. While writers run,
  /// service_ms.samples may exceed completed_ok by the completions in
  /// flight; latency_ms.samples always equals it.
  benchutil::TailStats latency_ms;
  benchutil::TailStats service_ms;
};

class ServerStats {
 public:
  /// Occupancy buckets are 1..max_batch (the batcher's ceiling).
  explicit ServerStats(Index max_batch);

  void record_submitted() noexcept { submitted_.inc(); }
  /// A terminal outcome other than Ok (InternalError included).
  void record_rejected(ResponseStatus cause) noexcept;
  void record_queue_depth(std::size_t depth) noexcept;
  /// occupancy in 1..max_batch.
  void record_batch(Index occupancy) noexcept;
  void record_completion(double total_us, double service_us) noexcept;

  StatsSnapshot snapshot() const;

 private:
  obs::Counter submitted_;
  /// Indexed by ResponseStatus; the Ok slot stays 0 (completions are
  /// the latency histogram's count).
  std::array<obs::Counter, static_cast<std::size_t>(ResponseStatus::InternalError) + 1> rejected_;
  std::atomic<std::size_t> max_queue_depth_{0};
  obs::Histogram occupancy_;
  obs::Histogram latency_ms_;
  obs::Histogram service_ms_;
};

}  // namespace gpa::serve

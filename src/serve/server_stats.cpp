#include "serve/server_stats.hpp"

#include <algorithm>
#include <numeric>

namespace gpa::serve {

namespace {

std::vector<double> occupancy_edges(Index max_batch) {
  std::vector<double> e(static_cast<std::size_t>(std::max<Index>(max_batch, 0)));
  std::iota(e.begin(), e.end(), 1.0);
  return e;
}

const obs::BucketEdges& latency_edges_ms() {
  static const obs::BucketEdges edges(obs::geometric_edges(1e-3, 1e5, 1.02));
  return edges;
}

benchutil::TailStats tail_of(const obs::HistogramSample& h) {
  return {h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.quantile(1.0), h.count};
}

}  // namespace

ServerStats::ServerStats(Index max_batch)
    : occupancy_(occupancy_edges(max_batch)),
      latency_ms_(latency_edges_ms()),
      service_ms_(latency_edges_ms()) {}

void ServerStats::record_rejected(ResponseStatus cause) noexcept {
  rejected_[static_cast<std::size_t>(cause)].inc();
}

void ServerStats::record_queue_depth(std::size_t depth) noexcept {
  std::size_t seen = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

void ServerStats::record_batch(Index occupancy) noexcept {
  occupancy_.observe(static_cast<double>(occupancy));
}

void ServerStats::record_completion(double total_us, double service_us) noexcept {
  service_ms_.observe(service_us / 1000.0);  // before latency: snapshot() relies on it
  latency_ms_.observe(total_us / 1000.0);
}

StatsSnapshot ServerStats::snapshot() const {
  // Acquire reads in the reverse of the recording order: a read that
  // sees a (release) increment also sees what its writer recorded before
  // it. record_completion observes service before latency, so reading
  // latency first makes service.count >= latency.count.
  const obs::HistogramSample latency = latency_ms_.sample();
  const obs::HistogramSample service = service_ms_.sample();
  const obs::HistogramSample occupancy = occupancy_.sample();
  const auto rejected = [this](ResponseStatus s) {
    return rejected_[static_cast<std::size_t>(s)].value();
  };
  StatsSnapshot s;
  s.completed_ok = latency.count;
  s.rejected_queue_full = rejected(ResponseStatus::RejectedQueueFull);
  s.rejected_deadline = rejected(ResponseStatus::RejectedDeadline);
  s.rejected_shutdown = rejected(ResponseStatus::RejectedShutdown);
  s.rejected_session = rejected(ResponseStatus::RejectedSession);
  s.internal_errors = rejected(ResponseStatus::InternalError);
  // Submissions last, by the same argument: every outcome is recorded
  // after its request's submission, so this counts every outcome above.
  s.submitted = submitted_.value();

  s.batches = occupancy.count;
  s.occupancy.assign(occupancy.counts.size() + 1, 0);  // slot b ← bucket b − 1
  std::copy(occupancy.counts.begin(), occupancy.counts.end(), s.occupancy.begin() + 1);
  while (!s.occupancy.empty() && s.occupancy.back() == 0) s.occupancy.pop_back();
  s.mean_batch_occupancy =
      s.batches > 0 ? occupancy.sum / static_cast<double>(s.batches) : 0.0;
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  s.latency_ms = tail_of(latency);
  s.service_ms = tail_of(service);
  return s;
}

}  // namespace gpa::serve

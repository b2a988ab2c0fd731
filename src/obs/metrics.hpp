#pragma once
// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with lock-cheap recording, a typed snapshot, and text + JSON
// exposition. This is the process-wide substrate kvcache / net /
// parallel record into; the live scrape path (net's Op::Stats) and the
// bench JSON embeds read it back out. The same Counter and Histogram
// types also serve as per-object metrics outside the registry (each
// serve::Server owns its stats).
//
// Naming convention: `subsystem.noun[.verb]`, lowercase, dot-separated
//   net.rpc.calls                 kvcache.prefix.hits
//   net.bytes.sent                sched.auto.picks.dynamic
// Names are registered once and live for the registry's lifetime, so
// instrument sites cache the returned reference (one magic-static) and
// the hot path is a single sharded atomic add — no lock, no lookup.
//
// Recording contract:
//   * Counter::inc is wait-free: one fetch_add on a cache-line-padded
//     shard picked by thread id (writers on different threads do not
//     bounce one cache line).
//   * Counter and histogram-bucket increments are release and their
//     reads acquire (the same instructions as relaxed on x86): a reader
//     that sees an increment also sees what its writer recorded before
//     it. ServerStats::snapshot() relies on this for its ordering.
//   * Gauge is a single atomic (set/add are rare, not hot-path).
//   * Histogram::observe is one add on its bucket plus a relaxed CAS
//     loop for the running sum; the count is the sum of the buckets, so
//     a histogram read never disagrees with its own count.
//   * snapshot() walks the registry under its registration mutex.
//     Individual values are atomically read but the snapshot is NOT a
//     cross-metric atomic cut — counters are monotone, so a scraper
//     sees each counter at some point within the scrape window.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gpa::obs {

/// Monotone event count. Sharded so concurrent writers on different
/// threads land on different cache lines; value() folds the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;  ///< tests only — not linearizable vs writers

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (pool occupancy, live sessions).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct HistogramSample;

/// A histogram's bucket layout: non-empty, strictly ascending upper
/// edges. Checked once here; copies share one immutable vector, so many
/// histograms with one layout (one per server, say) cost one copy.
class BucketEdges {
 public:
  explicit BucketEdges(std::vector<double> edges);  ///< throws InvalidArgument

  const std::vector<double>& values() const noexcept { return *values_; }

 private:
  std::shared_ptr<const std::vector<double>> values_;
};

/// Fixed-bucket histogram: bucket b counts observations <= edges[b],
/// the last (implicit +inf) bucket counts the overflow. Edges are fixed
/// at registration — scrapers can difference two snapshots bucket by
/// bucket because the layout never changes.
class Histogram {
 public:
  explicit Histogram(BucketEdges edges);
  explicit Histogram(std::vector<double> edges) : Histogram(BucketEdges(std::move(edges))) {}

  void observe(double v) noexcept;

  const std::vector<double>& edges() const noexcept { return edges_.values(); }
  /// counts[i] for i < edges.size() counts v <= edges[i] (first match);
  /// counts.back() is the +inf overflow bucket.
  std::vector<std::uint64_t> counts() const;
  double sum() const noexcept;
  /// Sum of the bucket counts.
  std::uint64_t count() const noexcept;
  /// Buckets read once, with `count` their sum.
  HistogramSample sample(std::string name = {}) const;
  void reset() noexcept;

 private:
  BucketEdges edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
};

/// Edges lo, lo·ratio, lo·ratio², … up to the first edge >= hi. With
/// these edges HistogramSample::quantile is within a relative error of
/// ratio − 1 for samples in (lo, hi].
std::vector<double> geometric_edges(double lo, double hi, double ratio);

// ---------------------------------------------------------------------
// Snapshot: the typed, point-in-time view the exposition formats and
// the wire codec serialize.

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;  ///< edges.size() + 1 (overflow last)
  double sum = 0.0;
  std::uint64_t count = 0;

  /// Estimate of the q-th quantile (q in [0, 1]) with the same rank rule
  /// as benchutil::percentile: linear interpolation between the order
  /// statistics at ranks floor and ceil of q·(n − 1). Each order
  /// statistic is placed inside its bucket (lo, hi], spread evenly over
  /// the bucket's samples, so it is off by less than hi − lo. For
  /// geometric edges that is a relative error below ratio − 1, and the
  /// interpolation keeps that bound. Samples in the first bucket read as
  /// edges.front() and overflow samples as edges.back(). The estimate is
  /// monotone in q; 0 for an empty histogram.
  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;  ///< name-ascending
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Convenience lookups (0 / nullptr when absent — a scraper probing a
  /// counter the peer never touched reads 0, same as an untouched one).
  std::uint64_t counter(std::string_view name) const noexcept;
  std::int64_t gauge(std::string_view name) const noexcept;
  const HistogramSample* histogram(std::string_view name) const noexcept;

  /// Plain-text exposition, one `name value` line per counter/gauge,
  /// `name_bucket{le="edge"} n` per histogram bucket (Prometheus-style).
  std::string to_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{...}}}.
  std::string to_json() const;
};

// ---------------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-register. The returned reference is stable for the
  /// registry's lifetime (metrics are never erased), so callers cache
  /// it. Registering an existing histogram name with different edges
  /// throws InvalidArgument — the layout is part of the name's contract.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> edges);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations (and cached references)
  /// valid. Test isolation only: concurrent writers may re-bump a shard
  /// mid-reset, so quiesce first for exact zeros.
  void reset();

  /// The process-wide registry every instrument site records into.
  static Registry& global();

 private:
  mutable std::mutex mu_;  ///< guards the maps, never the hot path
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Shard index of the calling thread (stable per thread, dense-ish).
std::size_t shard_of_this_thread() noexcept;

}  // namespace gpa::obs

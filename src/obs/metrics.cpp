#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace gpa::obs {

std::size_t shard_of_this_thread() noexcept {
  // Dense per-thread ids beat hashing std::thread::id: consecutive
  // worker threads land on consecutive shards instead of colliding.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id % Counter::kShards;
}

void Counter::inc(std::uint64_t n) noexcept {
  shards_[shard_of_this_thread()].v.fetch_add(n, std::memory_order_release);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_acquire);
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

BucketEdges::BucketEdges(std::vector<double> edges) {
  GPA_CHECK(!edges.empty(), "histogram needs at least one bucket edge");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    GPA_CHECK(edges[i - 1] < edges[i], "histogram edges must ascend strictly");
  }
  values_ = std::make_shared<const std::vector<double>>(std::move(edges));
}

Histogram::Histogram(BucketEdges edges)
    : edges_(std::move(edges)), counts_(edges_.values().size() + 1) {}

void Histogram::observe(double v) noexcept {
  const std::vector<double>& e = edges_.values();
  const auto it = std::lower_bound(e.begin(), e.end(), v);
  const auto b = static_cast<std::size_t>(it - e.begin());  // == size() → overflow
  counts_[b].fetch_add(1, std::memory_order_release);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_acquire);
  }
  return out;
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_acquire);
  return total;
}

HistogramSample Histogram::sample(std::string name) const {
  HistogramSample s{std::move(name), edges(), counts(), sum(), 0};
  for (const std::uint64_t c : s.counts) s.count += c;
  return s;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> geometric_edges(double lo, double hi, double ratio) {
  GPA_CHECK(lo > 0.0 && hi > lo && ratio > 1.0, "geometric edges need 0 < lo < hi, ratio > 1");
  std::vector<double> edges{lo};
  while (edges.back() < hi) edges.push_back(edges.back() * ratio);
  return edges;
}

namespace {

/// Estimate of the k-th smallest sample (0-based, k < total count):
/// evenly spaced inside its bucket, clamped to the end edges.
double order_statistic(const HistogramSample& h, std::uint64_t k) {
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const std::uint64_t c = h.counts[b];
    if (k < below + c) {
      if (b == 0) return h.edges.front();
      if (b >= h.edges.size()) return h.edges.back();
      const double lo = h.edges[b - 1];
      const double hi = h.edges[b];
      return lo + (hi - lo) * (static_cast<double>(k - below) + 0.5) / static_cast<double>(c);
    }
    below += c;
  }
  return h.edges.back();
}

}  // namespace

double HistogramSample::quantile(double q) const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0 || edges.empty()) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  const auto k = static_cast<std::uint64_t>(rank);
  const double x = order_statistic(*this, k);
  if (k + 1 >= n) return x;
  return x + (rank - static_cast<double>(k)) * (order_statistic(*this, k + 1) - x);
}

// ---------------------------------------------------------------------

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>()).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> edges) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    GPA_CHECK(it->second->edges() == edges,
              "histogram re-registered with different edges: " + std::string(name));
    return *it->second;
  }
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(edges)))
              .first->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot s;
  std::lock_guard<std::mutex> lk(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.push_back({name, c->value()});
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.push_back({name, g->value()});
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back(h->sample(name));
  }
  return s;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& Registry::global() {
  // Leaked on purpose: instrument sites cache references that may be
  // touched by detached threads during process teardown.
  static Registry* g = new Registry();
  return *g;
}

// ---------------------------------------------------------------------
// Snapshot lookups + exposition

namespace {

template <typename Vec>
auto find_sample(const Vec& v, std::string_view name) -> decltype(v.data()) {
  for (const auto& s : v) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  const auto* s = find_sample(counters, name);
  return s ? s->value : 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  const auto* s = find_sample(gauges, name);
  return s ? s->value : 0;
}

const HistogramSample* MetricsSnapshot::histogram(std::string_view name) const noexcept {
  return find_sample(histograms, name);
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& c : counters) os << c.name << " " << c.value << "\n";
  for (const auto& g : gauges) os << g.name << " " << g.value << "\n";
  for (const auto& h : histograms) {
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << h.name << "_bucket{le=\""
         << (b < h.edges.size() ? fmt_double(h.edges[b]) : std::string("+Inf")) << "\"} "
         << h.counts[b] << "\n";
    }
    os << h.name << "_sum " << fmt_double(h.sum) << "\n";
    os << h.name << "_count " << h.count << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  // Metric names are our own dotted identifiers (no quotes/backslashes
  // by construction), so plain quoting is faithful.
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\"" << counters[i].name << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\"" << gauges[i].name << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i ? "," : "") << "\"" << h.name << "\":{\"edges\":[";
    for (std::size_t b = 0; b < h.edges.size(); ++b) {
      os << (b ? "," : "") << fmt_double(h.edges[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) os << (b ? "," : "") << h.counts[b];
    os << "],\"sum\":" << fmt_double(h.sum) << ",\"count\":" << h.count << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace gpa::obs

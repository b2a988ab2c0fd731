// Observability-layer tests: metrics registry semantics (sharded
// counters under contention, histogram bucket boundaries and quantile
// error bound, snapshot lookups and exposition), trace-ring behavior
// (wraparound accounting, Chrome JSON well-formedness, disabled-mode
// no-op), the span/ServerStats reconciliation and the disabled-tracing
// cost guard over a real served workload, the thread decode batches
// fold on, and the ServerStats torn-pair hammer the consistency
// contract in server_stats.hpp names (run under the CI TSan leg).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "benchutil/stats.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "serve/server_stats.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

namespace trace = obs::trace;
using namespace std::chrono_literals;

// --- registry semantics ---------------------------------------------

TEST(Registry, GetOrRegisterReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.a");
  obs::Counter& b = reg.counter("x.a");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);

  obs::Gauge& g = reg.gauge("x.g");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(reg.gauge("x.g").value(), 5);

  obs::Histogram& h = reg.histogram("x.h", {1.0, 2.0});
  EXPECT_EQ(&h, &reg.histogram("x.h", {1.0, 2.0}));
  // The edge layout is part of the name's contract.
  EXPECT_THROW(reg.histogram("x.h", {1.0, 3.0}), InvalidArgument);
}

TEST(Registry, ConcurrentIncrementsAreNotLost) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    // Get-or-register races with other threads on purpose.
    workers.emplace_back([&reg] {
      obs::Counter& c = reg.counter("contended");
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("contended").value(), kThreads * kPerThread);
}

TEST(Registry, SnapshotLookupsAndReset) {
  obs::Registry reg;
  reg.counter("b.count").inc(3);
  reg.counter("a.count").inc(1);
  reg.gauge("a.gauge").set(-4);
  reg.histogram("a.hist", {10.0}).observe(5.0);

  const obs::MetricsSnapshot s = reg.snapshot();
  // Name-ascending order (scrapers diff snapshots positionally).
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a.count");
  EXPECT_EQ(s.counters[1].name, "b.count");
  EXPECT_EQ(s.counter("b.count"), 3u);
  EXPECT_EQ(s.gauge("a.gauge"), -4);
  ASSERT_NE(s.histogram("a.hist"), nullptr);
  EXPECT_EQ(s.histogram("a.hist")->count, 1u);
  // Absent names read as untouched, not as errors.
  EXPECT_EQ(s.counter("nope"), 0u);
  EXPECT_EQ(s.gauge("nope"), 0);
  EXPECT_EQ(s.histogram("nope"), nullptr);

  reg.reset();
  EXPECT_EQ(reg.counter("b.count").value(), 0u);
  EXPECT_EQ(reg.histogram("a.hist", {10.0}).count(), 0u);
  // Registrations (and cached references) survive a reset.
  EXPECT_EQ(reg.snapshot().counters.size(), 2u);
}

TEST(Registry, TextAndJsonExposition) {
  obs::Registry reg;
  reg.counter("c.one").inc(2);
  reg.gauge("g.one").set(9);
  reg.histogram("h.one", {1.0, 5.0}).observe(3.0);

  const obs::MetricsSnapshot s = reg.snapshot();
  const std::string text = s.to_text();
  EXPECT_NE(text.find("c.one 2"), std::string::npos);
  EXPECT_NE(text.find("g.one 9"), std::string::npos);
  EXPECT_NE(text.find("le=\"5\""), std::string::npos) << text;

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g.one\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.one\":{\"edges\":[1,5]"), std::string::npos) << json;
}

// --- histogram bucket boundaries ------------------------------------

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 4.0});
  // counts[b] counts v <= edges[b] (first matching bucket); the last
  // slot is the +inf overflow.
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0 (inclusive upper bound)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(4.1);  // overflow
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1);

  EXPECT_THROW(obs::Histogram({2.0, 1.0}), InvalidArgument);  // not ascending
  EXPECT_THROW(obs::Histogram({}), InvalidArgument);          // empty
}

// The documented bound: on geometric edges, every quantile is within a
// relative error of ratio − 1 of the exact sample percentile.
TEST(Histogram, QuantilesStayWithinTheGeometricBucketBound) {
  constexpr double kRatio = 1.02;
  obs::Histogram h(obs::geometric_edges(1e-3, 1e5, kRatio));
  Rng rng(2024);
  std::vector<double> samples(100'000);
  for (double& x : samples) {
    x = std::exp(std::log(2e-3) + rng.next_double() * (std::log(5e4) - std::log(2e-3)));
    h.observe(x);
  }
  const obs::HistogramSample hs = h.sample();
  ASSERT_EQ(hs.count, samples.size());
  for (const double pct : {50.0, 95.0, 99.0, 100.0}) {
    const double exact = benchutil::percentile(samples, pct);
    EXPECT_LE(std::abs(hs.quantile(pct / 100.0) - exact), (kRatio - 1.0) * exact * (1.0 + 1e-9))
        << "p" << pct;
  }
}

TEST(Histogram, QuantilesAreMonotoneOnTinySamples) {
  const std::vector<double> edges = obs::geometric_edges(1e-3, 1e5, 1.02);
  for (const std::vector<double>& xs :
       {std::vector<double>{3.0}, std::vector<double>{0.5, 40.0}, std::vector<double>{7, 7, 0.01}}) {
    obs::Histogram h(edges);
    for (const double x : xs) h.observe(x);
    const obs::HistogramSample hs = h.sample();
    const double p50 = hs.quantile(0.50), p95 = hs.quantile(0.95), p99 = hs.quantile(0.99),
                 max = hs.quantile(1.0);
    EXPECT_LE(p50, p95) << xs.size();
    EXPECT_LE(p95, p99) << xs.size();
    EXPECT_LE(p99, max) << xs.size();
    EXPECT_GT(p50, 0.0) << xs.size();
  }
  EXPECT_EQ(obs::Histogram(edges).sample().quantile(0.5), 0.0);  // empty
}

// --- trace ring ------------------------------------------------------

/// The trace ring is process-global state; every suite that touches it
/// restores "disabled, default capacity, empty" so suites compose in
/// one binary regardless of order.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
    trace::configure_capacity(1u << 16);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
    trace::configure_capacity(1u << 16);
  }
};

TEST_F(TraceTest, DisabledModeEmitsNothing) {
  ASSERT_FALSE(trace::enabled());
  {
    trace::Span s("noop", "test");
    trace::emit_complete("noop", "test", 0, 1);
    trace::emit_async("noop", "test", 'b', 1);
    trace::emit_instant("noop", "test");
  }
  EXPECT_EQ(trace::emitted(), 0u);
  EXPECT_EQ(trace::dropped(), 0u);
  EXPECT_TRUE(trace::drain_snapshot().empty());
}

TEST_F(TraceTest, WraparoundKeepsMostRecentAndCountsDrops) {
  trace::configure_capacity(8);
  EXPECT_EQ(trace::capacity(), 8u);
  trace::set_enabled(true);
  // Encode the emission index in ts_us so the survivors identify
  // themselves.
  for (std::int64_t i = 0; i < 20; ++i) trace::emit_complete("e", "test", i, 0);
  trace::set_enabled(false);

  EXPECT_EQ(trace::emitted(), 20u);
  EXPECT_EQ(trace::dropped(), 12u);
  const std::vector<trace::Event> events = trace::drain_snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first claim order of the surviving (most recent) window.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<std::int64_t>(12 + i));
  }

  // Resizing is only legal while disabled.
  trace::set_enabled(true);
  EXPECT_THROW(trace::configure_capacity(16), InvalidArgument);
  trace::set_enabled(false);
  EXPECT_THROW(trace::configure_capacity(0), InvalidArgument);
}

TEST_F(TraceTest, SpanCapturesDurationAndThread) {
  trace::set_enabled(true);
  {
    trace::Span s("outer", "test");
    std::this_thread::sleep_for(2ms);
  }
  trace::set_enabled(false);
  const auto events = trace::drain_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_GE(events[0].dur_us, 1'000);
  EXPECT_EQ(events[0].tid, trace::this_thread_id());
}

/// Minimal structural JSON check: balanced {} / [] outside string
/// literals, legal escapes, and no trailing garbage. Not a full parser,
/// but it catches the classic emitter bugs (unescaped quote, missing
/// comma-vs-brace confusion, truncated tail).
void expect_balanced_json(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ASSERT_LT(i + 1, s.size()) << "dangling escape";
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        ASSERT_FALSE(stack.empty()) << "unmatched close at " << i;
        ASSERT_EQ(stack.back(), c) << "mismatched close at " << i;
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(stack.empty()) << "unclosed scopes";
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  trace::set_enabled(true);
  { trace::Span s("scoped", "test"); }
  trace::emit_async("req", "test", 'b', 0xbeef);
  trace::emit_async("req", "test", 'e', 0xbeef);
  trace::emit_instant("mark", "test");
  trace::set_enabled(false);

  const std::string json = trace::chrome_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Async pairs share a hex id; instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0xbeef\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

// --- span/counter reconciliation over a served workload --------------

std::shared_ptr<const serve::RequestData> make_payload(Index L, Index d, std::uint64_t seed) {
  auto data = std::make_shared<serve::RequestData>();
  data->q = Matrix<float>(L, d);
  data->k = Matrix<float>(L, d);
  data->v = Matrix<float>(L, d);
  Rng rng(seed);
  fill_uniform(data->q, rng);
  fill_uniform(data->k, rng);
  fill_uniform(data->v, rng);
  return data;
}

/// The same served cell runs twice: untraced, to time a request, and
/// traced, where its spans must reconcile with the server's stats. The
/// two runs then price the disabled-tracing cost model in trace.hpp:
/// the span sites a request passes through, each at the cost of one
/// runtime-disabled site, must stay under 2% of its untraced time.
TEST_F(TraceTest, ServedWorkloadSpansReconcileWithServerStats) {
  const Index L = 128, d = 64;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.01, 7}));
  auto payload = make_payload(L, d, 17);
  constexpr Size kRequests = 256;

  struct Served {
    double wall_ns;
    serve::StatsSnapshot stats;
  };
  const auto serve_all = [&]() -> Served {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = kRequests;
    cfg.policy.max_batch = 8;
    cfg.policy.max_wait = 50us;
    serve::Server server(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::Response>> futures;
    for (Size i = 0; i < kRequests; ++i) {
      serve::Request r;
      r.data = payload;
      r.mask = mask;
      futures.push_back(server.submit(std::move(r)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    const double wall_ns = std::chrono::duration<double, std::nano>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    server.shutdown();
    return {wall_ns, server.stats()};
  };

  const double untraced_ns = serve_all().wall_ns;
  trace::set_enabled(true);
  const serve::StatsSnapshot stats = serve_all().stats;
  trace::set_enabled(false);
  ASSERT_EQ(trace::dropped(), 0u) << "ring too small for the workload";

  const std::vector<trace::Event> events = trace::drain_snapshot();
  Size begins = 0, ends = 0, dispatches = 0, items = 0;
  struct Interval {
    std::int64_t lo, hi;
  };
  std::vector<Interval> dispatch_windows;
  for (const trace::Event& e : events) {
    const std::string name = e.name;
    if (name == "serve.request") {
      (e.ph == 'b' ? begins : ends) += 1;
    } else if (name == "serve.dispatch") {
      ++dispatches;
      dispatch_windows.push_back({e.ts_us, e.ts_us + e.dur_us});
    } else if (name == "serve.item") {
      ++items;
    }
  }
  // Every request's async 'b' pairs exactly one 'e'; every request ran
  // as exactly one batch item.
  EXPECT_EQ(begins, kRequests);
  EXPECT_EQ(ends, kRequests);
  EXPECT_EQ(items, kRequests);

  // Spans and the server's stats describe the same run.
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed_ok, kRequests);
  EXPECT_EQ(stats.batches, dispatches);
  Size batch_items = 0;
  for (std::size_t b = 0; b < stats.occupancy.size(); ++b) batch_items += b * stats.occupancy[b];
  EXPECT_EQ(batch_items, items);

  // Nesting: every item interval sits inside some dispatch interval
  // (items run on pool threads, so containment is by timestamp, not
  // tid — the dispatch span closes only after its items finish).
  for (const trace::Event& e : events) {
    if (std::string(e.name) != "serve.item") continue;
    bool contained = false;
    for (const Interval& w : dispatch_windows) {
      if (e.ts_us >= w.lo && e.ts_us + e.dur_us <= w.hi) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "serve.item span outside every serve.dispatch window";
  }

  // Disabled-tracing guard. Time one runtime-disabled span site; the
  // empty asm keeps the compiler from hoisting the enabled-flag load
  // out of the loop.
  const double sites_per_request =
      static_cast<double>(trace::emitted()) / static_cast<double>(kRequests);
  constexpr int kSiteIters = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSiteIters; ++i) {
    trace::Span s("guard.disabled_site", "test");
    asm volatile("" ::: "memory");
  }
  const double site_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count() /
      kSiteIters;
  const double request_ns = untraced_ns / static_cast<double>(kRequests);
  const double disabled_pct = site_ns * sites_per_request / request_ns * 100.0;
  EXPECT_LT(disabled_pct, 2.0) << site_ns << " ns/site x " << sites_per_request
                               << " sites/request against " << request_ns
                               << " ns per untraced request";
}

/// Decode batches fold on the worker that dispatched them, even when
/// batch_policy asks for threads across items (it covers Pattern and
/// Attention batches only): every kvcache.decode_step span carries the
/// tid of the serve.dispatch span that contains it. Each batch holds 8
/// tokens of 8 distinct sessions, the case a cross-session fork would
/// spread over threads.
TEST_F(TraceTest, DecodeStepsFoldOnTheDispatchingThread) {
  const Index prompt = 12, d = 16;
  constexpr Index kSessions = 8;
  constexpr Size kBatches = 20;
  kvcache::SessionManager::Config mc;
  mc.pool.page_size = 4;
  mc.pool.head_dim = d;
  mc.pool.num_pages = 256;
  auto sessions = std::make_shared<kvcache::SessionManager>(mc);
  auto payload = make_payload(prompt, d, 23);
  Matrix<float> out;
  for (Index s = 1; s <= kSessions; ++s) {
    const auto id = static_cast<std::uint64_t>(s);
    sessions->create(id, kvcache::MaskSpec::make_local(LocalParams{4}));
    sessions->prefill(id, payload->q, payload->k, payload->v, out);
  }

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.policy.max_batch = kSessions;
  cfg.policy.max_wait = 10s;  // each batch closes when full, not on the window
  cfg.batch_policy = ExecPolicy{2, 1, Schedule::Dynamic};
  cfg.sessions = sessions;
  serve::Server server(cfg);
  Matrix<float> row(1, d);
  Rng rng(29);
  fill_uniform(row, rng);

  trace::set_enabled(true);
  for (Size b = 0; b < kBatches; ++b) {
    std::vector<std::future<serve::Response>> futures;
    for (Index s = 1; s <= kSessions; ++s) {
      futures.push_back(
          server.submit(serve::make_decode_request(static_cast<std::uint64_t>(s), row, row, row)));
    }
    for (auto& f : futures) {
      const serve::Response resp = f.get();
      ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
      ASSERT_EQ(resp.batch_size, kSessions);
    }
  }
  server.shutdown();  // joins the worker: the last serve.dispatch span closes before this
  trace::set_enabled(false);
  ASSERT_EQ(trace::dropped(), 0u) << "ring too small for the workload";

  const std::vector<trace::Event> events = trace::drain_snapshot();
  std::vector<const trace::Event*> dispatches;
  for (const trace::Event& e : events) {
    if (std::string(e.name) == "serve.dispatch") dispatches.push_back(&e);
  }
  ASSERT_EQ(dispatches.size(), kBatches);
  Size steps = 0;
  for (const trace::Event& e : events) {
    if (std::string(e.name) != "kvcache.decode_step") continue;
    ++steps;
    const trace::Event* owner = nullptr;
    for (const trace::Event* w : dispatches) {
      if (e.ts_us >= w->ts_us && e.ts_us + e.dur_us <= w->ts_us + w->dur_us) owner = w;
    }
    ASSERT_NE(owner, nullptr) << "kvcache.decode_step outside every serve.dispatch window";
    EXPECT_EQ(e.tid, owner->tid) << "decode step folded off the dispatching thread";
  }
  EXPECT_EQ(steps, kBatches * static_cast<Size>(kSessions));
}

// --- ServerStats torn-pair hammer (TSan coverage) --------------------

// The consistency contract under test (server_stats.hpp): while
// writers race, a snapshot never shows completed_ok without its latency
// or service samples, batches without the matching occupancy slot, or
// more outcomes than submissions. Run under TSan this also pins the
// lock-free recording as race-free.
TEST(ServerStatsHammer, SnapshotNeverObservesTornPairs) {
  serve::ServerStats stats(/*max_batch=*/4);
  constexpr int kWriters = 4;
  constexpr int kIters = 4'000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w] {
      for (int i = 0; i < kIters; ++i) {
        stats.record_submitted();
        if (i % 13 == 0) {
          stats.record_rejected(serve::ResponseStatus::RejectedQueueFull);
          continue;
        }
        const Index occupancy = 1 + (i + w) % 4;
        stats.record_batch(occupancy);
        stats.record_completion(/*total_us=*/100.0 + i, /*service_us=*/50.0 + i);
      }
    });
  }

  std::thread reader([&stats, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const serve::StatsSnapshot s = stats.snapshot();
      // Coupled pairs: each is read from one histogram's buckets.
      ASSERT_EQ(s.completed_ok, s.latency_ms.samples);
      // Service is recorded before latency and read after it, so it can
      // run ahead of completed_ok but never behind.
      ASSERT_GE(s.service_ms.samples, s.completed_ok);
      Size occupancy_total = 0;
      for (const Size n : s.occupancy) occupancy_total += n;
      ASSERT_EQ(occupancy_total, s.batches);
      // Funnel ordering: submissions are recorded before their outcome.
      ASSERT_GE(s.submitted, s.completed_ok + s.rejected_queue_full + s.rejected_deadline +
                                 s.rejected_shutdown + s.rejected_session);
    }
  });

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const serve::StatsSnapshot s = stats.snapshot();
  const Size expected_rejects = kWriters * ((kIters + 12) / 13);
  EXPECT_EQ(s.submitted, static_cast<Size>(kWriters) * kIters);
  EXPECT_EQ(s.rejected_queue_full, expected_rejects);
  EXPECT_EQ(s.completed_ok, static_cast<Size>(kWriters) * kIters - expected_rejects);
  EXPECT_EQ(s.batches, s.completed_ok);
  EXPECT_EQ(s.service_ms.samples, s.completed_ok);
}

}  // namespace
}  // namespace gpa

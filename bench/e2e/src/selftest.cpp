// --self-test: tests of the benchmark's own measuring code.

#include <algorithm>
#include <cmath>
#include <future>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>

#include "measure.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

int failures = 0;

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void expect(bool cond, const std::string& what) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << "\n";
  if (!cond) ++failures;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  const Quantile p99_of_1000 = quantile(one_to(1000), 99);
  expect(p99_of_1000.value == 990 && p99_of_1000.beyond == 10 && p99_of_1000.pct == 99,
         "p99 of 1000 samples is the 990th, with 10 beyond");
  const Quantile p99_of_100 = quantile(one_to(100), 99);
  expect(p99_of_100.value == 90 && p99_of_100.beyond == 10 && p99_of_100.pct == 90,
         "p99 of 100 samples is lowered to p90 so that 10 lie beyond");
  const Quantile p90_of_101 = quantile(one_to(101), 90);
  expect(p90_of_101.value == 91 && p90_of_101.beyond == 10,
         "p90 of 101 samples keeps its nearest rank (10 beyond)");
  expect(quantile(one_to(100), 50).value == 50, "p50 of 100 samples is the 50th");
  const Quantile tiny = quantile(one_to(5), 99);
  expect(tiny.value == 3 && tiny.pct == 60, "a tail of 5 samples falls back to the median");
  expect(quantile({}, 99).n == 0, "no samples, no percentile");
}

void open_loop_lateness() {
  // A stalled server: the first call blocks the generator for 30 ms,
  // every later one returns at once. Arrivals are due every 1 ms.
  tighten_timer_slack();
  constexpr int kArrivals = 40;
  OpenLoop loop(Clock::now() + std::chrono::milliseconds(1), 1000.0);
  std::vector<double> from_due, from_submit;
  for (int i = 0; i < kArrivals; ++i) {
    loop.wait_until_due(static_cast<std::uint64_t>(i));
    const Clock::time_point submit = Clock::now();
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const Clock::time_point done = Clock::now();
    from_due.push_back(ms_between(loop.due(static_cast<std::uint64_t>(i)), done));
    from_submit.push_back(ms_between(submit, done));
  }
  expect(from_due[1] >= 25.0, "latency from due charges the stall to the next request");
  expect(from_due[1] > from_due[10] && from_due[10] > from_due[20],
         "latency from due grows with how long before the stall ended a request was due");
  expect(*std::max_element(from_submit.begin() + 1, from_submit.end()) < 5.0,
         "latency from submit would hide the stall");
  expect(loop.backlog_max() >= 25, "the backlog counts arrivals due during the stall");
  expect(quantile(loop.late_ms(), 99).value >= 10.0, "generator lateness shows the stall");
}

void out_of_order_completion() {
  // A server that finishes the first request last: it takes 30 ms, every
  // later one 1 ms. Arrivals are due every 1 ms.
  ServingLoop loop;
  const auto submit = [](std::uint64_t i, ServingLoop::Sent& sent) {
    sent.key = i;
    const auto delay = std::chrono::milliseconds(i == 0 ? 30 : 1);
    sent.fut = std::async(std::launch::async, [delay] {
      std::this_thread::sleep_for(delay);
      return gpa::serve::Response{};
    });
    return true;
  };
  std::map<std::uint64_t, double> ms;
  const auto collect = [&](const ServingLoop::Sent& sent, gpa::serve::Response&,
                           Clock::time_point done) { ms[sent.key] = ms_between(sent.due, done); };
  const Phase p = loop.run(0.004, 1000.0, submit, collect);
  expect(p.attempted == 4 && ms.size() == 4 && p.latency_ms.size() == 4,
         "every submitted request is collected");
  expect(ms[0] >= 30.0, "the slow first request is timed to its own completion");
  expect(ms[1] < 10.0 && ms[2] < 10.0 && ms[3] < 10.0,
         "requests that finish before an older one are not charged its wait");

  ServingLoop failing;
  const auto submit_fails = [&](std::uint64_t i, ServingLoop::Sent& sent) {
    if (i == 2) throw std::runtime_error("submit failed");
    return submit(i, sent);
  };
  const Phase q = failing.run(0.01, 1000.0, submit_fails, collect);
  bool rethrown = false;
  try {
    failing.rethrow();
  } catch (const std::runtime_error&) {
    rethrown = true;
  }
  expect(q.attempted == 2 && rethrown, "a failure stops the arrivals and is rethrown");
}

void self_time_nesting() {
  const std::vector<SpanRec> spans = {
      {1, 0, 100, "bench.timed", "bench"},             // 100 - 30 - 10 - 10 = 50
      {1, 10, 30, "bench.core.call", "bench"},         // 30 - 10 = 20
      {1, 20, 10, "ring-fetch", "net.rpc"},            // grandchild: 10
      {1, 50, 10, "bench.serve.submit", "bench"},      // 10
      {1, 60, 10, "serve.item", "serve"},              // 10
      {2, 0, 50, "serve.dispatch", "serve"},           // 50 - 10 = 40
      {2, 10, 10, "kvcache.decode_step", "kvcache"},   // 10
      {3, 0, 10, "bench.net.ping", "bench"},           // overhung by its child: 10 - 5 = 5
      {3, 5, 15, "ping", "net.rpc"},                   // 15
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self == std::vector<std::int64_t>{50, 20, 10, 10, 10, 40, 10, 5, 15},
         "self time subtracts only what direct children cover");
  const LayerTable t = layer_table(spans, "bench.timed");
  expect(near(t.wall_ms, 0.1) && near(t.residual_ms, 0.0),
         "the benchmark rows sum to the timed wall");
  expect(near(t.bench_ms.at("bench"), 0.05) && near(t.bench_ms.at("core"), 0.02) &&
             near(t.bench_ms.at("net"), 0.01) && near(t.bench_ms.at("serve"), 0.02),
         "the benchmark rows are grouped by layer");
  expect(t.program_ms.size() == 3 && near(t.program_ms.at("serve"), 0.04) &&
             near(t.program_ms.at("kvcache"), 0.01) && near(t.program_ms.at("net"), 0.02),
         "threads without a root span are the program's");
}

void records() {
  Result r;
  r.attempted = 7;
  r.failed = 1;
  r.add("a_ms", 0.1, "ms", "p50 n=3 beyond=1");
  r.add("b", 2.0, "1/s");
  r.notes.push_back("line one\nline two");
  Result back;
  expect(deserialize(serialize(r), back) && back.attempted == 7 && back.failed == 1 &&
             back.metrics.size() == 2 && back.metrics[0].value == 0.1 &&
             back.metrics[0].note == "p50 n=3 beyond=1" && back.notes.size() == 2,
         "results survive the trip through the pipe with every digit");
  expect(to_json(true, 7, 1, r.metrics) ==
             "{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {\"a_ms\": "
             "{\"value\": 0.10000000000000001, \"unit\": \"ms\"}, \"b\": {\"value\": 2, "
             "\"unit\": \"1/s\"}}}",
         "the result line is JSON with every digit");
  expect(json_escape("a\"b\\c\n") == "a\\\"b\\\\c\\u000a", "JSON strings are escaped");
}

}  // namespace

int run_self_tests() {
  percentile_rule();
  open_loop_lateness();
  out_of_order_completion();
  self_time_nesting();
  records();
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e

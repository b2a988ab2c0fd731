#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <numeric>
#include <thread>

#include "obs/trace.hpp"

namespace e2e {

namespace {

void check_lateness(const Phase& p, Result& r) {
  const Quantile late = quantile(p.late_ms, 99.0);
  if (late.value > kMaxLateMsP99) {
    r.valid = false;
    char buf[128];
    std::snprintf(buf, sizeof buf, "INVALID: generator p99 lateness %.3f ms > %.1f ms",
                  late.value, kMaxLateMsP99);
    r.notes.emplace_back(buf);
  }
}

std::vector<SpanRec> drain_spans() {
  std::vector<SpanRec> spans;
  for (const auto& e : gpa::obs::trace::drain_snapshot()) {
    if (e.ph != 'X' || e.name == nullptr) continue;
    spans.push_back(SpanRec{e.tid, e.ts_us, e.dur_us, e.name, e.cat != nullptr ? e.cat : ""});
  }
  return spans;
}

}  // namespace

Result Workload::run() {
  Result r;
  if (cfg_.calibrate) {
    run_calibration(r);
    return r;
  }
  std::vector<double> setup_s;
  double spent = 0.0;
  while (setup_s.size() < kSetupReps ||
         (spent < kSetupSeconds && setup_s.size() < kMaxSetupReps)) {
    if (!setup_s.empty()) teardown();
    const Clock::time_point t0 = Clock::now();
    setup();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    spent += setup_s.back();
  }
  measure(cfg_.smoke ? cfg_.seconds / 10.0 : kWarmupSeconds, nullptr);  // discarded

  r.add("setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()));
  if (cfg_.trace) {
    run_traced(r);
  } else {
    run_timed(r);
  }
  check(r);
  teardown();
  r.nodes_maxrss_kb = extra_rss_kb();
  return r;
}

void Phase::append(const Phase& slice) {
  latency_ms.insert(latency_ms.end(), slice.latency_ms.begin(), slice.latency_ms.end());
  attempted += slice.attempted;
  failed += slice.failed;
  late_ms.insert(late_ms.end(), slice.late_ms.begin(), slice.late_ms.end());
  backlog_max = std::max(backlog_max, slice.backlog_max);
}

void Workload::run_timed(Result& r) {
  const auto slices = static_cast<int>(std::max(1.0, std::round(cfg_.seconds / kSliceSeconds)));
  Phase p;
  std::vector<double> probe_ms;
  for (int s = 0; s < slices; ++s) {
    p.append(measure(cfg_.seconds / slices, nullptr));
    std::this_thread::sleep_for(kProbeIdle);
    probe_ms.push_back(probe_.run_ms());
  }
  r.attempted = p.attempted;
  r.failed = p.failed;
  // Latencies in milliseconds at the reference host's speed.
  const Quantile probe = quantile(probe_ms, 50.0);
  const double speed = kProbeReferenceMs / probe.value;
  const Quantile mid = quantile(p.latency_ms, 50.0);
  const Quantile tail = quantile(p.latency_ms, tail_pct());
  r.add("adj_latency_ms_p50", mid.value * speed, "ms", describe(mid));
  r.add("adj_latency_ms_tail", tail.value * speed, "ms", describe(tail));

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "speed probe median %.3f ms (%s, range %.3f-%.3f): latencies scaled by %.4f",
                probe.value, describe(probe).c_str(),
                *std::min_element(probe_ms.begin(), probe_ms.end()),
                *std::max_element(probe_ms.begin(), probe_ms.end()), speed);
  r.notes.emplace_back(buf);
  std::string dist = "unscaled latency_ms";
  for (const double pct : {10.0, 50.0, tail_pct(), 99.0, 99.9, 100.0}) {
    std::snprintf(buf, sizeof buf, " p%g=%.4g", pct, quantile(p.latency_ms, pct).value);
    dist += buf;
  }
  r.notes.push_back(dist);
  check_lateness(p, r);
}

void Workload::run_traced(Result& r) {
  namespace trace = gpa::obs::trace;
  const Phase plain = measure(cfg_.seconds / 2, &r);
  const Quantile late = quantile(plain.late_ms, 99.0);
  r.add("loadgen.late_ms_p99", late.value, "ms", describe(late));
  r.add("loadgen.backlog_max", static_cast<double>(plain.backlog_max), "count");

  trace::configure_capacity(std::size_t{1} << 20);
  trace::reset();
  trace::set_enabled(true);
  const Phase traced = measure(cfg_.seconds / 2, nullptr);
  trace::set_enabled(false);

  const std::string path = cfg_.trace_dir + "/" + name() + ".trace.json";
  std::filesystem::create_directories(cfg_.trace_dir);
  if (!trace::write_chrome_json(path)) r.notes.push_back("could not write " + path);
  const LayerTable table = layer_table(drain_spans(), kRootSpan);
  r.notes.push_back("trace: " + path + " (" + std::to_string(trace::emitted()) + " events, " +
                    std::to_string(trace::dropped()) + " dropped)");
  r.notes.push_back(format_table(table));

  const double untraced_p50 = median(plain.latency_ms);
  r.add("obs.trace_overhead_pct",
        untraced_p50 > 0 ? 100.0 * (median(traced.latency_ms) / untraced_p50 - 1.0) : 0.0, "%",
        "unscaled p50 latency, traced vs untraced");
  r.add("obs.trace_residual_pct",
        table.wall_ms > 0 ? 100.0 * table.residual_ms / table.wall_ms : 0.0, "%");

  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;
  check_lateness(plain, r);
  check_lateness(traced, r);
}

bool ServeSamples::record(const gpa::serve::Response& resp) {
  if (resp.status != gpa::serve::ResponseStatus::Ok) {
    std::string name(gpa::serve::status_name(resp.status));
    if (name.rfind("rejected-", 0) == 0) name = name.substr(9);
    std::replace(name.begin(), name.end(), '-', '_');
    ++rejected[name];
    return false;
  }
  queue_ms.push_back(resp.queue_us / 1e3);
  service_ms.push_back(resp.service_us / 1e3);
  batch.push_back(static_cast<double>(resp.batch_size));
  return true;
}

void ServeSamples::report(Result& r) const {
  r.add_quantiles("serve.queue_ms", queue_ms, 99.0, "p99", "ms");
  r.add_quantiles("serve.service_ms", service_ms, 99.0, "p99", "ms");
  r.add("serve.batch_size_mean", mean(batch), "count");
  for (const auto& [status, count] : rejected) {
    r.add("serve.rejected." + status, static_cast<double>(count), "count");
  }
}

Phase ServingLoop::run(double seconds, double rate, const Submit& submit,
                       const Collect& collect) {
  namespace trace = gpa::obs::trace;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Sent> submitted;  ///< not yet taken by the collector
  bool generator_done = false;
  Phase p;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  OpenLoop loop(start, rate);

  std::thread collector([&] {
    try {
      tighten_timer_slack();
      trace::Span root(kRootSpan, "bench");
      std::deque<Sent> outstanding;  ///< oldest first
      std::vector<std::pair<Sent, Clock::time_point>> seen;
      for (;;) {
        {
          std::unique_lock<std::mutex> lk(mu);
          if (outstanding.empty()) {
            cv.wait(lk, [&] { return !submitted.empty() || generator_done; });
          }
          for (Sent& s : submitted) outstanding.push_back(std::move(s));
          submitted.clear();
          if (outstanding.empty()) break;
        }
        {
          // Wakes as soon as the oldest completes, and every kCollectPoll
          // to look for younger ones that finished first.
          trace::Span sp("bench.serve.wait", "bench");
          outstanding.front().fut.wait_for(kCollectPoll);
        }
        for (auto it = outstanding.begin(); it != outstanding.end();) {
          if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            seen.emplace_back(std::move(*it), Clock::now());
            it = outstanding.erase(it);
          } else {
            ++it;
          }
        }
        for (auto& [s, done] : seen) {
          gpa::serve::Response resp = s.fut.get();
          p.latency_ms.push_back(ms_between(s.due, done));
          if (!samples.record(resp)) ++p.failed;
          collect(s, resp, done);
        }
        seen.clear();
      }
    } catch (...) {
      fail(std::current_exception());  // the generator stops at its next arrival
    }
  });

  try {
    tighten_timer_slack();
    trace::Span root(kRootSpan, "bench");
    for (std::uint64_t i = 0; loop.due(i) < end && !failed(); ++i) {
      loop.wait_until_due(i);
      Sent s;
      s.due = loop.due(i);
      if (!submit(i, s)) break;
      ++p.attempted;
      {
        std::lock_guard<std::mutex> lk(mu);
        submitted.push_back(std::move(s));
      }
      cv.notify_one();
    }
  } catch (...) {
    fail(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  p.late_ms = loop.late_ms();
  p.backlog_max = loop.backlog_max();
  return p;
}

void ServingLoop::fail(std::exception_ptr e) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!failure_) failure_ = std::move(e);
  failed_.store(true);
}

void ServingLoop::rethrow() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (failure_) std::rethrow_exception(failure_);
}

gpa::kvcache::MaskSpec local_global_spec(gpa::Index reach, gpa::Index global,
                                         gpa::Index max_len) {
  std::vector<gpa::Index> tokens(static_cast<std::size_t>(global));
  std::iota(tokens.begin(), tokens.end(), gpa::Index{0});
  const gpa::LocalParams local{reach + 1};
  return gpa::kvcache::MaskSpec::compose(
      {gpa::MaskTraversal::local(local),
       gpa::MaskTraversal::global(
           gpa::GlobalMinusLocalParams{gpa::make_global(tokens, max_len), local})});
}

void Workload::run_calibration(Result& r) {
  if (fixed_rate() <= 0) {
    r.notes.emplace_back("closed loop: no arrival rate to calibrate");
    return;
  }
  setup();
  // Geometric sweep from a quarter of the current rate. The knee is the
  // highest rate whose latency from due stays within 2x the low-load p50
  // and 10x the low-load p99 while the generator keeps its schedule.
  const double start = rate() / 4;
  double base_p50 = 0.0;
  double base_p99 = 0.0;
  double knee = 0.0;
  for (double rt = start; rt < start * 200; rt *= 1.25) {
    cfg_.rate = rt;
    const Phase p = measure(cfg_.seconds, nullptr);
    const double p50 = quantile(p.latency_ms, 50).value;
    const double p99 = quantile(p.latency_ms, 99).value;
    const double late = quantile(p.late_ms, 99).value;
    if (base_p99 == 0.0) {
      base_p50 = p50;
      base_p99 = p99;
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "rate %10.1f /s  p50 %9.3f ms  p99 %9.3f ms  late_p99 %7.3f ms  backlog %llu",
                  rt, p50, p99, late, static_cast<unsigned long long>(p.backlog_max));
    r.notes.emplace_back(buf);
    if (p50 > 2 * base_p50 || p99 > 10 * base_p99 || late > kMaxLateMsP99 || p.failed > 0) {
      break;
    }
    knee = rt;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "knee %.1f /s; 60%% of knee = %.1f /s", knee, 0.6 * knee);
  r.notes.emplace_back(buf);
  teardown();
}

}  // namespace e2e

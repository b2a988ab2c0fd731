#include "measure.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <thread>

namespace e2e {

Quantile quantile(std::vector<double> samples, double pct) {
  Quantile q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t want = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n))), 1, n);
  std::size_t rank = want;
  if (n - rank < kMinBeyond) rank = n > kMinBeyond ? n - kMinBeyond : 1;
  // The rule bounds tails only: a median stays the median however few
  // samples there are.
  rank = std::max(rank, std::min(want, (n + 1) / 2));
  q.value = samples[rank - 1];
  q.beyond = n - rank;
  q.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return q;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 50.0).value; }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------

void Result::add(std::string name, double value, std::string unit, std::string note) {
  metrics.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit),
                           std::move(note)});
}

std::string describe(const Quantile& q) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%.4g n=%zu beyond=%zu", q.pct, q.n, q.beyond);
  return buf;
}

void Result::add_quantiles(const std::string& base, const std::vector<double>& samples,
                           double tail_pct, const std::string& tail_suffix,
                           const std::string& unit) {
  const Quantile mid = quantile(samples, 50.0);
  const Quantile tail = quantile(samples, tail_pct);
  add(base + "_p50", mid.value, unit, describe(mid));
  add(base + "_" + tail_suffix, tail.value, unit, describe(tail));
}

void Result::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

std::string serialize(const Result& r) {
  std::ostringstream os;
  os << "C " << (r.correct ? 1 : 0) << "\nV " << (r.valid ? 1 : 0) << "\nA " << r.attempted
     << "\nF " << r.failed << "\nS " << r.self_maxrss_kb << "\nR " << r.nodes_maxrss_kb
     << "\n";
  char buf[64];
  for (const Metric& m : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    os << "M " << m.name << " " << buf << " " << m.unit << " " << m.note << "\n";
  }
  for (const std::string& n : r.notes) {
    std::istringstream lines(n);
    for (std::string line; std::getline(lines, line);) os << "N " << line << "\n";
  }
  return os.str();
}

bool deserialize(const std::string& text, Result& r) {
  std::istringstream is(text);
  bool saw_correct = false;
  for (std::string line; std::getline(is, line);) {
    if (line.size() < 2) continue;
    const std::string body = line.substr(2);
    std::istringstream ls(body);
    switch (line[0]) {
      case 'C': r.correct = body == "1"; saw_correct = true; break;
      case 'V': r.valid = body == "1"; break;
      case 'A': ls >> r.attempted; break;
      case 'F': ls >> r.failed; break;
      case 'S': ls >> r.self_maxrss_kb; break;
      case 'R': ls >> r.nodes_maxrss_kb; break;
      case 'M': {
        Metric m;
        ls >> m.name >> m.value >> m.unit;
        std::getline(ls >> std::ws, m.note);
        r.metrics.push_back(std::move(m));
        break;
      }
      case 'N': r.notes.push_back(body); break;
      default: return false;
    }
  }
  return saw_correct;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string to_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                    const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (i ? ", " : "") << "\"" << json_escape(m.name) << "\": {\"value\": " << buf
       << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------

OpenLoop::OpenLoop(Clock::time_point start, double rate_hz)
    : start_(start), interval_s_(1.0 / rate_hz) {}

Clock::time_point OpenLoop::due(std::uint64_t i) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) * interval_s_));
}

void OpenLoop::wait_until_due(std::uint64_t i) {
  const Clock::time_point d = due(i);
  std::this_thread::sleep_until(d);
  const Clock::time_point now = Clock::now();
  late_ms_.push_back(ms_between(d, now));
  const double elapsed_s = std::chrono::duration<double>(now - start_).count();
  const auto due_by_now = static_cast<std::uint64_t>(elapsed_s / interval_s_);
  if (due_by_now > i) backlog_max_ = std::max(backlog_max_, due_by_now - i);
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

// ---------------------------------------------------------------------

std::vector<std::int64_t> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRec& x = spans[a];
    const SpanRec& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;  // a parent opens before a child starting with it
  });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t s : order) {
    const SpanRec& sp = spans[s];
    if (open.empty() || sp.tid != tid) {
      open.clear();
      tid = sp.tid;
    }
    const auto end_of = [&](std::size_t k) { return spans[k].ts_us + spans[k].dur_us; };
    while (!open.empty() && end_of(open.back()) <= sp.ts_us) open.pop_back();
    if (!open.empty()) {
      // Only the part of the child inside its parent is the parent's
      // non-self time (a child that outlives its parent is malformed,
      // and the excess shows up as residual, not as negative self time).
      self[open.back()] -= std::min(end_of(open.back()), end_of(s)) - sp.ts_us;
    }
    open.push_back(s);
  }
  return self;
}

std::string layer_of(const SpanRec& span) {
  if (span.cat != "bench") return span.cat.substr(0, span.cat.find('.'));
  const std::size_t first = span.name.find('.');
  const std::size_t second = span.name.find('.', first + 1);
  if (first == std::string::npos || second == std::string::npos) return "bench";
  return span.name.substr(first + 1, second - first - 1);
}

LayerTable layer_table(const std::vector<SpanRec>& spans, const std::string& root) {
  LayerTable t;
  std::vector<std::uint32_t> bench_tids;
  for (const SpanRec& s : spans) {
    if (s.name == root) {
      bench_tids.push_back(s.tid);
      t.wall_ms += static_cast<double>(s.dur_us) / 1e3;
    }
  }
  const std::vector<std::int64_t> self = self_times(spans);
  double bench_sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(self[i]) / 1e3;
    const bool ours =
        std::find(bench_tids.begin(), bench_tids.end(), spans[i].tid) != bench_tids.end();
    (ours ? t.bench_ms : t.program_ms)[layer_of(spans[i])] += ms;
    if (ours) bench_sum += ms;
  }
  t.residual_ms = t.wall_ms - bench_sum;
  return t;
}

std::string format_table(const LayerTable& t) {
  std::ostringstream os;
  char buf[160];
  os << "self time on the benchmark's threads (rows sum to the timed wall):\n";
  for (const auto& [layer, ms] : t.bench_ms) {
    std::snprintf(buf, sizeof buf, "  %-10s %12.3f ms  %6.2f%%\n", layer.c_str(), ms,
                  t.wall_ms > 0 ? 100.0 * ms / t.wall_ms : 0.0);
    os << buf;
  }
  std::snprintf(buf, sizeof buf, "  %-10s %12.3f ms\n  %-10s %12.3f ms  %6.2f%%\n", "wall",
                t.wall_ms, "residual", t.residual_ms,
                t.wall_ms > 0 ? 100.0 * t.residual_ms / t.wall_ms : 0.0);
  os << buf;
  if (!t.program_ms.empty()) {
    os << "self time on the program's own threads (busy time, not part of the wall):\n";
    for (const auto& [layer, ms] : t.program_ms) {
      std::snprintf(buf, sizeof buf, "  %-10s %12.3f ms\n", layer.c_str(), ms);
      os << buf;
    }
  }
  return os.str();
}

long self_maxrss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace e2e

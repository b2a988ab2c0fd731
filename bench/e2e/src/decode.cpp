// decode-stream: open-loop decode tokens at a fixed rate over a fixed
// population of live sessions. Each prompt is a shared prefix plus a
// unique suffix; a session lives a fixed number of tokens, then a second
// generator thread releases it and prefills its replacement while decode
// traffic continues. Per-token kernel work is microseconds, so serve
// overhead and kvcache page append / prefix dedup dominate.
//
// Threads: the generator (the calling thread) and the collector mostly
// sleep; the prefill thread runs each prefill serially; the server's one
// worker decodes across sessions on two threads. Busy threads therefore
// stay within nproc = 4, and prefills never oversubscribe the cores the
// decode batches run on.

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "kvcache/session_manager.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using namespace gpa;
namespace trace = gpa::obs::trace;

struct Sizes {
  int sessions;
  Index prefix, suffix, lifetime, page, dim, reach, global;
  int suffix_pool, payloads;
  double rate;  ///< tokens per second
};
// The rate is fixed, not re-derived per run: set with --calibrate at
// about 60% of the knee on a 4-vCPU x86-64 host (see README).
constexpr Sizes kFull{64, 1024, 256, 256, 16, 64, 128, 8, 16, 4096, 9000.0};
constexpr Sizes kSmoke{8, 64, 16, 16, 16, 32, 8, 2, 4, 256, 400.0};
constexpr int kDecodeThreads = 2;
constexpr std::uint64_t kCheckEvery = 16;  ///< every 16th session is checked
constexpr int kPrefillRowsChecked = 8;

struct Slot {
  std::uint64_t instance = 0;
  Index tokens = 0;    ///< decoded so far
  Index lifetime = 0;  ///< tokens this session lives
  bool live = false;
  bool in_flight = false;
};

/// Everything recorded for a checked session.
struct Checked {
  std::vector<Index> prefill_rows;
  std::vector<float> prefill_out;  ///< prefill_rows × dim
  std::vector<std::uint32_t> payloads;
  std::vector<float> token_out;    ///< payloads × dim
};

class Decode final : public Workload {
 public:
  explicit Decode(const RunConfig& cfg) : Workload(cfg), s_(cfg.smoke ? kSmoke : kFull) {
    Rng rng(cfg.seed);
    const auto random = [&](Index rows) {
      Matrix<float> m(rows, s_.dim);
      fill_uniform(m, rng);
      return m;
    };
    prefix_q_ = random(s_.prefix);
    prefix_k_ = random(s_.prefix);
    prefix_v_ = random(s_.prefix);
    for (int i = 0; i < s_.suffix_pool; ++i) {
      suffix_q_.push_back(random(s_.suffix));
      suffix_k_.push_back(random(s_.suffix));
      suffix_v_.push_back(random(s_.suffix));
    }
    for (int i = 0; i < s_.payloads; ++i) {
      auto d = std::make_shared<serve::RequestData>();
      d->q = random(1);
      d->k = random(1);
      d->v = random(1);
      payloads_.push_back(std::move(d));
    }
    spec_ = local_global_spec(s_.reach, s_.global, s_.prefix + s_.suffix + s_.lifetime);
  }

  const char* name() const override { return "decode-stream"; }

 protected:
  double tail_pct() const override { return 95.0; }
  double fixed_rate() const override { return s_.rate; }

  Index prompt_len() const { return s_.prefix + s_.suffix; }

  void setup() override {
    kvcache::SessionManager::Config mc;
    mc.pool.page_size = s_.page;
    mc.pool.head_dim = s_.dim;
    // Every live session at full length, with the shared prefix stored
    // once, plus 30% for the prompt cache. Orphaned suffix pages fill that
    // slack within the warm-up, so runs measure the steady state: a full
    // cache that reclaims orphans as sessions are replaced.
    const Index own_pages = (s_.suffix + s_.lifetime) / s_.page + 1;
    mc.pool.num_pages = ((s_.sessions + 1) * own_pages + s_.prefix / s_.page) * 13 / 10;
    mc.opts.policy = ExecPolicy::serial();
    mgr_ = std::make_shared<kvcache::SessionManager>(mc);
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.batch_policy = ExecPolicy{kDecodeThreads, 1, Schedule::Dynamic};
    sc.sessions = mgr_;
    server_ = std::make_unique<serve::Server>(sc);
    slots_.assign(static_cast<std::size_t>(s_.sessions), Slot{});
    Matrix<float> q, k, v;
    for (int i = 0; i < s_.sessions; ++i) {
      assemble(next_instance_, q, k, v);
      start_session(i, q, k, v);
      // Stagger ages so replacements spread over time instead of
      // arriving all at once.
      slots_[static_cast<std::size_t>(i)].lifetime = s_.lifetime - i * s_.lifetime / s_.sessions;
    }
  }

  void teardown() override {
    server_.reset();
    mgr_.reset();
  }

  Phase measure(double seconds, Result* layers) override;
  void check(Result& r) override;

 private:
  /// Prompt of session `instance`: the shared prefix, then a suffix from
  /// the pool whose first K row in every page is made unique to the
  /// instance, so no suffix page is ever a prefix-cache hit.
  void assemble(std::uint64_t instance, Matrix<float>& q, Matrix<float>& k,
                Matrix<float>& v) const {
    const auto& sq = suffix_q_[instance % suffix_q_.size()];
    const auto& sk = suffix_k_[instance % suffix_k_.size()];
    const auto& sv = suffix_v_[instance % suffix_v_.size()];
    q = Matrix<float>(prompt_len(), s_.dim);
    k = Matrix<float>(prompt_len(), s_.dim);
    v = Matrix<float>(prompt_len(), s_.dim);
    const auto bytes = [&](Index rows) { return static_cast<std::size_t>(rows * s_.dim) * 4; };
    std::memcpy(q.data(), prefix_q_.data(), bytes(s_.prefix));
    std::memcpy(k.data(), prefix_k_.data(), bytes(s_.prefix));
    std::memcpy(v.data(), prefix_v_.data(), bytes(s_.prefix));
    std::memcpy(q.row(s_.prefix), sq.data(), bytes(s_.suffix));
    std::memcpy(k.row(s_.prefix), sk.data(), bytes(s_.suffix));
    std::memcpy(v.row(s_.prefix), sv.data(), bytes(s_.suffix));
    for (Index r = s_.prefix; r < prompt_len(); r += s_.page) {
      float& x = k(r, 0);
      x = static_cast<float>(
          std::fmod(x + 0.6180339887498949 * static_cast<double>(instance + 1), 1.0));
    }
  }

  /// Creates + prefills session `instance` (= next_instance_) into `slot`.
  void start_session(int slot, const Matrix<float>& q, const Matrix<float>& k,
                     const Matrix<float>& v) {
    const std::uint64_t instance = next_instance_++;
    Matrix<float> out;
    {
      trace::Span sp("bench.kvcache.create", "bench");
      mgr_->create(instance + 1, spec_);
    }
    {
      trace::Span sp("bench.kvcache.prefill", "bench");
      mgr_->prefill(instance + 1, q, k, v, out);
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (instance % kCheckEvery == 0) {
      Checked& c = checked_[instance];
      Rng rng(instance);
      c.prefill_rows = {0, s_.global, prompt_len() - 1};
      while (static_cast<int>(c.prefill_rows.size()) < kPrefillRowsChecked) {
        c.prefill_rows.push_back(rng.next_index(0, prompt_len()));
      }
      for (const Index r : c.prefill_rows) {
        c.prefill_out.insert(c.prefill_out.end(), out.row(r), out.row(r) + s_.dim);
      }
    }
    slots_[static_cast<std::size_t>(slot)] = Slot{instance, 0, s_.lifetime, true, false};
  }

  Sizes s_;
  Matrix<float> prefix_q_, prefix_k_, prefix_v_;
  std::vector<Matrix<float>> suffix_q_, suffix_k_, suffix_v_;
  std::vector<std::shared_ptr<const serve::RequestData>> payloads_;
  kvcache::MaskSpec spec_;

  std::shared_ptr<kvcache::SessionManager> mgr_;
  std::unique_ptr<serve::Server> server_;
  std::uint64_t next_instance_ = 0;
  std::uint64_t next_payload_ = 0;

  std::mutex mu_;  ///< guards slots_ and checked_ while a phase runs
  std::vector<Slot> slots_;
  std::map<std::uint64_t, Checked> checked_;
};

Phase Decode::measure(double seconds, Result* layers) {
  struct Job {
    int slot = 0;
    Clock::time_point due;  ///< when the session's replacement was wanted
  };
  ServingLoop loop;
  std::condition_variable cv;
  std::deque<Job> jobs;
  bool phase_over = false;  ///< the collector has stopped: no more jobs come
  std::vector<double> ttft_ms, prefill_ms;
  const kvcache::SessionManager::Stats before = mgr_->stats();
  Index pages_max = before.pages_in_use;

  std::thread prefiller([&] {
    try {
      tighten_timer_slack();
      trace::Span root(kRootSpan, "bench");
      Matrix<float> q, k, v;
      assemble(next_instance_, q, k, v);  // the next prompt is ready before it is due
      for (;;) {
        Job job;
        std::uint64_t old = 0;
        {
          std::unique_lock<std::mutex> lk(mu_);
          cv.wait(lk, [&] { return !jobs.empty() || phase_over; });
          if (jobs.empty()) break;
          job = jobs.front();
          jobs.pop_front();
          old = slots_[static_cast<std::size_t>(job.slot)].instance;
        }
        {
          trace::Span sp("bench.kvcache.release", "bench");
          mgr_->release(old + 1);
        }
        const Clock::time_point t0 = Clock::now();
        start_session(job.slot, q, k, v);
        const Clock::time_point t1 = Clock::now();
        prefill_ms.push_back(ms_between(t0, t1));
        ttft_ms.push_back(ms_between(job.due, t1));
        pages_max = std::max(pages_max, mgr_->stats().pages_in_use);
        cv.notify_all();
        assemble(next_instance_, q, k, v);
      }
    } catch (...) {
      // Stop here: the generator sees the failure and ends the phase.
      loop.fail(std::current_exception());
    }
  });
  const auto stop_prefiller = [&] {
    {
      std::lock_guard<std::mutex> lk(mu_);
      phase_over = true;
    }
    cv.notify_all();
    prefiller.join();
  };

  std::size_t cursor = 0;
  const auto submit = [&](std::uint64_t, ServingLoop::Sent& sent) {
    std::uint64_t session = 0;
    {
      // An arrival goes to the next session with no token in flight, so
      // each session's tokens stay in order.
      const std::size_t n = slots_.size();
      const auto free_slot = [&] {
        for (std::size_t off = 0; off < n; ++off) {
          const Slot& s = slots_[(cursor + off) % n];
          if (s.live && !s.in_flight) {
            sent.key = (cursor + off) % n;
            return true;
          }
        }
        return false;
      };
      std::unique_lock<std::mutex> lk(mu_);
      // Rechecks the phase's failure flag every 10 ms, so a failure on any
      // thread ends the wait even if it leaves no session free.
      while (!cv.wait_for(lk, std::chrono::milliseconds(10), free_slot)) {
        if (loop.failed()) return false;
      }
      Slot& s = slots_[sent.key];
      s.in_flight = true;
      session = s.instance + 1;
      cursor = sent.key + 1;
    }
    sent.payload = static_cast<std::uint32_t>(next_payload_++ % payloads_.size());
    serve::Request r;
    r.kind = serve::RequestKind::Decode;
    r.session_id = session;
    r.data = payloads_[sent.payload];
    trace::Span sp("bench.serve.submit", "bench");
    sent.fut = server_->submit(std::move(r));
    return true;
  };
  const auto collect = [&](const ServingLoop::Sent& sent, serve::Response& resp,
                           Clock::time_point done) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      Slot& s = slots_[sent.key];
      s.in_flight = false;
      ++s.tokens;
      const auto it = checked_.find(s.instance);
      if (resp.status == serve::ResponseStatus::Ok && it != checked_.end()) {
        it->second.payloads.push_back(sent.payload);
        it->second.token_out.insert(it->second.token_out.end(), resp.output.row(0),
                                    resp.output.row(0) + s_.dim);
      }
      if (s.tokens >= s.lifetime) {
        s.live = false;
        jobs.push_back(Job{static_cast<int>(sent.key), done});
      }
    }
    cv.notify_all();
  };

  Phase p;
  try {
    p = loop.run(seconds, rate(), submit, collect);
  } catch (...) {
    stop_prefiller();
    throw;
  }
  stop_prefiller();
  loop.rethrow();

  if (layers != nullptr) {
    Result& r = *layers;
    const kvcache::SessionManager::Stats after = mgr_->stats();
    r.notes.push_back("pages in use when timing started: " + std::to_string(before.pages_in_use) +
                      " of " + std::to_string(mgr_->pool().num_pages()));
    loop.samples.report(r);
    r.add_quantiles("kvcache.prefill_ms", prefill_ms, 99.0, "p99", "ms");
    r.add_quantiles("loadgen.ttft_ms", ttft_ms, 99.0, "p99", "ms");
    const double lookups = static_cast<double>(after.prefix_lookups - before.prefix_lookups);
    r.add("kvcache.prefix_hit_ratio",
          lookups > 0 ? static_cast<double>(after.prefix_hits - before.prefix_hits) / lookups : 0.0,
          "ratio");
    r.add("kvcache.pages_in_use_max", static_cast<double>(pages_max), "count");
    r.add("kvcache.pool_pages", static_cast<double>(mgr_->pool().num_pages()), "count");
    r.add("kvcache.evictions", static_cast<double>(after.evictions - before.evictions), "count");
    const double steps = static_cast<double>(after.decode_steps - before.decode_steps);
    r.add("kvcache.decode_edges_per_token",
          steps > 0 ? static_cast<double>(after.decode_edges - before.decode_edges) / steps : 0.0,
          "count");
  }
  return p;
}

void Decode::check(Result& r) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(s_.dim));
  const Index P = prompt_len();
  double worst = 0.0;
  std::size_t rows = 0;
  for (const auto& [instance, c] : checked_) {
    Matrix<float> q, k, v;
    assemble(instance, q, k, v);
    const auto krow = [&](Index j) {
      return j < P ? k.row(j) : payloads_[c.payloads[static_cast<std::size_t>(j - P)]]->k.row(0);
    };
    const auto vrow = [&](Index j) {
      return j < P ? v.row(j) : payloads_[c.payloads[static_cast<std::size_t>(j - P)]]->v.row(0);
    };
    for (std::size_t x = 0; x < c.prefill_rows.size(); ++x) {
      const Index i = c.prefill_rows[x];
      const auto want = reference_row(q.row(i), s_.dim,
                                      local_global_cols(i, P, s_.reach, s_.global, true), scale,
                                      krow, vrow);
      const float* got = &c.prefill_out[x * static_cast<std::size_t>(s_.dim)];
      worst = std::max(worst, row_error(got, want));
      ++rows;
    }
    for (std::size_t t = 0; t < c.payloads.size(); ++t) {
      const Index pos = P + static_cast<Index>(t);
      const auto want = reference_row(payloads_[c.payloads[t]]->q.row(0), s_.dim,
                                      local_global_cols(pos, pos + 1, s_.reach, s_.global, true),
                                      scale, krow, vrow);
      const float* got = &c.token_out[t * static_cast<std::size_t>(s_.dim)];
      worst = std::max(worst, row_error(got, want));
      ++rows;
    }
  }
  if (rows == 0) r.fail_check("no decode-stream session was checked");
  if (!(worst <= kTolerance)) {
    r.fail_check("decode rows differ from the reference by " + std::to_string(worst));
  }
  r.notes.push_back("checked " + std::to_string(rows) + " rows of " +
                    std::to_string(checked_.size()) + " sessions");
}

}  // namespace

std::unique_ptr<Workload> make_decode(const RunConfig& cfg) {
  return std::make_unique<Decode>(cfg);
}

}  // namespace e2e

// pattern-serve: open-loop one-shot causal Pattern requests at a fixed
// rate, lengths log-uniform with no shared prefixes, admitted into seq_len
// buckets and coalesced up to max_batch. Stateless and compute-heavy:
// coalescing matters and long requests delay short ones.
//
// Threads on the benchmark side: the generator (the calling thread) and
// the collector. The server runs one worker whose dispatches use every
// core (across items, or inside a lone item).

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
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
  Index min_len, max_len, dim, reach, global;
  int lengths;  ///< distinct request payloads, log-spaced over [min_len, max_len]
  std::vector<Index> buckets;
  double rate;  ///< requests per second
};
// The rate is fixed, not re-derived per run: set with --calibrate at
// about 60% of the knee on a 4-vCPU x86-64 host (see README).
const Sizes kFull{128, 4096, 64, 128, 8, 32, {256, 512, 1024, 2048, 4096}, 230.0};
const Sizes kSmoke{16, 256, 32, 8, 2, 8, {32, 64, 128, 256}, 200.0};
constexpr std::uint64_t kCheckEvery = 16;  ///< every 16th response is checked
constexpr std::size_t kMaxChecked = 48;
constexpr int kRowsChecked = 4;
constexpr std::size_t kArrivalChoices = std::size_t{1} << 16;

struct Stored {
  std::uint32_t payload = 0;
  Matrix<float> out;
};

class Pattern final : public Workload {
 public:
  explicit Pattern(const RunConfig& cfg) : Workload(cfg), s_(cfg.smoke ? kSmoke : kFull) {
    Rng rng(cfg.seed);
    for (int i = 0; i < s_.lengths; ++i) {
      const double f = static_cast<double>(i) / static_cast<double>(s_.lengths - 1);
      const auto len = static_cast<Index>(std::lround(
          static_cast<double>(s_.min_len) *
          std::pow(static_cast<double>(s_.max_len) / static_cast<double>(s_.min_len), f)));
      auto d = std::make_shared<serve::RequestData>();
      d->q = Matrix<float>(len, s_.dim);
      d->k = Matrix<float>(len, s_.dim);
      d->v = Matrix<float>(len, s_.dim);
      fill_uniform(d->q, rng);
      fill_uniform(d->k, rng);
      fill_uniform(d->v, rng);
      payloads_.push_back(std::move(d));
    }
    // Log-uniform lengths, stratified: every block of `lengths` arrivals
    // is a shuffle of all the lengths, so runs on different seeds offer
    // the same mix in a different order.
    std::vector<std::uint32_t> block(payloads_.size());
    std::iota(block.begin(), block.end(), 0u);
    while (choice_.size() < kArrivalChoices) {
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.next_below(i + 1)]);
      }
      choice_.insert(choice_.end(), block.begin(), block.end());
    }
  }

  const char* name() const override { return "pattern-serve"; }

 protected:
  double tail_pct() const override { return 95.0; }
  double fixed_rate() const override { return s_.rate; }

  void setup() override {
    spec_ = std::make_shared<const kvcache::MaskSpec>(
        local_global_spec(s_.reach, s_.global, s_.max_len));
    serve::ServerConfig sc;
    sc.workers = 1;
    sc.policy.max_batch = 8;
    sc.policy.seq_buckets = s_.buckets;
    sc.item_policy = ExecPolicy::auto_tuned();  // a lone long request still uses every core
    server_ = std::make_unique<serve::Server>(sc);
  }

  void teardown() override { server_.reset(); }

  Phase measure(double seconds, Result* layers) override;
  void check(Result& r) override;

 private:
  Sizes s_;
  std::vector<std::shared_ptr<const serve::RequestData>> payloads_;
  std::vector<std::uint32_t> choice_;
  std::uint64_t next_arrival_ = 0;

  std::shared_ptr<const kvcache::MaskSpec> spec_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Stored> stored_;
};

Phase Pattern::measure(double seconds, Result* layers) {
  ServingLoop loop;
  const auto submit = [&](std::uint64_t, ServingLoop::Sent& sent) {
    sent.key = next_arrival_++;
    sent.payload = choice_[sent.key % choice_.size()];
    serve::Request r;
    r.kind = serve::RequestKind::Pattern;
    r.data = payloads_[sent.payload];
    r.pattern = spec_;
    trace::Span sp("bench.serve.submit", "bench");
    sent.fut = server_->submit(std::move(r));
    return true;
  };
  const auto collect = [&](const ServingLoop::Sent& sent, serve::Response& resp,
                           Clock::time_point) {
    if (resp.status == serve::ResponseStatus::Ok && sent.key % kCheckEvery == 0 &&
        stored_.size() < kMaxChecked) {
      stored_.push_back(Stored{sent.payload, std::move(resp.output)});
    }
  };
  const Phase p = loop.run(seconds, rate(), submit, collect);
  loop.rethrow();
  if (layers != nullptr) loop.samples.report(*layers);
  return p;
}

void Pattern::check(Result& r) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(s_.dim));
  double worst = 0.0;
  Rng rng(cfg_.seed);
  for (const Stored& st : stored_) {
    const serve::RequestData& d = *payloads_[st.payload];
    const Index len = d.q.rows();
    for (int x = 0; x < kRowsChecked; ++x) {
      const Index i = x == 0 ? 0 : x == 1 ? len - 1 : rng.next_index(0, len);
      const auto want = reference_row(
          d.q.row(i), s_.dim, local_global_cols(i, len, s_.reach, s_.global, true), scale,
          [&](Index j) { return d.k.row(j); }, [&](Index j) { return d.v.row(j); });
      worst = std::max(worst, row_error(st.out.row(i), want));
    }
  }
  if (stored_.empty()) r.fail_check("no pattern-serve response was checked");
  if (!(worst <= kTolerance)) {
    r.fail_check("pattern rows differ from the reference by " + std::to_string(worst));
  }
  r.notes.push_back("checked " + std::to_string(stored_.size() * kRowsChecked) + " rows of " +
                    std::to_string(stored_.size()) + " responses");
}

}  // namespace

std::unique_ptr<Workload> make_pattern(const RunConfig& cfg) {
  return std::make_unique<Pattern>(cfg);
}

}  // namespace e2e

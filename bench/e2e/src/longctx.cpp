// longctx-prefill: the paper's own use. Closed loop of passes; each pass
// makes one auto-tuned, all-core attention call per mask. Set-up is the
// sparse mask construction; the timed part is core/simd/parallel. Bypasses serve,
// kvcache and net.

#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "obs/trace.hpp"
#include "reference.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload.hpp"

namespace e2e {
namespace {

using namespace gpa;
namespace trace = gpa::obs::trace;

struct Sizes {
  Index seq_len, dim;
  Index lf_reach, lf_global;
  Index bb_reach, bb_global;
  double bb_random_per_row;
  Index dil_window, dil_dilation;
  double random_per_row;
};
constexpr Sizes kFull{8192, 64, 256, 16, 128, 16, 64, 1024, 3, 256};
constexpr Sizes kSmoke{512, 32, 16, 4, 8, 4, 8, 64, 3, 16};

enum MaskId { kLongformer, kBigbird, kDilated, kCsrRandom, kMasks };
constexpr std::array<const char*, kMasks> kMaskName = {"longformer", "bigbird", "dilated",
                                                       "csr_random"};
constexpr int kSampledRows = 32;
constexpr int kDiagnosticReps = 3;

/// Edges of the dilated-1D pattern, counted from its definition.
Size dilated_edges(Index seq_len, Index window, Index dilation) {
  Size edges = 0;
  for (Index off = -(window - 1); off < window; ++off) {
    if (std::abs(off) % (dilation + 1) == 0 && std::abs(off) < seq_len) {
      edges += static_cast<Size>(seq_len - std::abs(off));
    }
  }
  return edges;
}

class LongCtx final : public Workload {
 public:
  explicit LongCtx(const RunConfig& cfg)
      : Workload(cfg),
        s_(cfg.smoke ? kSmoke : kFull),
        q_(s_.seq_len, s_.dim),
        k_(s_.seq_len, s_.dim),
        v_(s_.seq_len, s_.dim) {
    Rng rng(cfg.seed);
    fill_uniform(q_, rng);
    fill_uniform(k_, rng);
    fill_uniform(v_, rng);
    bb_seed_ = rng.next_u64();
    rnd_seed_ = rng.next_u64();
    rows_ = {0, 1, s_.lf_global - 1, s_.lf_global, s_.seq_len / 2, s_.seq_len - 1};
    while (static_cast<int>(rows_.size()) < kSampledRows) {
      rows_.push_back(rng.next_index(0, s_.seq_len));
    }
  }

  const char* name() const override { return "longctx-prefill"; }

 protected:
  double tail_pct() const override { return 80.0; }

  void setup() override {
    const Index L = s_.seq_len;
    build_s_[kLongformer].push_back(timed([&] {
      trace::Span sp("bench.sparse.make_longformer", "bench");
      lf_ = make_longformer(L, s_.lf_reach, s_.lf_global);
    }));
    build_s_[kBigbird].push_back(timed([&] {
      trace::Span sp("bench.sparse.make_bigbird", "bench");
      bb_ = make_bigbird(L, s_.bb_reach, s_.bb_global, s_.bb_random_per_row / L, bb_seed_);
    }));
    build_s_[kCsrRandom].push_back(timed([&] {
      trace::Span sp("bench.sparse.build_csr_random", "bench");
      rnd_ = build_csr_random(L, RandomParams{s_.random_per_row / L, rnd_seed_});
    }));
    dil_ = make_dilated1d(s_.dil_window, s_.dil_dilation);
    for (Matrix<float>& o : out_) o = Matrix<float>(L, s_.dim);
    edges_ = {lf_.fused.nnz(), bb_.fused.nnz(), dilated_edges(L, s_.dil_window, s_.dil_dilation),
              rnd_.nnz()};
  }

  void teardown() override {
    lf_ = {};
    bb_ = {};
    rnd_ = {};
    for (Matrix<float>& o : out_) o = {};
  }

  Phase measure(double seconds, Result* layers) override {
    AttentionOptions opts;
    opts.policy = ExecPolicy::auto_tuned();
    Phase p;
    std::array<std::vector<double>, kMasks> call_ms;
    {
      trace::Span root(kRootSpan, "bench");
      const Clock::time_point end = Clock::now() + to_duration(seconds);
      // Closed loop: each pass is due when the previous one completes.
      Clock::time_point due = Clock::now();
      while (due < end) {
        const Clock::time_point start = Clock::now();
        p.late_ms.push_back(ms_between(due, start));
        for (int m = 0; m < kMasks; ++m) {
          call_ms[m].push_back(timed([&] { call(static_cast<MaskId>(m), opts); }) * 1e3);
        }
        const Clock::time_point done = Clock::now();
        p.latency_ms.push_back(ms_between(due, done));
        ++p.attempted;
        due = done;
      }
    }
    if (layers != nullptr) report_layers(*layers, call_ms, opts);
    return p;
  }

  void check(Result& r) override {
    const double scale = 1.0 / std::sqrt(static_cast<double>(s_.dim));
    const auto krow = [&](Index j) { return k_.row(j); };
    const auto vrow = [&](Index j) { return v_.row(j); };
    for (int m = 0; m < kMasks; ++m) {
      double worst = 0.0;
      for (const Index i : rows_) {
        std::vector<Index> cols;
        switch (m) {
          case kLongformer:
            cols = local_global_cols(i, s_.seq_len, s_.lf_reach, s_.lf_global, false);
            break;
          case kBigbird: cols = csr_cols(bb_.fused, i); break;
          case kDilated: cols = dilated_cols(i, s_.seq_len, s_.dil_window, s_.dil_dilation); break;
          default: cols = csr_cols(rnd_, i); break;
        }
        if (cols.empty()) continue;  // an empty random row has no defined output
        const auto want = reference_row(q_.row(i), s_.dim, cols, scale, krow, vrow);
        worst = std::max(worst, row_error(out_[m].row(i), want));
      }
      if (!(worst <= kTolerance)) {
        r.fail_check(std::string(kMaskName[m]) + " rows differ from the reference by " +
                     std::to_string(worst));
      }
    }
  }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  }

  template <typename Fn>
  static double timed(Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    return ms_between(t0, Clock::now()) / 1e3;
  }

  void call(MaskId m, const AttentionOptions& opts) {
    switch (m) {
      case kLongformer: {
        trace::Span sp("bench.core.composed_attention", "bench");
        composed_attention(q_, k_, v_, lf_, out_[m], opts);
        break;
      }
      case kBigbird: {
        trace::Span sp("bench.core.composed_attention", "bench");
        composed_attention(q_, k_, v_, bb_, out_[m], opts);
        break;
      }
      case kDilated: {
        trace::Span sp("bench.core.dilated1d_attention", "bench");
        dilated1d_attention(q_, k_, v_, dil_, out_[m], opts);
        break;
      }
      default: {
        trace::Span sp("bench.core.csr_attention", "bench");
        csr_attention(q_, k_, v_, rnd_, out_[m], opts);
        break;
      }
    }
  }

  /// Median seconds of kDiagnosticReps Longformer calls under `opts`.
  double longformer_s(const AttentionOptions& opts) {
    std::vector<double> s;
    for (int i = 0; i < kDiagnosticReps; ++i) s.push_back(timed([&] { call(kLongformer, opts); }));
    return median(s);
  }

  void report_layers(Result& r, const std::array<std::vector<double>, kMasks>& call_ms,
                     const AttentionOptions& opts) {
    const double d = static_cast<double>(s_.dim);
    for (int m = 0; m < kMasks; ++m) {
      const std::string mask = kMaskName[m];
      const double ms = median(call_ms[m]);
      const auto edges = static_cast<double>(edges_[m]);
      // Explicit masks also read a column index and a value per edge and
      // a row offset per row; the implicit ones compute them.
      const bool explicit_mask = m == kBigbird || m == kCsrRandom;
      const double rows = static_cast<double>(s_.seq_len);
      r.add("core.call_ms_p50." + mask, ms, "ms", "n=" + std::to_string(call_ms[m].size()));
      r.add("core.edges_per_s." + mask, ms > 0 ? edges / (ms / 1e3) : 0.0, "1/s");
      r.add("core.flops." + mask, 4.0 * d * edges, "flop", "computed: 4*d per edge");
      r.add("core.bytes." + mask,
            edges * (8.0 * d + (explicit_mask ? 8.0 : 0.0)) +
                rows * (8.0 * d + (explicit_mask ? 4.0 : 0.0)),
            "B", "computed: K+V row per edge, Q+O row per row, no reuse");
    }
    for (const int m : {kLongformer, kBigbird, kCsrRandom}) {
      r.add(std::string("sparse.build_s.") + kMaskName[m], median(build_s_[m]), "s",
            "median of " + std::to_string(build_s_[m].size()));
    }
    // Diagnostic passes on Longformer: the same call with the parallel
    // substrate or the SIMD dispatch forced down to its baseline.
    const double all_core = longformer_s(opts);
    AttentionOptions serial = opts;
    serial.policy = ExecPolicy::serial();
    AttentionOptions scalar = opts;
    scalar.policy.simd = SimdLevel::Scalar;
    r.add("parallel.speedup_vs_serial", longformer_s(serial) / all_core, "x",
          "Longformer, serial vs auto-tuned all-core");
    r.add("simd.speedup_vs_scalar", longformer_s(scalar) / all_core, "x",
          "Longformer, scalar vs auto SIMD");
  }

  Sizes s_;
  Matrix<float> q_, k_, v_;
  std::uint64_t bb_seed_ = 0;
  std::uint64_t rnd_seed_ = 0;
  std::vector<Index> rows_;

  ComposedMask lf_, bb_;
  Csr<float> rnd_;
  Dilated1DParams dil_;
  std::array<Matrix<float>, kMasks> out_;
  std::array<Size, kMasks> edges_{};
  std::array<std::vector<double>, kMasks> build_s_;
};

}  // namespace

std::unique_ptr<Workload> make_longctx(const RunConfig& cfg) {
  return std::make_unique<LongCtx>(cfg);
}

}  // namespace e2e

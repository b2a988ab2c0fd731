// Execution-matrix determinism:
//
//  * Within ONE dispatch arm, every kernel must produce bitwise
//    identical results across thread counts, schedules, and grain sizes.
//    Parallelism never changes what is computed, only who/how it is
//    computed (the PRAM claim of §IV-B on the CPU substrate).
//  * Across arms, every arm runs the one lane contract
//    (src/simd/simd.hpp), so each arm's serial result must equal
//    serial-scalar exactly.

#include <gtest/gtest.h>

#include "baselines/flash_attention.hpp"
#include "baselines/sdp_masked.hpp"
#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "core/spmm_attention.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa {
namespace {

struct Fixture {
  static constexpr Index kL = 96;
  static constexpr Index kD = 16;
  Matrix<float> q{kL, kD}, k{kL, kD}, v{kL, kD};
  Csr<float> mask = build_csr_random(kL, RandomParams{0.15, 77});

  Fixture() {
    Rng rng(4242);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);
  }
};

/// The thread/schedule/grain axis, crossed below with every available
/// dispatch arm.
const std::vector<ExecPolicy>& schedule_policies() {
  static const std::vector<ExecPolicy> p = {
      ExecPolicy::serial(),
      {2, 8, Schedule::Static},
      {2, 8, Schedule::Dynamic},
      {4, 1, Schedule::Dynamic},
      {8, 33, Schedule::Static},
      {8, 33, Schedule::Dynamic},
  };
  return p;
}

/// Runs `call(policy, out)` across the full schedule × arm matrix.
/// Every policy is checked bitwise against a serial baseline computed
/// on the SAME arm, and that baseline against serial-scalar.
template <typename CallFn>
void expect_policy_invariant(const CallFn& call) {
  Matrix<float> scalar_base(Fixture::kL, Fixture::kD);
  ExecPolicy serial_scalar = ExecPolicy::serial();
  serial_scalar.simd = SimdLevel::Scalar;
  call(serial_scalar, scalar_base);

  for (const SimdLevel level : simd::available_levels()) {
    Matrix<float> arm_base(Fixture::kL, Fixture::kD);
    ExecPolicy serial_arm = ExecPolicy::serial();
    serial_arm.simd = level;
    call(serial_arm, arm_base);

    EXPECT_EQ(max_abs_diff(arm_base, scalar_base), 0.0)
        << "arm " << simd::level_name(level) << " diverged from scalar";

    for (ExecPolicy policy : schedule_policies()) {
      policy.simd = level;
      Matrix<float> out(Fixture::kL, Fixture::kD);
      call(policy, out);
      EXPECT_EQ(max_abs_diff(out, arm_base), 0.0)
          << "threads=" << policy.num_threads << " grain=" << policy.grain
          << " sched=" << static_cast<int>(policy.schedule)
          << " simd=" << simd::level_name(policy.simd);
    }
  }
}

TEST(ExecMatrix, CsrKernel) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    csr_attention(f.q, f.k, f.v, f.mask, out, opts);
  });
}

TEST(ExecMatrix, CooKernel) {
  Fixture f;
  const auto coo = csr_to_coo(f.mask);
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.coo_search = CooSearch::Binary;
    coo_attention(f.q, f.k, f.v, coo, out, opts);
  });
}

TEST(ExecMatrix, LocalKernel) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    local_attention(f.q, f.k, f.v, LocalParams{7}, out, opts);
  });
}

TEST(ExecMatrix, Dilated1DKernel) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    dilated1d_attention(f.q, f.k, f.v, Dilated1DParams{9, 2}, out, opts);
  });
}

TEST(ExecMatrix, Dilated2DKernel) {
  Fixture f;
  const auto params = make_dilated2d(Fixture::kL, 8, 1);
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    dilated2d_attention(f.q, f.k, f.v, params, out, opts);
  });
}

TEST(ExecMatrix, GlobalKernel) {
  Fixture f;
  GlobalMinusLocalParams gp;
  gp.global = make_global({0, 31, 64}, Fixture::kL);
  gp.local = make_local(4);
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    global_attention(f.q, f.k, f.v, gp, out, opts);
  });
}

TEST(ExecMatrix, CausalCsrKernel) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    opts.causal = true;
    csr_attention(f.q, f.k, f.v, f.mask, out, opts);
  });
}

TEST(ExecMatrix, SpmmPipeline) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    spmm_attention(f.q, f.k, f.v, f.mask, out, opts);
  });
}

TEST(ExecMatrix, FlashBaseline) {
  Fixture f;
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    baselines::flash_attention(f.q, f.k, f.v, out, opts);
  });
}

TEST(ExecMatrix, SdpBaseline) {
  Fixture f;
  const auto dense = csr_to_dense(f.mask);
  expect_policy_invariant([&](const ExecPolicy& p, Matrix<float>& out) {
    AttentionOptions opts;
    opts.policy = p;
    baselines::sdp_masked_attention(f.q, f.k, f.v, dense, out, opts);
  });
}

}  // namespace
}  // namespace gpa

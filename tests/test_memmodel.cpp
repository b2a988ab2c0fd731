// Memory-model tests: Table II reproduction (the paper's theoretical
// context-length limits on an 80 GiB A100), monotonicity properties, and
// exact feasibility boundaries (bytes_required(maxL) fits, maxL+1 not).

#include <gtest/gtest.h>

#include <cmath>

#include "memmodel/memory_model.hpp"

namespace gpa::memmodel {
namespace {

const DeviceSpec kA100 = DeviceSpec::a100_80gb();

ModelConfig cfg(DType dt, Index dim, Index heads, double sf = 1e-4) {
  ModelConfig c;
  c.dtype = dt;
  c.embed_dim = dim;
  c.heads = heads;
  c.sparsity = sf;
  return c;
}

// Paper Table II values we expect to match to rounding (the paper
// rounds the real-valued root; we return the exact floor, hence ±1).
void expect_near_paper(Index got, Index paper, double rel_tol, const char* what) {
  const double rel =
      std::abs(static_cast<double>(got - paper)) / static_cast<double>(paper);
  EXPECT_LE(rel, rel_tol) << what << ": got " << got << ", paper reports " << paper;
}

TEST(Table2Fp32Dk64, MatchesPaperColumns) {
  const auto c = cfg(DType::F32, 64, 1);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c), 146'416, 1e-4, "SDP");
  expect_near_paper(max_context_length(Algo::Local, kA100, c), 83'235'801, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Dilated1D, kA100, c), 83'235'801, 1e-6, "1D");
  expect_near_paper(max_context_length(Algo::Dilated2D, kA100, c), 83'235'801, 1e-6, "2D");
  expect_near_paper(max_context_length(Algo::Global, kA100, c), 83'235'769, 1e-6, "Global");
  // Explicit formats: the paper's byte constants are not stated; our
  // accounting (32-bit indices + dtype values + statistics) lands within
  // 0.2% of their figures.
  expect_near_paper(max_context_length(Algo::Csr, kA100, c), 9'732'519, 2e-3, "CSR");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c), 8'038'418, 2e-3, "COO");
}

TEST(Table2Fp32Dk128, MatchesPaperColumns) {
  const auto c = cfg(DType::F32, 128, 1);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c), 146'288, 1e-4, "SDP");
  expect_near_paper(max_context_length(Algo::Local, kA100, c), 41'779'838, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Global, kA100, c), 41'779'830, 1e-6, "Global");
  expect_near_paper(max_context_length(Algo::Csr, kA100, c), 9'152'140, 2e-3, "CSR");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c), 7'644'258, 2e-3, "COO");
}

TEST(Table2Fp16Dk64, MatchesPaperColumns) {
  const auto c = cfg(DType::F16, 64, 1);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c), 207'116, 1e-4, "SDP");
  expect_near_paper(max_context_length(Algo::FlashDense, kA100, c), 166'471'601, 1e-6,
                    "Flash");
  expect_near_paper(max_context_length(Algo::Local, kA100, c), 166'471'601, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Global, kA100, c), 166'471'472, 1e-6, "Global");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c), 9'009'893, 2e-3, "COO");
  // The paper's CSR-FP16 cell (14,013,926) implies 4 bytes/nnz, which is
  // inconsistent with its own COO-FP16 cell (10 bytes/nnz); our
  // self-consistent accounting gives 6 bytes/nnz, so a shorter length.
  const Index csr = max_context_length(Algo::Csr, kA100, c);
  EXPECT_GT(csr, 11'000'000);
  EXPECT_LT(csr, 14'013'926);
}

TEST(Table2Fp16Dk128, MatchesPaperColumns) {
  const auto c = cfg(DType::F16, 128, 1);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c), 206'988, 1e-4, "SDP");
  expect_near_paper(max_context_length(Algo::FlashDense, kA100, c), 83'559'676, 1e-6, "Flash");
  expect_near_paper(max_context_length(Algo::Local, kA100, c), 83'559'676, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Global, kA100, c), 83'559'643, 1e-6, "Global");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c), 8'764'655, 2e-3, "COO");
}

TEST(Table2Llama3Geometry, MatchesPaperColumns) {
  // "dimensions from the Llama 3 series 8 billion parameter model: 32
  // heads and dk of 4,096".
  const auto c32 = cfg(DType::F32, 4096, 32);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c32), 25'651, 5e-4, "SDP");
  expect_near_paper(max_context_length(Algo::Local, kA100, c32), 1'305'620, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Global, kA100, c32), 1'305'620, 1e-5, "Global");
  expect_near_paper(max_context_length(Algo::Csr, kA100, c32), 950'434, 3e-3, "CSR");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c32), 865'272, 3e-3, "COO");

  const auto c16 = cfg(DType::F16, 4096, 32);
  expect_near_paper(max_context_length(Algo::SdpMasked, kA100, c16), 36'381, 5e-4, "SDP");
  expect_near_paper(max_context_length(Algo::FlashDense, kA100, c16), 2'611'240, 1e-6,
                    "Flash");
  expect_near_paper(max_context_length(Algo::Local, kA100, c16), 2'611'240, 1e-6, "Local");
  expect_near_paper(max_context_length(Algo::Global, kA100, c16), 2'611'239, 1e-5, "Global");
  expect_near_paper(max_context_length(Algo::Csr, kA100, c16), 1'601'190, 0.25, "CSR");
  expect_near_paper(max_context_length(Algo::Coo, kA100, c16), 1'200'336, 3e-3, "COO");
}

TEST(MemModelProperties, BytesMonotoneInLength) {
  const auto c = cfg(DType::F32, 64, 1, 1e-3);
  for (const Algo a : {Algo::SdpMasked, Algo::Csr, Algo::Coo, Algo::Local, Algo::Global,
                       Algo::FlashDense, Algo::SpmmTwoPhase}) {
    Size prev = 0;
    for (Index L = 1; L <= 1 << 20; L *= 4) {
      const Size b = bytes_required(a, L, c);
      EXPECT_GT(b, prev) << algo_name(a) << " L=" << L;
      prev = b;
    }
  }
}

TEST(MemModelProperties, MaxLengthIsExactBoundary) {
  // bytes(maxL) <= budget < bytes(maxL + 1) for every algorithm.
  const auto c = cfg(DType::F16, 128, 1, 1e-4);
  for (const Algo a : {Algo::SdpMasked, Algo::Csr, Algo::Coo, Algo::Local, Algo::FlashDense}) {
    const Index maxL = max_context_length(a, kA100, c);
    EXPECT_LE(bytes_required(a, maxL, c), kA100.memory_bytes) << algo_name(a);
    EXPECT_GT(bytes_required(a, maxL + 1, c), kA100.memory_bytes) << algo_name(a);
  }
}

TEST(MemModelProperties, SparserMasksReachLongerContexts) {
  // Fig. 4's core shape: explicit-format max L grows as Sf shrinks.
  Index prev = 0;
  for (const double sf : {1.0, 0.1, 0.01, 0.001, 0.0001}) {
    const Index maxL = max_context_length(Algo::Csr, kA100, cfg(DType::F16, 64, 1, sf));
    EXPECT_GT(maxL, prev) << "Sf=" << sf;
    prev = maxL;
  }
}

TEST(MemModelProperties, ImplicitMasksUnaffectedBySparsity) {
  const Index a = max_context_length(Algo::Local, kA100, cfg(DType::F32, 64, 1, 1.0));
  const Index b = max_context_length(Algo::Local, kA100, cfg(DType::F32, 64, 1, 1e-6));
  EXPECT_EQ(a, b);
}

TEST(MemModelProperties, Fp16DoublesImplicitContext) {
  const Index f32 = max_context_length(Algo::Local, kA100, cfg(DType::F32, 64, 1));
  const Index f16 = max_context_length(Algo::Local, kA100, cfg(DType::F16, 64, 1));
  EXPECT_NEAR(static_cast<double>(f16) / static_cast<double>(f32), 2.0, 1e-6);
}

TEST(MemModelProperties, OrderingMatchesFigure4) {
  // At high sparsity: implicit >= CSR >= COO >= SDP.
  const auto c = cfg(DType::F32, 64, 1, 1e-4);
  const Index local = max_context_length(Algo::Local, kA100, c);
  const Index csr = max_context_length(Algo::Csr, kA100, c);
  const Index coo = max_context_length(Algo::Coo, kA100, c);
  const Index sdp = max_context_length(Algo::SdpMasked, kA100, c);
  EXPECT_GT(local, csr);
  EXPECT_GT(csr, coo);
  EXPECT_GT(coo, sdp);
}

TEST(DeviceTable, CapacityOrderingAcrossDevices) {
  // Fig. 4's device axis: the model sees only the byte budget, so max
  // context length must be monotone in device memory for every
  // algorithm: RTX 4090 (24G) < V100 (32G) < L40 (48G) < A100 = H100 (80G).
  const auto c = cfg(DType::F16, 64, 1, 1e-4);
  for (const Algo a : {Algo::SdpMasked, Algo::Csr, Algo::Coo, Algo::Local, Algo::FlashDense,
                       Algo::Global}) {
    const Index rtx = max_context_length(a, DeviceSpec::rtx4090_24gb(), c);
    const Index v100 = max_context_length(a, DeviceSpec::v100_32gb(), c);
    const Index l40 = max_context_length(a, DeviceSpec::l40_48gb(), c);
    const Index a100 = max_context_length(a, DeviceSpec::a100_80gb(), c);
    const Index h100 = max_context_length(a, DeviceSpec::h100_80gb(), c);
    EXPECT_LT(rtx, v100) << algo_name(a);
    EXPECT_LT(v100, l40) << algo_name(a);
    EXPECT_LT(l40, a100) << algo_name(a);
    EXPECT_EQ(a100, h100) << algo_name(a);  // same 80 GiB budget
  }
}

TEST(DeviceTable, ContextLimitCurveMonotoneInSparsityOnNewDevices) {
  // The Fig. 4 curve shape must hold on the extended device table too:
  // explicit formats reach longer contexts as the mask gets sparser.
  for (const DeviceSpec& dev : {DeviceSpec::h100_80gb(), DeviceSpec::rtx4090_24gb()}) {
    for (const Algo a : {Algo::Csr, Algo::Coo}) {
      Index prev = 0;
      for (const double sf : {1.0, 0.1, 0.01, 0.001, 0.0001}) {
        const Index maxL = max_context_length(a, dev, cfg(DType::F16, 64, 1, sf));
        EXPECT_GT(maxL, prev) << dev.name << " " << algo_name(a) << " Sf=" << sf;
        prev = maxL;
      }
    }
  }
}

TEST(DeviceTable, CurveMonotoneInLengthOnNewDevices) {
  // bytes_required drives the curve; exact boundary semantics must hold
  // for the new budgets exactly as for the A100 (bisection correctness).
  const auto c = cfg(DType::F32, 64, 1, 1e-3);
  for (const DeviceSpec& dev : {DeviceSpec::h100_80gb(), DeviceSpec::rtx4090_24gb()}) {
    for (const Algo a : {Algo::SdpMasked, Algo::Csr, Algo::Local}) {
      const Index maxL = max_context_length(a, dev, c);
      ASSERT_GT(maxL, 0) << dev.name;
      EXPECT_LE(bytes_required(a, maxL, c), dev.memory_bytes) << dev.name << " " << algo_name(a);
      EXPECT_GT(bytes_required(a, maxL + 1, c), dev.memory_bytes)
          << dev.name << " " << algo_name(a);
    }
  }
}

TEST(MemModelProperties, ZeroWhenNothingFits) {
  const DeviceSpec tiny = DeviceSpec::host(16);
  EXPECT_EQ(max_context_length(Algo::SdpMasked, tiny, cfg(DType::F32, 64, 1)), 0);
}

TEST(LongNetTableTest, MatchesSection2D) {
  const auto table = longnet_sparsity_table();
  ASSERT_EQ(table.size(), 7u);
  EXPECT_EQ(table.front().seq_len, 16'384);
  EXPECT_NEAR(table.front().sf, 0.1666, 1e-3);
  EXPECT_EQ(table.back().seq_len, 1'000'000'000);
  EXPECT_NEAR(table.back().sf, 2.73e-6, 1e-8);
}

TEST(AlgoNameTest, AllNamesDistinct) {
  EXPECT_EQ(algo_name(Algo::Csr), "csr");
  EXPECT_EQ(algo_name(Algo::SdpMasked), "sdp-masked");
  EXPECT_EQ(algo_name(Algo::SpmmTwoPhase), "spmm-two-phase");
}

}  // namespace
}  // namespace gpa::memmodel

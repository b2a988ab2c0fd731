#pragma once
// Analytic device-memory model: reproduces Fig. 4 and Table II.
//
// The paper derives theoretical context-length limits "by solving
// inequalities that relate the total GPU memory to the amount of memory
// occupied by tensors during runtime" on an 80 GiB A100. The byte
// accounting below was fitted against every entry of Table II:
//
//   qkvo   = 4 · L · D · s              (Q, K, V, O; D = heads·head_dim)
//   stats  = 2 · L · heads · s          (online-softmax m and l vectors;
//                                        absent for masked SDP, which is
//                                        not an online algorithm)
//   SDP    += heads · L² · s            (materialised score matrix)
//   CSR    += heads · [(L+1)·4 + nnz·(4 + s)]
//   COO    += heads · [nnz·(8 + s)]
//   Global += 4 · round(Sf·L)           (global-token index list)
//   with nnz = Sf·L², 32-bit sparse indices, s = sizeof(dtype).
//
// This matches the paper's Local/Dilated/Global/Flash columns to the
// token (± rounding) and the CSR/COO columns within 0.2% — except the
// paper's CSR-FP16 cell, which is internally inconsistent with its own
// COO-FP16 accounting: that cell (14,013,926 tokens) implies 4 bytes per
// nonzero where its COO-FP16 cell implies 10, and this model's 6 bytes
// per nonzero gives a shorter length (test_memmodel pins the range).

#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "parallel/device_spec.hpp"

namespace gpa::memmodel {

enum class Algo {
  SdpMasked,
  Csr,
  Coo,
  FlashDense,
  Local,
  Dilated1D,
  Dilated2D,
  Global,
  SpmmTwoPhase,  ///< this repo's two-phase extension (not in the paper)
};

std::string_view algo_name(Algo a);

struct ModelConfig {
  DType dtype = DType::F32;
  Index embed_dim = 64;  ///< D: total packed width (heads · head_dim)
  Index heads = 1;
  double sparsity = 1e-4;  ///< Sf, used by explicit formats and Global
};

/// Bytes required to run `algo` at context length L.
Size bytes_required(Algo algo, Index seq_len, const ModelConfig& cfg);

/// Largest L whose bytes_required fits the device (bisection; the byte
/// function is monotone in L).
Index max_context_length(Algo algo, const DeviceSpec& device, const ModelConfig& cfg);

/// One row of Table II: max L for every algorithm at this config.
struct Table2Row {
  ModelConfig cfg;
  Index sdp, csr, coo, flash, local, global, dilated1d, dilated2d;
};
Table2Row table2_row(const DeviceSpec& device, const ModelConfig& cfg);

/// Bytes of KV-cache storage one cached token occupies: one K row plus
/// one V row at the packed width (heads · head_dim), at the configured
/// dtype. This is the sizing unit for the paged cache in src/kvcache/.
Size kv_bytes_per_token(const ModelConfig& cfg);

/// Largest number of tokens a paged KV cache can hold on `device` when
/// granted `budget_fraction` of its capacity (the rest is reserved for
/// weights / activations / prefill working set).
Index max_cached_tokens(const DeviceSpec& device, const ModelConfig& cfg,
                        double budget_fraction = 1.0);

/// The paper's §II-D LongNet sparsity-factor table: Sf = 2730/L for
/// L ∈ {16k, 32k, 1M, ..., 160M, 1B}.
struct SparsityTableEntry {
  Index seq_len;
  double sf;
};
std::vector<SparsityTableEntry> longnet_sparsity_table();

}  // namespace gpa::memmodel

#pragma once
// Exact masked attention reference — the oracle every kernel is verified
// against, mirroring the paper's §V-A protocol (they verified against
// PyTorch's scaled_dot_product_attention with an explicit binary mask).
// Deliberately simple and serial: O(L²·d) time, O(L²) memory, two-pass
// stable softmax, double-precision row accumulation.

#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace gpa::baselines {

/// O = softmax(scale·QKᵀ + mask ? 0 : -inf) · V, computed densely.
/// Fully-masked rows produce zero rows, not NaN — the convention
/// softmax_rows and every kernel's inv_l() follow, so an empty row
/// compares equal on both sides of a check.
/// scale < 0 selects 1/sqrt(dk).
void reference_attention(const Matrix<float>& q, const Matrix<float>& k,
                         const Matrix<float>& v, const Matrix<std::uint8_t>& mask,
                         Matrix<float>& out, float scale = -1.0f);

/// Convenience overload taking the mask in CSR form.
void reference_attention(const Matrix<float>& q, const Matrix<float>& k,
                         const Matrix<float>& v, const Csr<float>& mask, Matrix<float>& out,
                         float scale = -1.0f);

/// Dense (unmasked) reference.
void reference_attention_dense(const Matrix<float>& q, const Matrix<float>& k,
                               const Matrix<float>& v, Matrix<float>& out, float scale = -1.0f);

}  // namespace gpa::baselines

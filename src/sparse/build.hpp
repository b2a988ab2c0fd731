#pragma once
// Mask construction: from pattern predicates, from dense 0/1 matrices,
// and from random sampling, into COO/CSR. The paper's verification flow
// is "create a mask as a tensor and convert it into the desired sparse
// matrix representation" (§V-A); these builders are that flow.

#include <functional>

#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/patterns.hpp"
#include "tensor/matrix.hpp"

namespace gpa {

/// Arbitrary-predicate builders: `pred(i, j)` is evaluated on all L²
/// cells. They are the test oracle the O(NNZ) builders below are checked
/// against, and share none of their code; nothing in the library builds
/// a mask this way.
Csr<float> build_csr_from_predicate(Index seq_len,
                                    const std::function<bool(Index, Index)>& pred);
Coo<float> build_coo_from_predicate(Index seq_len,
                                    const std::function<bool(Index, Index)>& pred);

/// Pattern-specific builders. Each enumerates every row twice, once to
/// count and once to write, so cost is O(NNZ) and every array is
/// allocated once, at its final size. The local, dilated and
/// global-minus-local rows come from the graph/neighbors.hpp generators
/// the implicit kernels run.
Csr<float> build_csr_local(Index seq_len, const LocalParams& p);
Csr<float> build_csr_dilated1d(Index seq_len, const Dilated1DParams& p);
Csr<float> build_csr_dilated2d(const Dilated2DParams& p);
Csr<float> build_csr_global(Index seq_len, const GlobalParams& p);
/// The edges the global kernel visits: global minus the local window.
Csr<float> build_csr_global_minus_local(Index seq_len, const GlobalMinusLocalParams& p);

/// Uniform random mask with expected sparsity `p.sparsity`
/// (deterministic given p.seed). O(NNZ) via geometric gap sampling; the
/// rows are counted as the samples arrive.
Csr<float> build_csr_random(Index seq_len, const RandomParams& p);

/// Leading n×n principal sub-mask of a canonical CSR (rows 0..n-1,
/// columns < n; relies on sorted columns per row). This is how the
/// KV-cache surfaces compare a session decoding under a big mask with
/// a full recompute at the current length — the causal row slices of
/// the two agree by construction.
Csr<float> csr_leading_slice(const Csr<float>& mask, Index n);

/// Dense 0/1 mask (row-major bytes) -> sparse, and back.
Csr<float> dense_to_csr(const Matrix<std::uint8_t>& mask);
Matrix<std::uint8_t> csr_to_dense(const Csr<float>& csr);
Coo<float> csr_to_coo(const Csr<float>& csr);
Csr<float> coo_to_csr(const Coo<float>& coo);

}  // namespace gpa

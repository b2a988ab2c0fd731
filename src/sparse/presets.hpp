#pragma once
// Named mask presets from Figure 2 / Figure 6 of the paper:
//  * Longformer       = local window + global tokens
//  * Longformer-dilated = dilated local window + global tokens
//  * BigBird          = local window + global tokens + uniform random
//
// Each preset exposes (a) its primitive components — already made
// pairwise disjoint so kernels can be chained sequentially exactly as
// the paper runs them — and (b) the fused union mask for the single-CSR
// evaluation path. Every component and the fused mask are built in
// O(NNZ): the global component enumerates global-minus-local rows
// directly, and the masks are equal, edge for edge and value for value,
// to the ones the O(L²) predicate oracle builds (test_presets).

#include <optional>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/patterns.hpp"

namespace gpa {

/// One primitive of a composed mask, tagged with which kernel runs it.
struct MaskComponent {
  enum class Kind { Local, Dilated1D, GlobalMinusLocal, RandomCsr } kind;
  std::string name;
  // Parameters (only those matching `kind` are meaningful).
  LocalParams local;
  Dilated1DParams dilated;
  GlobalMinusLocalParams global;
  Csr<float> csr;  ///< materialised component (always filled, for fusion/tests)
};

struct ComposedMask {
  std::string name;
  Index seq_len = 0;
  std::vector<MaskComponent> components;  ///< pairwise disjoint
  Csr<float> fused;                       ///< union of all components

  double sparsity() const;
};

/// Longformer: token reach of `reach` each direction (window = reach+1),
/// `global_tokens` prefix tokens global.
ComposedMask make_longformer(Index seq_len, Index reach, Index num_global);

/// Longformer with dilated local window (paper Fig. 6 middle: dilation
/// factor 2 doubling the effective reach).
ComposedMask make_longformer_dilated(Index seq_len, Index reach, Index dilation,
                                     Index num_global);

/// BigBird: local + global + uniform random (random component Sf).
ComposedMask make_bigbird(Index seq_len, Index reach, Index num_global, double random_sf,
                          std::uint64_t seed = 2025);

}  // namespace gpa

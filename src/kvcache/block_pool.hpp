#pragma once
// Paged K/V storage: the vLLM-style block allocator, sized for CPUs.
//
// The cache is one flat arena cut into fixed-size pages. A page holds
// `page_size` token slots; each slot is the token's K row followed
// (page-contiguously) by its V row, both `head_dim` elements, so a
// decode fold reads each neighbor's K and V as contiguous spans — the
// same access shape as Matrix::row(), which is what lets the shared
// tile fold (detail::EdgeTile, and with it every SIMD dispatch arm) run
// unchanged over paged storage.
//
// STORAGE DTYPE. The arena is fp32 or fp16, chosen at construction
// (BlockPoolConfig::dtype). fp16 pages halve bytes-per-token, which the
// memory model converts into ~2× pages — i.e. ~2× cached sessions per
// device at an equal byte budget. Writes into an fp16 pool narrow with
// round-to-nearest-even through the dispatched f2h op (bit-identical on
// every arm, so page payloads are dispatch-independent); decode widens
// on load through the vectorized fp16 fold path. Accessors are
// dtype-split: k_row/v_row address the fp32 arena, k_row_h/v_row_h the
// fp16 arena — callers branch on dtype(), never reinterpret.
//
// Pages are reference-counted. A session owns ref 1 on each of its
// pages; forking a session (shared prompt prefix) bumps every page's
// count instead of copying — copy-on-write happens only when a session
// appends into a *shared, partially-filled* tail page (PageTable does
// the copy; full shared pages stay shared forever, which is the whole
// prefix-sharing win).
//
// The pool is internally synchronized: allocate / release / retain are
// safe from concurrent sessions. Slot payloads are NOT synchronized by
// the pool — a page's elements are written only by the session that
// holds it exclusively (refcount 1, CoW guarantees this), and the pool
// mutex on the allocate/release pair provides the happens-before edge
// when a freed page is recycled to another session.

#include <mutex>
#include <vector>

#include "common/half.hpp"
#include "common/types.hpp"
#include "memmodel/memory_model.hpp"
#include "parallel/device_spec.hpp"

namespace gpa::kvcache {

struct BlockPoolConfig {
  Index page_size = 16;       ///< token slots per page
  Index head_dim = 64;        ///< packed width of one K (or V) row
  Index num_pages = 64;
  DType dtype = DType::F32;   ///< storage precision of the arena
};

/// Sizes a pool from a device capacity via the memory model: grants the
/// cache `budget_fraction` of the device and converts it to whole pages
/// of `page_size` tokens at the given storage dtype — fp16 yields ~2×
/// the pages of fp32 at the same byte budget.
BlockPoolConfig pool_config_for_device(const DeviceSpec& device, Index head_dim,
                                       Index page_size, double budget_fraction,
                                       DType dtype = DType::F32);

class BlockPool {
 public:
  static constexpr Index kNoPage = -1;

  explicit BlockPool(BlockPoolConfig cfg);

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  Index page_size() const noexcept { return cfg_.page_size; }
  Index head_dim() const noexcept { return cfg_.head_dim; }
  Index num_pages() const noexcept { return cfg_.num_pages; }
  DType dtype() const noexcept { return cfg_.dtype; }

  /// Pops a free page with refcount 1, or kNoPage when exhausted (the
  /// caller decides whether to evict and retry).
  Index allocate();

  /// +1 on the page's refcount (prefix sharing on fork).
  void retain(Index page);

  /// -1 on the page's refcount; at zero the page returns to the free
  /// list. Releasing a free page throws (double-free invariant).
  void release(Index page);

  Index ref_count(Index page) const;
  Index pages_in_use() const;
  Index pages_free() const;

  /// fp32 slot payload accessors (page must be live, pool must be F32;
  /// unchecked hot path).
  float* k_row(Index page, Index slot) noexcept {
    return storage_.data() + slot_offset(page, slot);
  }
  const float* k_row(Index page, Index slot) const noexcept {
    return storage_.data() + slot_offset(page, slot);
  }
  float* v_row(Index page, Index slot) noexcept {
    return storage_.data() + slot_offset(page, slot) + cfg_.head_dim;
  }
  const float* v_row(Index page, Index slot) const noexcept {
    return storage_.data() + slot_offset(page, slot) + cfg_.head_dim;
  }

  /// fp16 slot payload accessors (pool must be F16).
  half_t* k_row_h(Index page, Index slot) noexcept {
    return storage_h_.data() + slot_offset(page, slot);
  }
  const half_t* k_row_h(Index page, Index slot) const noexcept {
    return storage_h_.data() + slot_offset(page, slot);
  }
  half_t* v_row_h(Index page, Index slot) noexcept {
    return storage_h_.data() + slot_offset(page, slot) + cfg_.head_dim;
  }
  const half_t* v_row_h(Index page, Index slot) const noexcept {
    return storage_h_.data() + slot_offset(page, slot) + cfg_.head_dim;
  }

  /// Writes one token's K/V rows (each head_dim fp32 values) into a
  /// slot, narrowing to fp16 (round-to-nearest-even, dispatch-
  /// independent bits) when the pool is half-width.
  void store_token(Index page, Index slot, const float* k, const float* v) noexcept;

  /// Raw copy of the first `slots` slots from one page to another (the
  /// CoW path) — dtype-agnostic byte move.
  void copy_slots(Index dst_page, Index src_page, Index slots) noexcept;

  /// Bytes of one K (or V) row in this pool's storage dtype.
  std::size_t row_bytes() const noexcept {
    return static_cast<std::size_t>(cfg_.head_dim) * dtype_size(cfg_.dtype);
  }

 private:
  std::size_t slot_offset(Index page, Index slot) const noexcept {
    // Slot stride is 2·d (K row then V row), in elements of the dtype.
    return (static_cast<std::size_t>(page) * static_cast<std::size_t>(cfg_.page_size) +
            static_cast<std::size_t>(slot)) *
           (2 * static_cast<std::size_t>(cfg_.head_dim));
  }
  void check_live(Index page) const;  // caller holds mu_

  BlockPoolConfig cfg_;
  std::vector<float> storage_;     ///< fp32 arena (empty in F16 mode)
  std::vector<half_t> storage_h_;  ///< fp16 arena (empty in F32 mode)
  mutable std::mutex mu_;
  std::vector<Index> refs_;  ///< 0 = free
  std::vector<Index> free_;  ///< stack of free page ids
};

}  // namespace gpa::kvcache

// KV-cache subsystem tests: paged allocator invariants (refcounts, CoW,
// no double free), LRU eviction policy (idle-only, pinned exempt), and
// the load-bearing numerics claim — a stream of decode_step folds is
// BIT-IDENTICAL (float path) to one full-sequence causal kernel call on
// every SIMD arm, across explicit (CSR) and implicit (local/global) masks
// and head dims that exercise every SIMD remainder-lane count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "core/composed.hpp"
#include "core/graph_attention.hpp"
#include "kvcache/kvcache.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa::kvcache {
namespace {

// --- BlockPool -------------------------------------------------------

TEST(BlockPoolTest, AllocateExhaustRelease) {
  BlockPool pool({/*page_size=*/4, /*head_dim=*/8, /*num_pages=*/3});
  EXPECT_EQ(pool.pages_free(), 3);
  const Index a = pool.allocate();
  const Index b = pool.allocate();
  const Index c = pool.allocate();
  EXPECT_NE(a, BlockPool::kNoPage);
  EXPECT_NE(b, BlockPool::kNoPage);
  EXPECT_NE(c, BlockPool::kNoPage);
  EXPECT_EQ(pool.allocate(), BlockPool::kNoPage);  // exhausted, not an error
  EXPECT_EQ(pool.pages_in_use(), 3);
  pool.release(b);
  EXPECT_EQ(pool.pages_free(), 1);
  EXPECT_EQ(pool.allocate(), b);  // the freed page comes back
}

TEST(BlockPoolTest, RefcountSharingAndDoubleFree) {
  BlockPool pool({4, 8, 2});
  const Index p = pool.allocate();
  EXPECT_EQ(pool.ref_count(p), 1);
  pool.retain(p);
  EXPECT_EQ(pool.ref_count(p), 2);
  pool.release(p);
  EXPECT_EQ(pool.ref_count(p), 1);
  EXPECT_EQ(pool.pages_in_use(), 1);  // still held
  pool.release(p);
  EXPECT_EQ(pool.pages_in_use(), 0);
  EXPECT_THROW(pool.release(p), InvalidArgument);  // double free
  EXPECT_THROW(pool.retain(p), InvalidArgument);   // retain of a dead page
  EXPECT_THROW(pool.release(99), InvalidArgument); // out of range
}

TEST(BlockPoolTest, DeviceSizedConfigUsesTheMemoryModel) {
  // 1 MiB budget, d=64 fp32: 512 bytes/token -> 2048 tokens -> 128
  // pages of 16.
  const DeviceSpec dev = DeviceSpec::host(1ull << 20);
  const BlockPoolConfig cfg = pool_config_for_device(dev, /*head_dim=*/64,
                                                     /*page_size=*/16,
                                                     /*budget_fraction=*/1.0);
  EXPECT_EQ(cfg.num_pages, 128);
  EXPECT_EQ(cfg.head_dim, 64);
  // Half the budget -> half the pages.
  EXPECT_EQ(pool_config_for_device(dev, 64, 16, 0.5).num_pages, 64);
}

// --- PageTable -------------------------------------------------------

std::vector<float> token_row(Index t, Index d, float salt) {
  std::vector<float> r(static_cast<std::size_t>(d));
  for (Index p = 0; p < d; ++p) {
    r[static_cast<std::size_t>(p)] = salt + static_cast<float>(t) * 100.0f +
                                     static_cast<float>(p);
  }
  return r;
}

TEST(PageTableTest, AppendAndReadAcrossPageBoundaries) {
  BlockPool pool({/*page_size=*/4, /*head_dim=*/8, /*num_pages=*/8});
  PageTable table;
  const Index n = 10;  // 2.5 pages
  for (Index t = 0; t < n; ++t) {
    const auto k = token_row(t, 8, 1.0f);
    const auto v = token_row(t, 8, 2.0f);
    ASSERT_TRUE(table.append(pool, k.data(), v.data()));
  }
  EXPECT_EQ(table.length(), n);
  EXPECT_EQ(table.num_pages(), 3);
  for (Index t = 0; t < n; ++t) {
    const auto k = token_row(t, 8, 1.0f);
    const auto v = token_row(t, 8, 2.0f);
    for (Index p = 0; p < 8; ++p) {
      EXPECT_EQ(table.k_row(pool, t)[p], k[static_cast<std::size_t>(p)]);
      EXPECT_EQ(table.v_row(pool, t)[p], v[static_cast<std::size_t>(p)]);
    }
  }
  table.release_all(pool);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

TEST(PageTableTest, ForkSharesFullPagesAndCopiesOnlyTheTailOnWrite) {
  BlockPool pool({4, 8, 8});
  PageTable parent;
  for (Index t = 0; t < 6; ++t) {  // one full page + half a page
    const auto k = token_row(t, 8, 1.0f);
    const auto v = token_row(t, 8, 2.0f);
    ASSERT_TRUE(parent.append(pool, k.data(), v.data()));
  }
  PageTable child = parent.fork(pool);
  EXPECT_EQ(child.length(), 6);
  EXPECT_EQ(pool.pages_in_use(), 2);  // fully shared, no copies yet
  EXPECT_EQ(pool.ref_count(parent.pages()[0]), 2);
  EXPECT_EQ(pool.ref_count(parent.pages()[1]), 2);

  // Child appends: the shared, partially-filled tail page is CoW'd;
  // the full page stays shared.
  const auto k6 = token_row(6, 8, 5.0f);
  const auto v6 = token_row(6, 8, 6.0f);
  ASSERT_TRUE(child.append(pool, k6.data(), v6.data()));
  EXPECT_EQ(pool.pages_in_use(), 3);
  EXPECT_EQ(pool.ref_count(parent.pages()[0]), 2);  // shared prefix intact
  EXPECT_EQ(pool.ref_count(parent.pages()[1]), 1);  // parent's tail, exclusive again
  EXPECT_NE(child.pages()[1], parent.pages()[1]);

  // Parent's view is untouched; child sees prefix + its new token.
  for (Index t = 0; t < 6; ++t) {
    const auto k = token_row(t, 8, 1.0f);
    EXPECT_EQ(parent.k_row(pool, t)[3], k[3]);
    EXPECT_EQ(child.k_row(pool, t)[3], k[3]);
  }
  EXPECT_EQ(child.k_row(pool, 6)[0], k6[0]);

  child.release_all(pool);
  parent.release_all(pool);
  EXPECT_EQ(pool.pages_in_use(), 0);
}

// --- decode vs full recompute: bit identity --------------------------

struct IdentityCase {
  std::string name;
  MaskSpec spec;
  std::function<void(const Matrix<float>&, const Matrix<float>&, const Matrix<float>&,
                     Matrix<float>&, const AttentionOptions&)>
      full_causal;  ///< one-shot kernel over the whole sequence, causal opts
};

std::vector<IdentityCase> identity_cases(Index n) {
  // From n = 64 on, rows carry 40+ edges, so decode and the full kernel
  // fold whole sixteen-edge tiles, cut at different boundaries.
  const bool wide = n >= 64;
  std::vector<IdentityCase> cases;
  {
    auto mask = std::make_shared<const Csr<float>>(
        build_csr_random(n, RandomParams{wide ? 0.5 : 0.25, 9}));
    cases.push_back({"csr", MaskSpec::make_csr(mask),
                     [mask](const auto& q, const auto& k, const auto& v, auto& o,
                            const auto& opts) { csr_attention(q, k, v, *mask, o, opts); }});
  }
  {
    const LocalParams p{wide ? 48 : 5};
    cases.push_back({"local", MaskSpec::make_local(p),
                     [p](const auto& q, const auto& k, const auto& v, auto& o,
                         const auto& opts) { local_attention(q, k, v, p, o, opts); }});
  }
  {
    GlobalMinusLocalParams p;
    p.global.tokens = {0, 3, 9};
    p.local.window = 2;
    cases.push_back({"global", MaskSpec::make_global(p),
                     [p](const auto& q, const auto& k, const auto& v, auto& o,
                         const auto& opts) { global_attention(q, k, v, p, o, opts); }});
  }
  {
    // Chained mask (longformer serving scenario): local ∘ global folds
    // both components' causal slices into one row state per decode
    // step; the full arm is the equivalent two-kernel accumulate chain.
    const LocalParams lp{wide ? 40 : 3};
    GlobalMinusLocalParams gp;
    gp.global.tokens = {0, 2, 7};
    gp.local.window = lp.window;
    cases.push_back(
        {"local∘global",
         MaskSpec::compose({MaskTraversal::local(lp), MaskTraversal::global(gp)}),
         [lp, gp](const auto& q, const auto& k, const auto& v, auto& o, const auto& opts) {
           SoftmaxState st(q.rows(), o.cols());
           local_attention_accumulate(q, k, v, lp, st, opts);
           global_attention_accumulate(q, k, v, gp, st, opts);
           st.finalize_into(o);
         }});
  }
  return cases;
}

/// The full kernel's options on one dispatch arm: causal, as decode is.
AttentionOptions causal_on(SimdLevel level) {
  AttentionOptions opts;
  opts.causal = true;
  opts.policy.simd = level;
  return opts;
}

/// N single-row decode folds must equal one full-sequence causal kernel
/// call bit for bit, for any prefill/decode split of the sequence. The
/// decode side runs on Auto and the kernel side on every arm: all arms
/// compute the same bits.
void check_decode_identity(Index n, Index d, Index prefill_len) {
  for (auto& c : identity_cases(n)) {
    SCOPED_TRACE(c.name + " d=" + std::to_string(d) +
                 " prefill=" + std::to_string(prefill_len));
    Rng rng(static_cast<std::uint64_t>(n * 1000 + d));
    Matrix<float> q(n, d), k(n, d), v(n, d);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    SessionManager::Config mc;
    mc.pool.page_size = 4;  // deliberately small: decode crosses pages
    mc.pool.head_dim = d;
    mc.pool.num_pages = n / 4 + 2;
    SessionManager mgr(mc);
    mgr.create(1, c.spec);

    Matrix<float> got(n, d);
    if (prefill_len > 0) {
      Matrix<float> qp(prefill_len, d), kp(prefill_len, d), vp(prefill_len, d);
      for (Index i = 0; i < prefill_len; ++i) {
        for (Index p = 0; p < d; ++p) {
          qp(i, p) = q(i, p);
          kp(i, p) = k(i, p);
          vp(i, p) = v(i, p);
        }
      }
      Matrix<float> out(prefill_len, d);
      mgr.prefill(1, qp, kp, vp, out);
      for (Index i = 0; i < prefill_len; ++i) {
        for (Index p = 0; p < d; ++p) got(i, p) = out(i, p);
      }
    }
    for (Index t = prefill_len; t < n; ++t) {
      // Work optimality, one token at a time: the step folds exactly
      // row t's causal edges.
      Index causal_edges = 0;
      c.spec.for_each_causal(t, [&](Index, float) { ++causal_edges; });
      ASSERT_EQ(mgr.decode_step(1, q.row(t), k.row(t), v.row(t), got.row(t)), causal_edges)
          << "row " << t;
    }

    for (const SimdLevel level : simd::available_levels()) {
      SCOPED_TRACE(std::string("kernel arm ") + std::string(simd::level_name(level)));
      Matrix<float> expected(n, d);
      c.full_causal(q, k, v, expected, causal_on(level));
      for (Index i = 0; i < n; ++i) {
        for (Index p = 0; p < d; ++p) {
          ASSERT_EQ(got(i, p), expected(i, p))
              << "row " << i << " col " << p << " (rows 0.." << prefill_len - 1
              << " prefilled, rest decoded)";
        }
      }
    }
  }
}

TEST(DecodeBitIdentity, PrefillPlusDecodeMatchesFullKernel) {
  for (const Index d : {32, 64, 67}) check_decode_identity(24, d, 12);
  check_decode_identity(96, 64, 41);
}

TEST(DecodeBitIdentity, PureDecodeStreamMatchesFullKernel) {
  // No prefill at all: the whole sequence arrives token by token.
  for (const Index d : {32, 64, 67}) check_decode_identity(16, d, 0);
  check_decode_identity(96, 64, 0);
}

/// A composed (local ∘ global) decode session's token stream must be
/// bit-identical to the full composed kernel call on every arm — the
/// acceptance pin for chained-mask sessions riding the shared traversal.
TEST(DecodeBitIdentity, ComposedPresetSessionMatchesComposedKernelCall) {
  const Index n = 24, d = 48, split = 10;
  for (const bool bigbird : {false, true}) {
    SCOPED_TRACE(bigbird ? "bigbird" : "longformer");
    // Longformer exercises two implicit components (unbounded session);
    // BigBird adds the explicit random-CSR component (owning copy,
    // bounded session).
    const ComposedMask preset = bigbird ? make_bigbird(n, /*reach=*/2, /*num_global=*/2, 0.15)
                                        : make_longformer(n, /*reach=*/3, /*num_global=*/2);
    Rng rng(bigbird ? 311u : 313u);
    Matrix<float> q(n, d), k(n, d), v(n, d);
    fill_uniform(q, rng);
    fill_uniform(k, rng);
    fill_uniform(v, rng);

    SessionManager::Config mc;
    mc.pool.page_size = 4;
    mc.pool.head_dim = d;
    mc.pool.num_pages = n / 4 + 2;
    SessionManager mgr(mc);
    mgr.create(1, MaskSpec::compose(preset));
    EXPECT_EQ(mgr.contains(1), true);

    Matrix<float> got(n, d);
    {
      Matrix<float> qp(split, d), kp(split, d), vp(split, d), out(split, d);
      for (Index i = 0; i < split; ++i) {
        for (Index p = 0; p < d; ++p) {
          qp(i, p) = q(i, p);
          kp(i, p) = k(i, p);
          vp(i, p) = v(i, p);
        }
      }
      mgr.prefill(1, qp, kp, vp, out);
      for (Index i = 0; i < split; ++i) {
        for (Index p = 0; p < d; ++p) got(i, p) = out(i, p);
      }
    }
    for (Index t = split; t < n; ++t) {
      mgr.decode_step(1, q.row(t), k.row(t), v.row(t), got.row(t));
    }
    for (const SimdLevel level : simd::available_levels()) {
      SCOPED_TRACE(std::string("kernel arm ") + std::string(simd::level_name(level)));
      Matrix<float> expected(n, d);
      composed_attention(q, k, v, preset, expected, causal_on(level));
      for (Index i = 0; i < n; ++i) {
        for (Index p = 0; p < d; ++p) {
          ASSERT_EQ(got(i, p), expected(i, p)) << "row " << i << " col " << p;
        }
      }
    }
  }
}

TEST(DecodeBitIdentity, ForkedSessionContinuesBitIdentically) {
  const Index n = 20, d = 32, split = 10;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(n, RandomParams{0.3, 17}));
  Rng rng(71);
  Matrix<float> q(n, d), k(n, d), v(n, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> qp(split, d), kp(split, d), vp(split, d), out(split, d);
  for (Index i = 0; i < split; ++i) {
    for (Index p = 0; p < d; ++p) {
      qp(i, p) = q(i, p);
      kp(i, p) = k(i, p);
      vp(i, p) = v(i, p);
    }
  }

  SessionManager::Config mc;
  mc.pool.page_size = 4;
  mc.pool.head_dim = d;
  mc.pool.num_pages = 32;
  SessionManager mgr(mc);
  mgr.create(1, MaskSpec::make_csr(mask));
  mgr.prefill(1, qp, kp, vp, out);
  mgr.fork(1, 2);

  // Parent decodes a decoy continuation first (its CoW tail must not
  // leak into the child), then the child decodes the real one.
  std::vector<float> decoy(static_cast<std::size_t>(d), 0.25f);
  std::vector<float> scratch(static_cast<std::size_t>(d));
  mgr.decode_step(1, decoy.data(), decoy.data(), decoy.data(), scratch.data());

  SessionManager ref_mgr(mc);
  ref_mgr.create(7, MaskSpec::make_csr(mask));
  Matrix<float> ref_out(split, d);
  ref_mgr.prefill(7, qp, kp, vp, ref_out);

  for (Index t = split; t < n; ++t) {
    std::vector<float> got(static_cast<std::size_t>(d)), want(static_cast<std::size_t>(d));
    mgr.decode_step(2, q.row(t), k.row(t), v.row(t), got.data());
    ref_mgr.decode_step(7, q.row(t), k.row(t), v.row(t), want.data());
    for (Index p = 0; p < d; ++p) ASSERT_EQ(got[static_cast<std::size_t>(p)],
                                            want[static_cast<std::size_t>(p)]);
  }
}

// --- sessions: lifecycle, eviction, errors ---------------------------

SessionManager::Config small_config(Index d, Index num_pages) {
  SessionManager::Config mc;
  mc.pool.page_size = 2;
  mc.pool.head_dim = d;
  mc.pool.num_pages = num_pages;
  return mc;
}

void prefill_n(SessionManager& mgr, std::uint64_t id, Index n, Index d) {
  Rng rng(id * 13 + 5);
  Matrix<float> q(n, d), k(n, d), v(n, d), out(n, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  mgr.prefill(id, q, k, v, out);
}

TEST(SessionEviction, LruEvictsOnlyIdleAndOldest) {
  const Index d = 8;
  // 8 pages of 2 tokens: two 4-token sessions twice over.
  SessionManager mgr(small_config(d, 8));
  mgr.create(1, MaskSpec::make_local(LocalParams{2}));
  mgr.create(2, MaskSpec::make_local(LocalParams{2}));
  prefill_n(mgr, 1, 4, d);
  prefill_n(mgr, 2, 4, d);
  EXPECT_EQ(mgr.pool().pages_free(), 4);

  // Touch 1 (decode one token) so 2 becomes LRU, then demand more
  // pages than remain free.
  std::vector<float> row(static_cast<std::size_t>(d), 0.5f);
  std::vector<float> out(static_cast<std::size_t>(d));
  mgr.decode_step(1, row.data(), row.data(), row.data(), out.data());
  mgr.create(3, MaskSpec::make_local(LocalParams{2}));
  prefill_n(mgr, 3, 10, d);  // needs 5 pages -> must evict session 2

  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_TRUE(mgr.contains(1));
  EXPECT_FALSE(mgr.contains(2));  // evicted -> gone (client re-prefills)
  EXPECT_THROW(mgr.length(2), SessionNotFound);
  EXPECT_EQ(mgr.length(3), 10);
}

TEST(SessionEviction, PinnedSessionsSurviveAndCacheFullIsTyped) {
  const Index d = 8;
  SessionManager mgr(small_config(d, 4));
  mgr.create(1, MaskSpec::make_local(LocalParams{2}));
  prefill_n(mgr, 1, 8, d);  // entire pool
  mgr.set_pinned(1, true);

  mgr.create(2, MaskSpec::make_local(LocalParams{2}));
  EXPECT_THROW(prefill_n(mgr, 2, 4, d), CacheFull);
  EXPECT_TRUE(mgr.contains(1));          // pinned: never evicted
  EXPECT_EQ(mgr.length(2), 0);           // failed prefill left it empty
  EXPECT_EQ(mgr.stats().evictions, 0u);

  mgr.set_pinned(1, false);
  prefill_n(mgr, 2, 4, d);  // now eviction can reclaim session 1
  EXPECT_FALSE(mgr.contains(1));
  EXPECT_EQ(mgr.stats().evictions, 1u);
}

TEST(SessionEviction, ForkSharedEvictionFreesNothingAndIsNotCounted) {
  // Regression: evicting a session whose pages are all held by a fork
  // frees nothing. The evict-and-retry loop must still terminate in
  // CacheFull (each round removes a candidate), and the unproductive
  // eviction must not inflate the evictions counter.
  const Index d = 8;
  auto mc = small_config(d, 4);  // page_size 2 -> 4 pages = 8 tokens
  mc.prefix_dedup = false;       // pure fork sharing, no index refs
  SessionManager mgr(mc);
  mgr.create(1, MaskSpec::make_local(LocalParams{2}));
  prefill_n(mgr, 1, 4, d);  // two FULL pages (no CoW-able tail)
  mgr.fork(1, 2);
  mgr.set_pinned(2, true);
  EXPECT_EQ(mgr.pool().pages_in_use(), 2);  // fully shared

  // Session 3 wants 3 pages with 2 free: eviction fires, takes session
  // 1 (the only unpinned candidate), frees zero pages, and the retry
  // must conclude CacheFull instead of spinning.
  mgr.create(3, MaskSpec::make_local(LocalParams{2}));
  EXPECT_THROW(prefill_n(mgr, 3, 6, d), CacheFull);
  EXPECT_FALSE(mgr.contains(1));            // evicted all the same...
  EXPECT_EQ(mgr.stats().evictions, 0u);     // ...but freed nothing: not counted
  EXPECT_TRUE(mgr.contains(2));
  EXPECT_EQ(mgr.length(2), 4);              // fork's view intact
  EXPECT_EQ(mgr.length(3), 0);              // failed prefill unwound
  EXPECT_EQ(mgr.pool().pages_in_use(), 2);

  // Unpinned, the fork's eviction DOES free its pages and is counted.
  mgr.set_pinned(2, false);
  prefill_n(mgr, 3, 6, d);
  EXPECT_FALSE(mgr.contains(2));
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_EQ(mgr.length(3), 6);
}

TEST(SessionApi, LifecycleAndErrorTaxonomy) {
  const Index d = 8;
  SessionManager mgr(small_config(d, 8));
  EXPECT_THROW(prefill_n(mgr, 42, 2, d), SessionNotFound);

  auto mask = std::make_shared<const Csr<float>>(build_csr_random(4, RandomParams{0.5, 3}));
  mgr.create(1, MaskSpec::make_csr(mask));
  EXPECT_THROW(mgr.create(1, MaskSpec::make_local(LocalParams{1})), InvalidArgument);
  prefill_n(mgr, 1, 4, d);
  EXPECT_THROW(prefill_n(mgr, 1, 2, d), InvalidArgument);  // non-empty session

  // The 4×4 CSR mask is exhausted: decoding token 4 has no mask row.
  std::vector<float> row(static_cast<std::size_t>(d), 0.5f);
  std::vector<float> out(static_cast<std::size_t>(d));
  EXPECT_THROW(mgr.decode_step(1, row.data(), row.data(), row.data(), out.data()),
               InvalidArgument);

  EXPECT_THROW(mgr.fork(9, 10), SessionNotFound);
  mgr.fork(1, 2);
  EXPECT_THROW(mgr.fork(1, 2), InvalidArgument);  // id taken
  mgr.release(1);
  EXPECT_FALSE(mgr.contains(1));
  EXPECT_TRUE(mgr.contains(2));       // fork owns its own page refs
  EXPECT_EQ(mgr.length(2), 4);
  mgr.release(1);  // idempotent
}

TEST(SessionConcurrency, ParallelDecodeAcrossSessionsWithEvictionChurn) {
  const Index d = 16;
  // 4 decoders × 48 tokens = 96 pages of 2; the headroom above that is
  // what the churn thread and the evictor fight over.
  SessionManager mgr(small_config(d, 112));
  constexpr int kSessions = 4;
  constexpr Index kSteps = 48;
  for (int s = 1; s <= kSessions; ++s) {
    mgr.create(static_cast<std::uint64_t>(s), MaskSpec::make_local(LocalParams{4}));
    mgr.set_pinned(static_cast<std::uint64_t>(s), true);  // decoders never vanish
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int s = 1; s <= kSessions; ++s) {
    threads.emplace_back([&mgr, s, d] {
      Rng rng(static_cast<std::uint64_t>(s) * 99);
      Matrix<float> row(1, d), out(1, d);
      for (Index t = 0; t < kSteps; ++t) {
        fill_uniform(row, rng);
        mgr.decode_step(static_cast<std::uint64_t>(s), row, row, row, out);
      }
    });
  }
  // Churn thread: transient sessions claim pages and die, forcing the
  // allocator + eviction machinery under the decoders' feet.
  threads.emplace_back([&mgr, d, &stop] {
    for (std::uint64_t id = 100; !stop.load(); ++id) {
      mgr.create(id, MaskSpec::make_local(LocalParams{2}));
      try {
        prefill_n(mgr, id, 6, d);
      } catch (const SessionError&) {
        // CacheFull under pressure is an acceptable outcome here.
      }
      mgr.release(id);
    }
  });
  for (int s = 0; s < kSessions; ++s) threads[static_cast<std::size_t>(s)].join();
  stop.store(true);
  threads.back().join();

  for (int s = 1; s <= kSessions; ++s) {
    EXPECT_EQ(mgr.length(static_cast<std::uint64_t>(s)), kSteps);
  }
  EXPECT_EQ(mgr.stats().decode_steps, static_cast<Size>(kSessions) * kSteps);
}

TEST(DecodeBatch, BatchedStepsMatchPerSessionStepsBitwise) {
  // Cross-session batched decode must be bit-identical to issuing each
  // session's steps one at a time: batching never changes the fold
  // order within a session.
  const Index d = 16;
  constexpr int kSessions = 3;
  constexpr Index kSteps = 12;
  SessionManager batched(small_config(d, 64));
  SessionManager reference(small_config(d, 64));
  for (int s = 1; s <= kSessions; ++s) {
    batched.create(static_cast<std::uint64_t>(s), MaskSpec::make_local(LocalParams{4}));
    reference.create(static_cast<std::uint64_t>(s), MaskSpec::make_local(LocalParams{4}));
  }

  std::vector<Matrix<float>> rows, got, want;
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(static_cast<std::uint64_t>(s) * 77 + 5);
    Matrix<float> r(kSteps, d);
    fill_uniform(r, rng);
    rows.push_back(std::move(r));
    got.emplace_back(kSteps, d);
    want.emplace_back(kSteps, d);
  }

  Index batched_edges = 0;
  for (Index t = 0; t < kSteps; ++t) {
    // One batch per token step: one item per live session, plus one for
    // a session that does not exist — its typed failure must not poison
    // the others.
    std::vector<SessionManager::DecodeBatchItem> items;
    Matrix<float> junk(1, d);
    for (int s = 0; s < kSessions; ++s) {
      const float* row = rows[static_cast<std::size_t>(s)].row(t);
      items.push_back({static_cast<std::uint64_t>(s + 1), row, row, row,
                       got[static_cast<std::size_t>(s)].row(t)});
    }
    items.push_back({999, junk.row(0), junk.row(0), junk.row(0), junk.row(0)});
    batched_edges += batched.decode_batch(items);
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(items[static_cast<std::size_t>(s)].outcome,
                SessionManager::DecodeBatchItem::Outcome::Ok);
    }
    EXPECT_EQ(items.back().outcome, SessionManager::DecodeBatchItem::Outcome::SessionError);
  }

  Index reference_edges = 0;
  for (int s = 0; s < kSessions; ++s) {
    for (Index t = 0; t < kSteps; ++t) {
      const float* row = rows[static_cast<std::size_t>(s)].row(t);
      reference_edges += reference.decode_step(static_cast<std::uint64_t>(s + 1), row, row, row,
                                               want[static_cast<std::size_t>(s)].row(t));
    }
  }

  EXPECT_EQ(batched_edges, reference_edges);
  for (int s = 0; s < kSessions; ++s) {
    for (Index t = 0; t < kSteps; ++t) {
      for (Index p = 0; p < d; ++p) {
        ASSERT_EQ(got[static_cast<std::size_t>(s)](t, p),
                  want[static_cast<std::size_t>(s)](t, p))
            << "session " << s + 1 << " token " << t << " col " << p;
      }
    }
  }
}

TEST(DecodeBatch, InSessionOrderIsPreservedWithinOneBatch) {
  // Several tokens of ONE session inside one batch must fold in item
  // order (the autoregressive contract) even when interleaved with
  // another session's tokens.
  const Index d = 16;
  constexpr Index kTokens = 8;
  SessionManager batched(small_config(d, 64));
  SessionManager reference(small_config(d, 64));
  batched.create(1, MaskSpec::make_local(LocalParams{3}));
  batched.create(2, MaskSpec::make_local(LocalParams{3}));
  reference.create(1, MaskSpec::make_local(LocalParams{3}));

  Rng rng(4321);
  Matrix<float> tokens(kTokens, d), other(kTokens, d);
  fill_uniform(tokens, rng);
  fill_uniform(other, rng);
  Matrix<float> got(kTokens, d), want(kTokens, d), sink(kTokens, d);

  std::vector<SessionManager::DecodeBatchItem> items;
  for (Index t = 0; t < kTokens; ++t) {
    items.push_back({1, tokens.row(t), tokens.row(t), tokens.row(t), got.row(t)});
    items.push_back({2, other.row(t), other.row(t), other.row(t), sink.row(t)});
  }
  batched.decode_batch(items);

  for (Index t = 0; t < kTokens; ++t) {
    reference.decode_step(1, tokens.row(t), tokens.row(t), tokens.row(t), want.row(t));
  }
  for (Index t = 0; t < kTokens; ++t) {
    for (Index p = 0; p < d; ++p) {
      ASSERT_EQ(got(t, p), want(t, p)) << "token " << t << " col " << p;
    }
  }
}

// --- stats invariants under churn ------------------------------------

// The stats contract the scrape path depends on: counters are monotone
// across snapshots, the pool balance always closes, evictions count
// only when pages were actually freed, and the registry mirror
// (kvcache.* in obs::Registry::global()) moves in lockstep with the
// manager's own stats() — an instrument site that forgets one side
// shows up as a drifting delta here.
TEST(SessionStats, ChurnKeepsCountersMonotoneAndMirroredInRegistry) {
  const Index d = 8;
  const Index num_pages = 8;
  const obs::MetricsSnapshot reg0 = obs::Registry::global().snapshot();
  SessionManager mgr(small_config(d, num_pages));
  const SessionManager::Stats base = mgr.stats();

  SessionManager::Stats prev = base;
  std::vector<float> row(static_cast<std::size_t>(d), 0.25f);
  std::vector<float> out(static_cast<std::size_t>(d));
  Rng rng(99);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  for (int round = 0; round < 60; ++round) {
    const int action = static_cast<int>(rng.next_u64() % 4);
    try {
      if (action == 0 || live.empty()) {
        const std::uint64_t id = next_id++;
        mgr.create(id, MaskSpec::make_local(LocalParams{2}));
        live.push_back(id);  // a failed prefill still leaves the session
        prefill_n(mgr, id, 2 + static_cast<Index>(rng.next_u64() % 8), d);
      } else if (action == 1) {
        mgr.decode_step(live.back(), row.data(), row.data(), row.data(), out.data());
      } else if (action == 2) {
        const std::uint64_t id = next_id++;
        mgr.fork(live.back(), id);
        live.push_back(id);
      } else {
        mgr.release(live.front());
        live.erase(live.begin());
      }
    } catch (const CacheFull&) {
      // Overload is part of the churn; the books must still balance.
    } catch (const SessionNotFound&) {
      // The victim was evicted under our feet — drop it from `live`.
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](std::uint64_t id) { return !mgr.contains(id); }),
               live.end());

    const SessionManager::Stats s = mgr.stats();
    // Monotone counters (gauges — sessions, pages, entries — are not).
    ASSERT_GE(s.evictions, prev.evictions);
    ASSERT_GE(s.decode_steps, prev.decode_steps);
    ASSERT_GE(s.decode_edges, prev.decode_edges);
    ASSERT_GE(s.prefix_lookups, prev.prefix_lookups);
    ASSERT_GE(s.prefix_hits, prev.prefix_hits);
    ASSERT_GE(s.prefix_published, prev.prefix_published);
    ASSERT_GE(s.prefix_reclaimed, prev.prefix_reclaimed);
    prev = s;

    // The pool balance closes on every snapshot.
    ASSERT_EQ(s.pages_in_use + s.pages_free, num_pages);
    ASSERT_EQ(s.sessions, live.size());
    ASSERT_LE(s.prefix_hits, s.prefix_lookups);
    // Index entries: every publish adds one, every reclaim drops one.
    ASSERT_EQ(static_cast<Size>(s.prefix_entries), s.prefix_published - s.prefix_reclaimed);
  }

  // Registry mirror moved in lockstep with the manager's own books.
  const obs::MetricsSnapshot reg1 = obs::Registry::global().snapshot();
  const SessionManager::Stats s = mgr.stats();
  auto delta = [&](const char* name) { return reg1.counter(name) - reg0.counter(name); };
  EXPECT_EQ(delta("kvcache.evictions"), s.evictions - base.evictions);
  EXPECT_EQ(delta("kvcache.decode.steps"), s.decode_steps - base.decode_steps);
  EXPECT_EQ(delta("kvcache.decode.edges"), s.decode_edges - base.decode_edges);
  EXPECT_EQ(delta("kvcache.prefix.lookups"), s.prefix_lookups - base.prefix_lookups);
  EXPECT_EQ(delta("kvcache.prefix.hits"), s.prefix_hits - base.prefix_hits);
  EXPECT_EQ(delta("kvcache.prefix.hits") + delta("kvcache.prefix.misses"),
            delta("kvcache.prefix.lookups"));
}

// Unproductive evictions (victim's pages all shared) must stay out of
// BOTH books — the local counter and the registry mirror.
TEST(SessionStats, UnproductiveEvictionCountsNowhere) {
  const Index d = 8;
  auto mc = small_config(d, 4);
  mc.prefix_dedup = false;
  const obs::MetricsSnapshot reg0 = obs::Registry::global().snapshot();
  SessionManager mgr(mc);
  mgr.create(1, MaskSpec::make_local(LocalParams{2}));
  prefill_n(mgr, 1, 4, d);
  mgr.fork(1, 2);
  mgr.set_pinned(2, true);

  mgr.create(3, MaskSpec::make_local(LocalParams{2}));
  EXPECT_THROW(prefill_n(mgr, 3, 6, d), CacheFull);  // evicts 1, frees nothing
  EXPECT_EQ(mgr.stats().evictions, 0u);
  const obs::MetricsSnapshot reg1 = obs::Registry::global().snapshot();
  EXPECT_EQ(reg1.counter("kvcache.evictions"), reg0.counter("kvcache.evictions"));

  mgr.set_pinned(2, false);
  prefill_n(mgr, 3, 6, d);  // now the fork's eviction frees pages
  EXPECT_EQ(mgr.stats().evictions, 1u);
  const obs::MetricsSnapshot reg2 = obs::Registry::global().snapshot();
  EXPECT_EQ(reg2.counter("kvcache.evictions"), reg0.counter("kvcache.evictions") + 1);
}

// --- fp16 (half-width) pages -----------------------------------------

/// Round-trips a matrix through fp16 via the scalar converters: the
/// exact values an fp16 page serves back at decode time.
Matrix<float> round_trip_fp16(const Matrix<float>& m) {
  Matrix<float> out(m.rows(), m.cols());
  const auto& vo = simd::ops(SimdLevel::Scalar);
  std::vector<half_t> h(static_cast<std::size_t>(m.cols()));
  for (Index i = 0; i < m.rows(); ++i) {
    vo.f2h(h.data(), m.row(i), m.cols());
    vo.h2f(out.row(i), h.data(), m.cols());
  }
  return out;
}

TEST(Fp16Pages, StoreNarrowsAndCopySlotsMovesHalfPayloads) {
  BlockPoolConfig cfg{/*page_size=*/4, /*head_dim=*/8, /*num_pages=*/4};
  cfg.dtype = DType::F16;
  BlockPool pool(cfg);
  EXPECT_EQ(pool.dtype(), DType::F16);
  EXPECT_EQ(pool.row_bytes(), 8 * sizeof(half_t));

  PageTable table;
  for (Index t = 0; t < 6; ++t) {
    const auto k = token_row(t, 8, 1.0f);
    const auto v = token_row(t, 8, 2.0f);
    ASSERT_TRUE(table.append(pool, k.data(), v.data()));
  }
  // Reads come back as the RNE-narrowed bits of what went in.
  for (Index t = 0; t < 6; ++t) {
    const auto k = token_row(t, 8, 1.0f);
    const auto v = token_row(t, 8, 2.0f);
    for (Index p = 0; p < 8; ++p) {
      EXPECT_EQ(table.k_row_h(pool, t)[p].bits(), half_t(k[static_cast<std::size_t>(p)]).bits());
      EXPECT_EQ(table.v_row_h(pool, t)[p].bits(), half_t(v[static_cast<std::size_t>(p)]).bits());
    }
  }

  // CoW through copy_slots preserves the half payloads byte-for-byte.
  PageTable child = table.fork(pool);
  const auto k6 = token_row(6, 8, 5.0f);
  const auto v6 = token_row(6, 8, 6.0f);
  ASSERT_TRUE(child.append(pool, k6.data(), v6.data()));
  EXPECT_NE(child.pages()[1], table.pages()[1]);
  for (Index t = 4; t < 6; ++t) {  // the CoW'd slots of the tail page
    for (Index p = 0; p < 8; ++p) {
      EXPECT_EQ(child.k_row_h(pool, t)[p].bits(), table.k_row_h(pool, t)[p].bits());
      EXPECT_EQ(child.v_row_h(pool, t)[p].bits(), table.v_row_h(pool, t)[p].bits());
    }
  }
  EXPECT_EQ(child.k_row_h(pool, 6)[0].bits(), half_t(k6[0]).bits());
  child.release_all(pool);
  table.release_all(pool);
}

TEST(Fp16Pages, DeviceSizedConfigDoublesPageCount) {
  // The Table II capacity claim in miniature: the same byte budget
  // yields 2× the pages (hence ~2× the cached sessions) at fp16.
  const DeviceSpec dev = DeviceSpec::host(1ull << 20);
  const BlockPoolConfig f32 = pool_config_for_device(dev, 64, 16, 1.0, DType::F32);
  const BlockPoolConfig f16 = pool_config_for_device(dev, 64, 16, 1.0, DType::F16);
  EXPECT_EQ(f16.dtype, DType::F16);
  EXPECT_EQ(f16.num_pages, 2 * f32.num_pages);
}

TEST(Fp16Pages, DecodeMatchesFp32DecodeOverRoundTrippedInputsBitwise) {
  // The sharp form of fp16-decode correctness: an fp16-page session is
  // bit-identical to an fp32-page session fed the round-tripped K/V —
  // widening is exact and the fp16 fold accumulates the same values in
  // the same order, so the ONLY difference fp16 pages introduce is the
  // storage quantisation itself.
  const Index n = 20, d = 33;
  Rng rng(77);
  Matrix<float> q(n, d), k(n, d), v(n, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  const Matrix<float> k_rt = round_trip_fp16(k);
  const Matrix<float> v_rt = round_trip_fp16(v);

  SessionManager::Config mc16;
  mc16.pool = {/*page_size=*/4, /*head_dim=*/d, /*num_pages=*/n / 4 + 2};
  mc16.pool.dtype = DType::F16;
  SessionManager::Config mc32 = mc16;
  mc32.pool.dtype = DType::F32;
  SessionManager mgr16(mc16), mgr32(mc32);
  mgr16.create(1, MaskSpec::make_local(LocalParams{5}));
  mgr32.create(1, MaskSpec::make_local(LocalParams{5}));

  std::vector<float> out16(static_cast<std::size_t>(d)), out32(static_cast<std::size_t>(d));
  for (Index t = 0; t < n; ++t) {
    mgr16.decode_step(1, q.row(t), k.row(t), v.row(t), out16.data());
    mgr32.decode_step(1, q.row(t), k_rt.row(t), v_rt.row(t), out32.data());
    for (Index p = 0; p < d; ++p) {
      ASSERT_EQ(out16[static_cast<std::size_t>(p)], out32[static_cast<std::size_t>(p)])
          << "t=" << t << " col " << p;
    }
  }
}

TEST(Fp16Pages, DecodeWithinFp16RepresentationErrorOfFp32Decode) {
  // Same stream into an fp32-page and an fp16-page manager: outputs
  // drift only by the fp16 quantisation of the cached K/V. For O(1)
  // inputs the softmax-weighted combination keeps that within ~2e-3;
  // 1e-2 is comfortable headroom, and a storage-path bug (wrong row,
  // garbled narrowing) lands orders of magnitude outside it.
  const Index n = 24, d = 64;
  Rng rng(91);
  Matrix<float> q(n, d), k(n, d), v(n, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);

  SessionManager::Config mc16;
  mc16.pool = {/*page_size=*/4, /*head_dim=*/d, /*num_pages=*/n / 4 + 2};
  mc16.pool.dtype = DType::F16;
  SessionManager::Config mc32 = mc16;
  mc32.pool.dtype = DType::F32;
  SessionManager mgr16(mc16), mgr32(mc32);
  mgr16.create(1, MaskSpec::make_local(LocalParams{6}));
  mgr32.create(1, MaskSpec::make_local(LocalParams{6}));

  std::vector<float> out16(static_cast<std::size_t>(d)), out32(static_cast<std::size_t>(d));
  float worst = 0.0f;
  for (Index t = 0; t < n; ++t) {
    mgr16.decode_step(1, q.row(t), k.row(t), v.row(t), out16.data());
    mgr32.decode_step(1, q.row(t), k.row(t), v.row(t), out32.data());
    for (Index p = 0; p < d; ++p) {
      worst = std::max(worst, std::abs(out16[static_cast<std::size_t>(p)] -
                                       out32[static_cast<std::size_t>(p)]));
    }
  }
  EXPECT_LT(worst, 1e-2f);
  EXPECT_GT(worst, 0.0f);  // the quantisation is real, not a no-op path
}

TEST(Fp16Pages, PrefillAndPrefixDedupShareHalfPages) {
  // The prompt cache works unchanged over fp16 pools: byte verification
  // compares RNE-narrowed rows (deterministic bits), and the chain tag
  // keeps fp16 chains disjoint from fp32 chains of the same prompt.
  const Index d = 16, ps = 4, prompt_len = 8;
  SessionManager::Config mc;
  mc.pool = {ps, d, 32};
  mc.pool.dtype = DType::F16;
  mc.prefix_dedup = true;
  SessionManager mgr(mc);

  Rng rng(123);
  Matrix<float> q(prompt_len, d), k(prompt_len, d), v(prompt_len, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> out(prompt_len, d);
  mgr.create(1, MaskSpec::make_local(LocalParams{3}));
  mgr.prefill(1, q, k, v, out);
  const Index pages_first = mgr.pool().pages_in_use();

  mgr.create(2, MaskSpec::make_local(LocalParams{3}));
  Matrix<float> out2(prompt_len, d);
  mgr.prefill(2, q, k, v, out2);
  // The second session adopted the full prompt pages by reference.
  EXPECT_EQ(mgr.stats().pages_deduped, static_cast<Size>(prompt_len / ps));
  EXPECT_EQ(mgr.pool().pages_in_use(), pages_first);
  // And its prefill output is identical (attention reads the contiguous
  // inputs either way).
  EXPECT_EQ(max_abs_diff(out, out2), 0.0);
}

}  // namespace
}  // namespace gpa::kvcache

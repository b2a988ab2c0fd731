// Serving-layer tests: admission control, dynamic batching compatibility
// rules, deadline handling, clean shutdown with in-flight requests,
// stats funnel and bounded stats memory, and single-request parity with
// a direct kernel call (the serving layer must be a scheduling layer,
// never a numerics layer).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "core/graph_attention.hpp"
#include "core/multihead.hpp"
#include "kvcache/kvcache.hpp"
#include "serve/serve.hpp"
#include "sparse/build.hpp"
#include "tensor/tensor_ops.hpp"

namespace gpa::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const RequestData> make_payload(Index L, Index d, std::uint64_t seed) {
  auto data = std::make_shared<RequestData>();
  data->q = Matrix<float>(L, d);
  data->k = Matrix<float>(L, d);
  data->v = Matrix<float>(L, d);
  Rng rng(seed);
  fill_uniform(data->q, rng);
  fill_uniform(data->k, rng);
  fill_uniform(data->v, rng);
  return data;
}

/// ServerConfig from the three knobs the suites vary (the rest stay
/// at their defaults, including the absent session backend).
ServerConfig make_config(int workers, std::size_t queue_capacity, BatchPolicy policy = {}) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.policy = policy;
  return cfg;
}

Request make_test_request(std::shared_ptr<const RequestData> data,
                          std::shared_ptr<const Csr<float>> mask,
                          MultiHeadDims dims = {1, 0}) {
  Request r;
  r.data = std::move(data);
  r.mask = std::move(mask);
  r.dims = dims;
  return r;
}

// --- end-to-end numerics --------------------------------------------

TEST(ServeParity, SingleRequestMatchesDirectKernelCall) {
  const Index L = 48, d = 16;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.2, 5}));
  auto payload = make_payload(L, d, 901);

  Server server(make_config(1, 8, BatchPolicy{1, 0us}));
  auto fut = server.submit(make_test_request(payload, mask));
  const Response resp = fut.get();
  ASSERT_EQ(resp.status, ResponseStatus::Ok);
  EXPECT_EQ(resp.batch_size, 1);

  Matrix<float> direct(L, d);
  csr_attention(payload->q, payload->k, payload->v, *mask, direct);
  EXPECT_EQ(max_abs_diff(resp.output, direct), 0.0);
}

TEST(ServeParity, MultiHeadAndCausalRequestsMatchDirectCalls) {
  const Index L = 32, heads = 2, hd = 8;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{4}));
  auto payload = make_payload(L, heads * hd, 902);

  Server server(make_config(1, 8, BatchPolicy{4, 0us}));

  Request mh = make_test_request(payload, mask, MultiHeadDims{heads, hd});
  const Response mh_resp = server.submit(std::move(mh)).get();
  ASSERT_EQ(mh_resp.status, ResponseStatus::Ok);
  Matrix<float> direct(L, heads * hd);
  multihead_csr_attention(payload->q, payload->k, payload->v, MultiHeadDims{heads, hd}, *mask,
                          direct);
  EXPECT_EQ(max_abs_diff(mh_resp.output, direct), 0.0);

  Request causal = make_test_request(payload, mask);
  causal.opts.causal = true;
  const Response c_resp = server.submit(std::move(causal)).get();
  ASSERT_EQ(c_resp.status, ResponseStatus::Ok);
  Matrix<float> direct_causal(L, heads * hd);
  AttentionOptions o;
  o.causal = true;
  csr_attention(payload->q, payload->k, payload->v, *mask, direct_causal, o);
  EXPECT_EQ(max_abs_diff(c_resp.output, direct_causal), 0.0);
}

TEST(ServeParity, NestedBatchAndItemPoliciesStayBitIdentical) {
  // Both dispatch levels parallel at once: the substrate's nesting
  // guard must degrade the per-item kernel to serial inside the
  // cross-item loop (no thread multiplication) without changing a
  // single bit of the output.
  const Index L = 48, d = 16;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.25, 11}));

  ServerConfig cfg = make_config(1, 64, BatchPolicy{8, 2000us});
  cfg.batch_policy = ExecPolicy{4, 1, Schedule::Dynamic};
  cfg.item_policy = ExecPolicy{4, 16, Schedule::Static};
  Server server(std::move(cfg));

  std::vector<std::shared_ptr<const RequestData>> payloads;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(make_payload(L, d, 7000 + static_cast<std::uint64_t>(i)));
    futures.push_back(server.submit(make_test_request(payloads.back(), mask)));
  }
  for (int i = 0; i < 8; ++i) {
    const Response resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok) << "request " << i;
    const auto& p = *payloads[static_cast<std::size_t>(i)];
    Matrix<float> direct(L, d);
    csr_attention(p.q, p.k, p.v, *mask, direct);
    EXPECT_EQ(max_abs_diff(resp.output, direct), 0.0) << "request " << i;
  }
}

TEST(ServeParity, MixedMaskTrafficStaysIsolated) {
  // Two same-shape masks interleaved: if the batcher ever mixed keys,
  // the minority mask's requests would be computed under the wrong mask
  // and fail parity.
  const Index L = 40, d = 8;
  auto mask_a = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{3}));
  auto mask_b = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.3, 9}));
  ASSERT_NE(mask_fingerprint(*mask_a), mask_fingerprint(*mask_b));

  Server server(make_config(2, 64, BatchPolicy{8, 500us}));
  std::vector<std::shared_ptr<const RequestData>> payloads;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back(make_payload(L, d, 1000 + static_cast<std::uint64_t>(i)));
    futures.push_back(
        server.submit(make_test_request(payloads.back(), i % 2 == 0 ? mask_a : mask_b)));
  }
  for (int i = 0; i < 24; ++i) {
    const Response resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok) << "request " << i;
    const auto& mask = i % 2 == 0 ? *mask_a : *mask_b;
    const auto& p = *payloads[static_cast<std::size_t>(i)];
    Matrix<float> direct(L, d);
    csr_attention(p.q, p.k, p.v, mask, direct);
    EXPECT_EQ(max_abs_diff(resp.output, direct), 0.0) << "request " << i;
  }
}

// --- batcher grouping (deterministic, no worker threads) -------------

Request keyed_request(std::shared_ptr<const RequestData> data,
                      std::shared_ptr<const Csr<float>> mask, std::uint64_t fp) {
  Request r = make_test_request(std::move(data), std::move(mask));
  r.key = BatchKey{fp, r.data->q.rows(), r.data->q.cols(), 1, DType::F32};
  r.enqueue_time = Clock::now();
  return r;
}

TEST(DynamicBatcherTest, NeverMixesKeysAndLeavesOthersQueued) {
  const Index L = 8, d = 4;
  auto mask_a = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  auto mask_b = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{2}));
  auto payload = make_payload(L, d, 7);

  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatchPolicy{8, 0us});
  const std::uint64_t fp_a = mask_fingerprint(*mask_a);
  const std::uint64_t fp_b = mask_fingerprint(*mask_b);
  for (int i = 0; i < 5; ++i) {
    Request r = keyed_request(payload, i % 2 == 0 ? mask_a : mask_b, i % 2 == 0 ? fp_a : fp_b);
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::Ok);
  }

  PoppedBatch pb;
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 3u);  // the three mask_a requests
  for (const auto& r : pb.batch) EXPECT_EQ(r.key.mask_fp, fp_a);
  EXPECT_TRUE(pb.expired.empty());
  EXPECT_EQ(queue.size(), 2u);  // mask_b requests untouched

  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 2u);
  for (const auto& r : pb.batch) EXPECT_EQ(r.key.mask_fp, fp_b);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(DynamicBatcherTest, RespectsMaxBatchCeiling) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  auto payload = make_payload(L, d, 8);
  const std::uint64_t fp = mask_fingerprint(*mask);

  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatchPolicy{4, 0us});
  for (int i = 0; i < 10; ++i) {
    Request r = keyed_request(payload, mask, fp);
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::Ok);
  }
  PoppedBatch pb;
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 4u);
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 4u);
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 2u);
}

TEST(DynamicBatcherTest, ExpiredRequestsAreReturnedSeparately) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  auto payload = make_payload(L, d, 9);
  const std::uint64_t fp = mask_fingerprint(*mask);

  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatchPolicy{8, 0us});
  Request stale = keyed_request(payload, mask, fp);
  stale.deadline = Clock::now() - 1ms;
  ASSERT_EQ(queue.try_push(stale), RequestQueue::Push::Ok);
  Request fresh = keyed_request(payload, mask, fp);
  ASSERT_EQ(queue.try_push(fresh), RequestQueue::Push::Ok);

  PoppedBatch pb;
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 1u);
  EXPECT_EQ(pb.expired.size(), 1u);
}

TEST(DynamicBatcherTest, AllExpiredQueueDeliversPromptly) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  auto payload = make_payload(L, d, 10);
  const std::uint64_t fp = mask_fingerprint(*mask);

  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatchPolicy{8, 60s});  // long window must not matter
  for (int i = 0; i < 3; ++i) {
    Request r = keyed_request(payload, mask, fp);
    r.deadline = Clock::now() - 1ms;
    ASSERT_EQ(queue.try_push(r), RequestQueue::Push::Ok);
  }
  PoppedBatch pb;
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_TRUE(pb.batch.empty());
  EXPECT_EQ(pb.expired.size(), 3u);
}

TEST(DynamicBatcherTest, DeadlineTighterThanWindowDispatchesImmediately) {
  // A short batch may hold its slot for max_wait hoping for compatible
  // arrivals — but never at the cost of a member's deadline. A lone
  // request whose deadline falls inside the window must be dispatched
  // right away (with service headroom), not held and then shed.
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  auto payload = make_payload(L, d, 21);
  const std::uint64_t fp = mask_fingerprint(*mask);

  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatchPolicy{4, 200'000us});  // 200ms window
  Request r = keyed_request(payload, mask, fp);
  r.deadline = Clock::now() + 50ms;
  ASSERT_EQ(queue.try_push(r), RequestQueue::Push::Ok);

  PoppedBatch pb;
  const auto t0 = Clock::now();
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_LT(Clock::now() - t0, 50ms);  // neither the window nor the deadline was waited out
  ASSERT_EQ(pb.batch.size(), 1u);      // served, not shed
  EXPECT_TRUE(pb.expired.empty());
}

// --- admission control and shutdown ----------------------------------

TEST(ServeAdmission, ExpiredDeadlineRejectedAtSubmit) {
  const Index L = 16, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{2}));
  Server server(make_config(1, 8));
  Request r = make_test_request(make_payload(L, d, 11), mask);
  r.deadline = Clock::now() - 1ms;
  const Response resp = server.submit(std::move(r)).get();
  EXPECT_EQ(resp.status, ResponseStatus::RejectedDeadline);
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
}

TEST(ServeAdmission, QueueFullBackpressure) {
  const Index L = 16, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{2}));
  auto payload = make_payload(L, d, 12);
  ServerConfig cfg;
  cfg.workers = 0;  // nothing drains: admission is exactly the capacity
  cfg.queue_capacity = 2;
  Server server(cfg);

  auto f1 = server.submit(make_test_request(payload, mask));
  auto f2 = server.submit(make_test_request(payload, mask));
  auto f3 = server.submit(make_test_request(payload, mask));
  const Response r3 = f3.get();  // rejected immediately, no worker needed
  EXPECT_EQ(r3.status, ResponseStatus::RejectedQueueFull);
  EXPECT_EQ(server.queue_depth(), 2u);

  server.shutdown();  // queued-but-never-run requests still resolve
  EXPECT_EQ(f1.get().status, ResponseStatus::RejectedShutdown);
  EXPECT_EQ(f2.get().status, ResponseStatus::RejectedShutdown);
  const auto s = server.stats();
  EXPECT_EQ(s.rejected_queue_full, 1u);
  EXPECT_EQ(s.rejected_shutdown, 2u);
}

TEST(ServeAdmission, ZeroCapacityQueueShedsEverythingAndShutsDownCleanly) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 0;
  Server server(cfg);
  const Response resp = server.submit(make_test_request(make_payload(L, d, 13), mask)).get();
  EXPECT_EQ(resp.status, ResponseStatus::RejectedQueueFull);
  // Destructor exercises shutdown with a worker parked on an empty queue.
}

TEST(ServeAdmission, SubmitAfterShutdownIsRejected) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  Server server(make_config(1, 8));
  server.shutdown();
  const Response resp = server.submit(make_test_request(make_payload(L, d, 14), mask)).get();
  EXPECT_EQ(resp.status, ResponseStatus::RejectedShutdown);
}

TEST(ServeAdmission, MalformedRequestsThrow) {
  const Index L = 8, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{1}));
  Server server(make_config(0, 8));

  Request no_mask = make_test_request(make_payload(L, d, 15), nullptr);
  EXPECT_THROW(server.submit(std::move(no_mask)), InvalidArgument);

  Request wrong_len = make_test_request(make_payload(L + 1, d, 16), mask);
  EXPECT_THROW(server.submit(std::move(wrong_len)), InvalidArgument);

  Request bad_heads = make_test_request(make_payload(L, d, 17), mask, MultiHeadDims{3, 2});
  EXPECT_THROW(server.submit(std::move(bad_heads)), InvalidArgument);

  // Rejected-at-validation requests never enter the stats funnel, so
  // submitted always balances against terminal outcomes.
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(ServeShutdown, ZeroRequestLifecycleIsClean) {
  {
    Server server(make_config(2, 16));
  }  // destructor only
  Server server(make_config(2, 16));
  server.shutdown();
  server.shutdown();  // idempotent
}

TEST(ServeShutdown, InFlightRequestsAllResolve) {
  const Index L = 64, d = 16;
  auto mask = std::make_shared<const Csr<float>>(build_csr_random(L, RandomParams{0.3, 21}));
  auto payload = make_payload(L, d, 18);
  Server server(make_config(2, 128, BatchPolicy{4, 100us}));

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(server.submit(make_test_request(payload, mask)));
  server.shutdown();  // races the workers mid-drain by design

  Size ok = 0, shed = 0;
  for (auto& f : futures) {
    const Response resp = f.get();  // every future MUST be satisfied
    if (resp.status == ResponseStatus::Ok) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, ResponseStatus::RejectedShutdown);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 64u);
  // close() drains: everything admitted before shutdown() completes Ok.
  EXPECT_EQ(shed, 0u);
  const auto s = server.stats();
  EXPECT_EQ(s.completed_ok, ok);
  EXPECT_EQ(s.submitted, 64u);
}

// --- statistics -------------------------------------------------------

TEST(ServeStats, FunnelAndOccupancyInvariants) {
  const Index L = 32, d = 8;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{2}));
  auto payload = make_payload(L, d, 19);
  Server server(make_config(1, 64, BatchPolicy{8, 2000us}));

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(server.submit(make_test_request(payload, mask)));
  for (auto& f : futures) ASSERT_EQ(f.get().status, ResponseStatus::Ok);

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, 32u);
  EXPECT_EQ(s.completed_ok, 32u);
  EXPECT_EQ(s.latency_ms.samples, 32u);
  EXPECT_GE(s.batches, 1u);
  Size occupancy_total = 0, weighted = 0;
  for (std::size_t b = 0; b < s.occupancy.size(); ++b) {
    EXPECT_LE(static_cast<Index>(b), 8) << "occupancy above max_batch";
    occupancy_total += s.occupancy[b];
    weighted += s.occupancy[b] * static_cast<Size>(b);
  }
  EXPECT_EQ(occupancy_total, s.batches);
  EXPECT_EQ(weighted, 32u);  // every request rode exactly one batch
  EXPECT_LE(s.latency_ms.p50, s.latency_ms.p95);
  EXPECT_LE(s.latency_ms.p95, s.latency_ms.p99);
  EXPECT_LE(s.latency_ms.p99, s.latency_ms.max);
  EXPECT_GE(s.mean_batch_occupancy, 1.0);
}

// Stats memory is fixed by configuration, not by requests served: ten
// million completions cost no more memory than the first ten thousand.
TEST(ServeStats, MemoryStaysFlatOverTenMillionCompletions) {
  const auto peak_rss_kb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;  // KiB on Linux
  };
  ServerStats stats(/*max_batch=*/8);
  constexpr int kWarm = 10'000;
  constexpr int kTotal = 10'000'000;
  const auto record = [&stats](int i) {
    stats.record_completion(100.0 + i % 977, 50.0 + i % 311);
  };
  for (int i = 0; i < kWarm; ++i) record(i);
  const long after_warm = peak_rss_kb();
  for (int i = kWarm; i < kTotal; ++i) record(i);
  EXPECT_LE(peak_rss_kb() - after_warm, 1024);
  EXPECT_EQ(stats.snapshot().completed_ok, static_cast<Size>(kTotal));
}

TEST(ServeStats, PreallocatedOutputRoundTripsWithoutRealloc) {
  const Index L = 16, d = 4;
  auto mask = std::make_shared<const Csr<float>>(build_csr_local(L, LocalParams{2}));
  auto payload = make_payload(L, d, 20);
  Server server(make_config(1, 8, BatchPolicy{1, 0us}));

  Request r = make_test_request(payload, mask);
  r.output = Matrix<float>(L, d);
  const float* buf = r.output.data();
  const Response resp = server.submit(std::move(r)).get();
  ASSERT_EQ(resp.status, ResponseStatus::Ok);
  EXPECT_EQ(resp.output.data(), buf);  // same buffer, no server-side realloc
}

// --- load generators --------------------------------------------------

TEST(LoadGen, ClosedLoopCompletesEveryRequest) {
  auto wl = make_csr_workload(32, 8, 0.1, 33, /*pool=*/2);
  Server server(make_config(1, 64, BatchPolicy{4, 100us}));
  LoadGenConfig cfg;
  cfg.requests = 40;
  cfg.clients = 4;
  const auto res = run_closed_loop(server, wl, cfg);
  EXPECT_EQ(res.completed, 40u);
  EXPECT_EQ(res.rejected, 0u);
  EXPECT_GT(res.rps, 0.0);
}

TEST(LoadGen, OpenLoopHonorsScheduleAndCollectsAll) {
  auto wl = make_csr_workload(32, 8, 0.1, 34, /*pool=*/2);
  Server server(make_config(1, 64, BatchPolicy{4, 100us}));
  LoadGenConfig cfg;
  cfg.requests = 20;
  cfg.arrival_hz = 2000.0;
  const auto res = run_open_loop(server, wl, cfg);
  EXPECT_EQ(res.completed + res.rejected, 20u);
  EXPECT_EQ(res.rejected, 0u);  // capacity 64 queue cannot shed 20 requests
  EXPECT_GE(res.wall_s, 19.0 / 2000.0);  // schedule actually paced arrivals
}

// --- priority scheduling ----------------------------------------------

/// A queue-only request: pop_batch reads key/priority/deadline, nothing
/// else, so the payload can stay empty. Distinct keys keep every pop a
/// single request (no coalescing), isolating the pop ORDER under test.
Request bare_request(std::uint64_t id, int priority) {
  Request r;
  r.id = id;
  r.priority = priority;
  r.key = BatchKey{/*mask_fp=*/id, 1, 1, 1, DType::F32};
  return r;
}

TEST(RequestQueuePriority, HigherPriorityPopsFirstFifoWithinLevel) {
  RequestQueue q(16);
  // Arrival order: low, low, HIGH, low, HIGH — service order must be
  // HIGH(3), HIGH(5), then the lows in arrival order 1, 2, 4.
  for (const auto& [id, prio] : std::vector<std::pair<std::uint64_t, int>>{
           {1, 0}, {2, 0}, {3, 5}, {4, 0}, {5, 5}}) {
    Request r = bare_request(id, prio);
    ASSERT_EQ(q.try_push(r), RequestQueue::Push::Ok);
  }
  std::vector<std::uint64_t> order;
  std::vector<Request> batch, expired;
  while (q.size() > 0) {
    ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch.front().id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 5, 1, 2, 4}));
}

TEST(RequestQueuePriority, EqualPriorityIsStarvationFreeFifo) {
  // With one priority level the queue must be plain FIFO: no request is
  // ever overtaken, so every request is served after at most (queue
  // length at its arrival) pops — starvation-freedom for equal priority.
  RequestQueue q(64);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    Request r = bare_request(id, 3);
    ASSERT_EQ(q.try_push(r), RequestQueue::Push::Ok);
  }
  std::vector<Request> batch, expired;
  for (std::uint64_t expect = 1; expect <= 20; ++expect) {
    ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().id, expect);
  }
}

TEST(RequestQueuePriority, DeadlineAgingBumpsOneClassAndKeepsFifoWithinIt) {
  // Aging enabled: a low-priority request whose deadline is closing in
  // competes one class up, so a steady high-priority stream can no
  // longer starve it past its deadline — cross-class starvation-freedom.
  RequestQueue q(64, /*age_threshold=*/std::chrono::microseconds{60'000'000});
  const TimePoint now = Clock::now();

  // Arrival order: HIGH(1), low-with-near-deadline(2), HIGH(3), HIGH(4).
  // The near-deadline low ages into the high class at selection time;
  // FIFO within the (effective) class then orders 1, 2, 3, 4 — the aged
  // request overtakes nobody that arrived before it, and every HIGH that
  // arrived after it is served after it.
  Request h1 = bare_request(1, 1);
  Request low = bare_request(2, 0);
  low.deadline = now + std::chrono::seconds{30};  // inside the threshold
  Request h3 = bare_request(3, 1);
  Request h4 = bare_request(4, 1);
  for (Request* r : {&h1, &low, &h3, &h4}) ASSERT_EQ(q.try_push(*r), RequestQueue::Push::Ok);

  std::vector<std::uint64_t> order;
  std::vector<Request> batch, expired;
  while (q.size() > 0) {
    ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
    ASSERT_EQ(batch.size(), 1u);
    ASSERT_TRUE(expired.empty());
    order.push_back(batch.front().id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4}));

  // The bump is ONE class: an aged priority-0 request does not leapfrog
  // a priority-2 one.
  Request top = bare_request(10, 2);
  Request aged = bare_request(11, 0);
  aged.deadline = now + std::chrono::seconds{30};
  ASSERT_EQ(q.try_push(aged), RequestQueue::Push::Ok);
  ASSERT_EQ(q.try_push(top), RequestQueue::Push::Ok);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 10u);

  // A far deadline (outside the threshold) does not age: plain priority.
  Request far = bare_request(20, 0);
  far.deadline = now + std::chrono::seconds{120};
  Request high = bare_request(21, 1);
  // (drain the leftover aged request first)
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  ASSERT_EQ(q.try_push(far), RequestQueue::Push::Ok);
  ASSERT_EQ(q.try_push(high), RequestQueue::Push::Ok);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 21u);
}

TEST(RequestQueuePriority, AgingDisabledByDefaultPreservesStrictClasses) {
  RequestQueue q(16);  // no age_threshold: submitted classes are final
  const TimePoint now = Clock::now();
  Request low = bare_request(1, 0);
  low.deadline = now + std::chrono::seconds{30};
  Request high = bare_request(2, 1);
  ASSERT_EQ(q.try_push(low), RequestQueue::Push::Ok);
  ASSERT_EQ(q.try_push(high), RequestQueue::Push::Ok);
  std::vector<Request> batch, expired;
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 2u);
}

// --- decode requests (KV-cache sessions) ------------------------------

kvcache::SessionManager::Config decode_manager_config(Index d) {
  kvcache::SessionManager::Config mc;
  mc.pool.page_size = 4;
  mc.pool.head_dim = d;
  mc.pool.num_pages = 64;
  return mc;
}

TEST(ServeDecode, DecodeThroughServerMatchesDirectManagerCall) {
  const Index L = 12, d = 16, steps = 8;
  auto mask =
      std::make_shared<const Csr<float>>(build_csr_random(L + steps, RandomParams{0.3, 21}));
  Rng rng(501);
  Matrix<float> q(L + steps, d), k(L + steps, d), v(L + steps, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> qp(L, d), kp(L, d), vp(L, d), out(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) {
      qp(i, p) = q(i, p);
      kp(i, p) = k(i, p);
      vp(i, p) = v(i, p);
    }
  }

  // Reference: a manager driven directly.
  kvcache::SessionManager direct(decode_manager_config(d));
  direct.create(1, kvcache::MaskSpec::make_csr(mask));
  direct.prefill(1, qp, kp, vp, out);

  // Same session state behind a server.
  ServerConfig cfg = make_config(2, 32, BatchPolicy{4, 50us});
  cfg.sessions = std::make_shared<kvcache::SessionManager>(decode_manager_config(d));
  cfg.sessions->create(1, kvcache::MaskSpec::make_csr(mask));
  cfg.sessions->prefill(1, qp, kp, vp, out);
  Server server(std::move(cfg));

  for (Index t = L; t < L + steps; ++t) {
    Matrix<float> qr(1, d), kr(1, d), vr(1, d), want(1, d);
    for (Index p = 0; p < d; ++p) {
      qr(0, p) = q(t, p);
      kr(0, p) = k(t, p);
      vr(0, p) = v(t, p);
    }
    direct.decode_step(1, qr, kr, vr, want);
    const Response resp =
        server.submit(make_decode_request(1, std::move(qr), std::move(kr), std::move(vr)))
            .get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok);
    ASSERT_EQ(resp.output.rows(), 1);
    for (Index p = 0; p < d; ++p) ASSERT_EQ(resp.output(0, p), want(0, p)) << "col " << p;
  }
  EXPECT_EQ(server.sessions()->length(1), L + steps);
}

TEST(ServeDecode, ComposedMaskSessionDecodesThroughTheServer) {
  // Composed-mask decode admission: a session whose mask is a chained
  // local ∘ global (longformer) composition serves tokens through the
  // server exactly as a direct manager drive — the serving layer needs
  // no knowledge of the composition, it lives behind the session id.
  const Index L = 10, d = 16, steps = 6;
  const LocalParams lp{3};
  GlobalMinusLocalParams gp;
  gp.global.tokens = {0, 4};
  gp.local.window = 3;
  const auto spec = kvcache::MaskSpec::compose(
      {MaskTraversal::local(lp), MaskTraversal::global(gp)});

  Rng rng(733);
  Matrix<float> q(L + steps, d), k(L + steps, d), v(L + steps, d);
  fill_uniform(q, rng);
  fill_uniform(k, rng);
  fill_uniform(v, rng);
  Matrix<float> qp(L, d), kp(L, d), vp(L, d), out(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) {
      qp(i, p) = q(i, p);
      kp(i, p) = k(i, p);
      vp(i, p) = v(i, p);
    }
  }

  kvcache::SessionManager direct(decode_manager_config(d));
  direct.create(1, spec);
  direct.prefill(1, qp, kp, vp, out);

  ServerConfig cfg = make_config(2, 32, BatchPolicy{4, 50us});
  cfg.sessions = std::make_shared<kvcache::SessionManager>(decode_manager_config(d));
  cfg.sessions->create(1, spec);
  cfg.sessions->prefill(1, qp, kp, vp, out);
  Server server(std::move(cfg));

  for (Index t = L; t < L + steps; ++t) {
    Matrix<float> qr(1, d), kr(1, d), vr(1, d), want(1, d);
    for (Index p = 0; p < d; ++p) {
      qr(0, p) = q(t, p);
      kr(0, p) = k(t, p);
      vr(0, p) = v(t, p);
    }
    direct.decode_step(1, qr, kr, vr, want);
    const Response resp =
        server.submit(make_decode_request(1, std::move(qr), std::move(kr), std::move(vr)))
            .get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok);
    for (Index p = 0; p < d; ++p) ASSERT_EQ(resp.output(0, p), want(0, p)) << "col " << p;
  }
  EXPECT_EQ(server.sessions()->length(1), L + steps);
}

TEST(ServeDecode, UnknownSessionAndMissingManagerRejectCleanly) {
  const Index d = 8;
  Matrix<float> row(1, d);
  row.fill(0.5f);

  // No session backend configured: typed rejection at admission.
  {
    Server server(make_config(1, 8, BatchPolicy{1, 0us}));
    const Response resp =
        server.submit(make_decode_request(9, row, row, row)).get();
    EXPECT_EQ(resp.status, ResponseStatus::RejectedSession);
    EXPECT_EQ(server.stats().rejected_session, 1u);
  }
  // Backend present but the session id was never created (or was
  // evicted): typed rejection at dispatch; other requests unaffected.
  {
    ServerConfig cfg = make_config(1, 8, BatchPolicy{1, 0us});
    cfg.sessions = std::make_shared<kvcache::SessionManager>(decode_manager_config(d));
    Server server(std::move(cfg));
    const Response resp =
        server.submit(make_decode_request(9, row, row, row)).get();
    EXPECT_EQ(resp.status, ResponseStatus::RejectedSession);
    const auto s = server.stats();
    EXPECT_EQ(s.rejected_session, 1u);
    EXPECT_EQ(s.internal_errors, 0u);  // a missing session is not a crash
  }
  // Width mismatch against the pool is a contract violation caught at
  // admission — run_decode uses the unchecked raw-pointer
  // decode_step, so letting it through would corrupt memory.
  {
    ServerConfig cfg = make_config(1, 8, BatchPolicy{1, 0us});
    cfg.sessions = std::make_shared<kvcache::SessionManager>(decode_manager_config(d));
    Server server(std::move(cfg));
    Matrix<float> wide(1, d * 2);
    wide.fill(0.5f);
    EXPECT_THROW(server.submit(make_decode_request(1, wide, wide, wide)), InvalidArgument);
  }
}

TEST(ServeDecode, DecodeAndAttentionKeysNeverCompareEqual) {
  // Same width/heads/dtype, but different dispatch families: the batch
  // key MUST keep them apart (a decode row under an attention kernel
  // would read a mask it does not have).
  const BatchKey attention{/*mask_fp=*/0, /*seq_len=*/0, /*width=*/64, 1, DType::F32,
                           static_cast<std::uint8_t>(RequestKind::Attention)};
  const BatchKey decode{0, 0, 64, 1, DType::F32,
                        static_cast<std::uint8_t>(RequestKind::Decode)};
  EXPECT_FALSE(attention == decode);
  EXPECT_NE(attention.hash(), decode.hash());
}

// --- pattern requests + seq_len-bucketed admission -------------------

TEST(ServePattern, BucketCeilingPicksSmallestFittingBucket) {
  const std::vector<Index> buckets{16, 32, 64};
  EXPECT_EQ(bucket_ceiling(buckets, 1), 16);
  EXPECT_EQ(bucket_ceiling(buckets, 16), 16);
  EXPECT_EQ(bucket_ceiling(buckets, 17), 32);
  EXPECT_EQ(bucket_ceiling(buckets, 64), 64);
  EXPECT_EQ(bucket_ceiling(buckets, 65), 65);  // above the ladder: exact
  EXPECT_EQ(bucket_ceiling({}, 40), 40);       // no buckets: exact
}

TEST(ServePattern, SingleRequestMatchesDirectCausalKernel) {
  const Index L = 24, d = 16, w = 5;
  auto pattern = std::make_shared<const kvcache::MaskSpec>(
      kvcache::MaskSpec::make_local(LocalParams{w}));
  auto p = make_payload(L, d, 3100);

  Server server(make_config(1, 8, BatchPolicy{1, 0us}));
  Matrix<float> q = p->q, k = p->k, v = p->v;
  const Response resp =
      server.submit(make_pattern_request(std::move(q), std::move(k), std::move(v), pattern))
          .get();
  ASSERT_EQ(resp.status, ResponseStatus::Ok);

  Matrix<float> direct(L, d);
  AttentionOptions o;
  o.causal = true;
  local_attention(p->q, p->k, p->v, LocalParams{w}, direct, o);
  EXPECT_EQ(max_abs_diff(resp.output, direct), 0.0);
}

TEST(ServePattern, BucketedMixedLengthsCoalesceAndStayBitExact) {
  // Lengths 9..14 all ceil to bucket 16 and share one BatchKey; every
  // item still runs at its OWN true length, so the batched outputs must
  // be bit-identical to per-length direct kernel calls — bucketing may
  // only ever change who rides together.
  const Index d = 8, w = 4;
  const std::vector<Index> lengths{9, 11, 12, 14, 10, 13};
  auto pattern = std::make_shared<const kvcache::MaskSpec>(
      kvcache::MaskSpec::make_local(LocalParams{w}));

  BatchPolicy policy{/*max_batch=*/8, /*max_wait=*/200'000us};
  policy.seq_buckets = {16, 32};
  Server server(make_config(1, 64, policy));

  std::vector<std::shared_ptr<const RequestData>> payloads;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    payloads.push_back(make_payload(lengths[i], d, 5200 + static_cast<std::uint64_t>(i)));
    Matrix<float> q = payloads.back()->q, k = payloads.back()->k, v = payloads.back()->v;
    futures.push_back(
        server.submit(make_pattern_request(std::move(q), std::move(k), std::move(v), pattern)));
  }

  Index max_occupancy = 0;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const Response resp = futures[i].get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok) << "request " << i;
    max_occupancy = std::max(max_occupancy, resp.batch_size);
    Matrix<float> direct(lengths[i], d);
    AttentionOptions o;
    o.causal = true;
    local_attention(payloads[i]->q, payloads[i]->k, payloads[i]->v, LocalParams{w}, direct, o);
    EXPECT_EQ(max_abs_diff(resp.output, direct), 0.0) << "request " << i;
  }
  // All six shared a key and arrived within one coalescing window:
  // batching must have actually happened.
  EXPECT_GT(max_occupancy, 1);
}

TEST(ServePattern, ExactAdmissionKeepsDifferentLengthsApart) {
  // Without seq_buckets the key carries the true length: near-length
  // requests never share a batch even inside a generous window.
  const Index d = 8;
  auto pattern = std::make_shared<const kvcache::MaskSpec>(
      kvcache::MaskSpec::make_local(LocalParams{3}));
  Server server(make_config(1, 16, BatchPolicy{8, 100'000us}));

  std::vector<std::future<Response>> futures;
  for (const Index L : {10, 11, 12}) {
    auto p = make_payload(L, d, 6000 + static_cast<std::uint64_t>(L));
    Matrix<float> q = p->q, k = p->k, v = p->v;
    futures.push_back(
        server.submit(make_pattern_request(std::move(q), std::move(k), std::move(v), pattern)));
  }
  for (auto& f : futures) {
    const Response resp = f.get();
    ASSERT_EQ(resp.status, ResponseStatus::Ok);
    EXPECT_EQ(resp.batch_size, 1);
  }
}

TEST(ServePattern, MalformedPatternRequestsThrowAtSubmit) {
  const Index d = 8;
  Server server(make_config(1, 8, BatchPolicy{1, 0us}));

  // Null pattern.
  {
    auto p = make_payload(8, d, 1);
    Matrix<float> q = p->q, k = p->k, v = p->v;
    EXPECT_THROW(
        server.submit(make_pattern_request(std::move(q), std::move(k), std::move(v), nullptr)),
        InvalidArgument);
  }
  // Longer than a CSR-backed pattern can admit.
  {
    auto mask = std::make_shared<const Csr<float>>(build_csr_local(8, LocalParams{2}));
    auto pattern =
        std::make_shared<const kvcache::MaskSpec>(kvcache::MaskSpec::make_csr(mask));
    auto p = make_payload(16, d, 2);
    Matrix<float> q = p->q, k = p->k, v = p->v;
    EXPECT_THROW(
        server.submit(make_pattern_request(std::move(q), std::move(k), std::move(v), pattern)),
        InvalidArgument);
  }
}

// --- weighted fairness (smooth WRR lead selection) --------------------

TEST(RequestQueueFairness, WeightedRoundRobinServesClassesProportionally) {
  // weights {0:1, 1:3}, both classes backlogged: smooth WRR's service
  // pattern is exactly periodic — [1, 1, 0, 1] — so class 1 gets 3 of
  // every 4 leads and class 0 is never starved.
  RequestQueue q(64, std::chrono::microseconds{0}, {{0, 1}, {1, 3}});
  for (std::uint64_t i = 0; i < 8; ++i) {
    Request lo = bare_request(100 + i, 0);
    Request hi = bare_request(200 + i, 1);
    ASSERT_EQ(q.try_push(lo), RequestQueue::Push::Ok);
    ASSERT_EQ(q.try_push(hi), RequestQueue::Push::Ok);
  }
  std::vector<int> classes;
  std::vector<Request> batch, expired;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
    ASSERT_EQ(batch.size(), 1u);
    classes.push_back(batch.front().priority);
  }
  EXPECT_EQ(classes, (std::vector<int>{1, 1, 0, 1, 1, 1, 0, 1}));

  // FIFO within each class held throughout.
  std::uint64_t next_lo = 100, next_hi = 200;
  RequestQueue q2(64, std::chrono::microseconds{0}, {{0, 1}, {1, 3}});
  for (std::uint64_t i = 0; i < 8; ++i) {
    Request lo = bare_request(100 + i, 0);
    Request hi = bare_request(200 + i, 1);
    ASSERT_EQ(q2.try_push(lo), RequestQueue::Push::Ok);
    ASSERT_EQ(q2.try_push(hi), RequestQueue::Push::Ok);
  }
  while (q2.size() > 0) {
    ASSERT_TRUE(q2.pop_batch(1, 0us, batch, expired));
    if (batch.front().priority == 0) {
      EXPECT_EQ(batch.front().id, next_lo++);
    } else {
      EXPECT_EQ(batch.front().id, next_hi++);
    }
  }
}

TEST(RequestQueueFairness, AbsentClassesAccrueNothingAndEmptyWeightsStayStrict) {
  // A class with no queued requests must not bank credit while absent
  // (it would burst on return); with only one class present, every
  // lead is trivially that class.
  RequestQueue q(64, std::chrono::microseconds{0}, {{0, 1}, {1, 100}});
  std::vector<Request> batch, expired;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Request lo = bare_request(i, 0);
    ASSERT_EQ(q.try_push(lo), RequestQueue::Push::Ok);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
    EXPECT_EQ(batch.front().priority, 0);
  }
  // Class 1 arrives only now; it wins leads by weight going forward but
  // owes nothing from its absence (one class-0 service per round of 101
  // would be the steady state — the first 100 leads are class 1's).
  for (std::uint64_t i = 0; i < 4; ++i) {
    Request lo = bare_request(500 + i, 0);
    Request hi = bare_request(600 + i, 1);
    ASSERT_EQ(q.try_push(lo), RequestQueue::Push::Ok);
    ASSERT_EQ(q.try_push(hi), RequestQueue::Push::Ok);
  }
  ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
  EXPECT_EQ(batch.front().priority, 1);

  // Empty weight map: strict priority, as before.
  RequestQueue strict(16);
  Request lo = bare_request(1, 0);
  Request hi = bare_request(2, 5);
  ASSERT_EQ(strict.try_push(lo), RequestQueue::Push::Ok);
  ASSERT_EQ(strict.try_push(hi), RequestQueue::Push::Ok);
  ASSERT_TRUE(strict.pop_batch(8, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 2u);
}

TEST(RequestQueueFairness, WeightedQueueSurvivesAnAllExpiredSweep) {
  // The expired sweep can empty the queue before lead selection runs;
  // with a weight map the WRR branch must hand the expired set back
  // instead of selecting from an empty class map.
  RequestQueue q(16, std::chrono::microseconds{0}, {{0, 1}, {1, 3}});
  std::vector<Request> batch, expired;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Request r = bare_request(id, static_cast<int>(id % 2));
    r.deadline = Clock::now() - 1ms;
    ASSERT_EQ(q.try_push(r), RequestQueue::Push::Ok);
  }
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(expired.size(), 3u);
  EXPECT_EQ(q.size(), 0u);

  // The queue keeps serving normally afterwards.
  Request live = bare_request(9, 1);
  ASSERT_EQ(q.try_push(live), RequestQueue::Push::Ok);
  ASSERT_TRUE(q.pop_batch(8, 0us, batch, expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 9u);
  EXPECT_TRUE(expired.empty());
}

TEST(RequestQueueFairness, DrainedClassForfeitsItsBankedCredit) {
  // weights {0:3, 1:1}. Round 1 (both present): lo accrues 3, hi 1 —
  // lo leads and pays back the round's 4 (balance -1). Round 2 runs
  // with lo absent: its stale -1 is forfeited there, not banked. So
  // after the full drain, a fresh lo+hi round leads with class 0 again
  // (3 vs hi's at-most 2); had lo's -1 survived the drain, the classes
  // would tie at 2 and the tiebreak would hand the lead to class 1.
  RequestQueue q(16, std::chrono::microseconds{0}, {{0, 3}, {1, 1}});
  std::vector<Request> batch, expired;
  Request lo1 = bare_request(1, 0), hi1 = bare_request(2, 1);
  ASSERT_EQ(q.try_push(lo1), RequestQueue::Push::Ok);
  ASSERT_EQ(q.try_push(hi1), RequestQueue::Push::Ok);
  ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 1u);  // class 0: weight 3 beats 1
  ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 2u);  // lone class left
  ASSERT_EQ(q.size(), 0u);

  Request lo2 = bare_request(3, 0), hi2 = bare_request(4, 1);
  ASSERT_EQ(q.try_push(lo2), RequestQueue::Push::Ok);
  ASSERT_EQ(q.try_push(hi2), RequestQueue::Push::Ok);
  ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 3u);  // fresh round, same weights, same lead
  ASSERT_TRUE(q.pop_batch(1, 0us, batch, expired));
  EXPECT_EQ(batch.front().id, 4u);
}

// --- pop_batch coalescing clock (worst-case batch latency) ------------

TEST(RequestQueueLatency, MaxWaitIsAnchoredAtLeadAcquisitionNotReArmed) {
  // A steady trickle of compatible requests must not keep the window
  // open: the coalescing clock is anchored when the lead is popped, so
  // pop_batch returns within max_wait of that instant no matter how
  // many newcomers arrive near the deadline.
  RequestQueue q(256);
  const auto max_wait = 80'000us;  // 80 ms window
  // Same key for everyone: every newcomer is batch-compatible with the
  // lead, the strongest temptation to keep collecting.
  auto compatible = [](std::uint64_t id) {
    Request r = bare_request(id, 0);
    r.key = BatchKey{/*mask_fp=*/7, 1, 1, 1, DType::F32};
    return r;
  };
  Request lead = compatible(1);
  ASSERT_EQ(q.try_push(lead), RequestQueue::Push::Ok);

  std::atomic<bool> stop{false};
  std::thread feeder([&q, &stop, &compatible] {
    for (std::uint64_t id = 2; !stop.load(); ++id) {
      Request r = compatible(id);
      if (q.try_push(r) != RequestQueue::Push::Ok) break;
      std::this_thread::sleep_for(10ms);  // well inside every 80 ms window
    }
  });

  std::vector<Request> batch, expired;
  const auto t0 = Clock::now();
  ASSERT_TRUE(q.pop_batch(/*max_batch=*/128, max_wait, batch, expired));
  const auto elapsed = Clock::now() - t0;
  stop.store(true);
  feeder.join();

  // The batch closed on the lead's clock: well under 2× the window
  // even though arrivals continued, and it did not fill to max_batch.
  EXPECT_LT(elapsed, 2 * std::chrono::microseconds(max_wait));
  EXPECT_GE(batch.size(), 1u);
  EXPECT_LT(batch.size(), 128u);
}

// --- per-bucket batching windows --------------------------------------

TEST(BatchPolicyBuckets, MaxWaitForResolvesBucketOverridesAndFallsBack) {
  BatchPolicy policy{/*max_batch=*/8, /*max_wait=*/200us};
  policy.seq_buckets = {16, 32, 64};
  const auto pattern_key = [](Index seq_len) {
    return BatchKey{7, seq_len, 8, 1, DType::F32,
                    static_cast<std::uint8_t>(RequestKind::Pattern)};
  };

  // No overrides configured: every key gets the global window.
  EXPECT_EQ(max_wait_for(policy, pattern_key(16)), 200us);

  policy.bucket_max_wait = {0us, 1000us, 5000us};
  EXPECT_EQ(max_wait_for(policy, pattern_key(16)), 0us);
  EXPECT_EQ(max_wait_for(policy, pattern_key(32)), 1000us);
  EXPECT_EQ(max_wait_for(policy, pattern_key(64)), 5000us);
  // Above the ladder, Pattern keys carry the exact length: global.
  EXPECT_EQ(max_wait_for(policy, pattern_key(65)), 200us);
  // A non-Pattern key at a ceiling-coincident length is NOT bucketed.
  EXPECT_EQ(max_wait_for(policy, BatchKey{7, 32, 8, 1, DType::F32,
                                          static_cast<std::uint8_t>(RequestKind::Attention)}),
            200us);

  // Misaligned overrides are a configuration error, caught at build.
  RequestQueue q(4);
  BatchPolicy bad = policy;
  bad.bucket_max_wait = {0us};
  EXPECT_THROW(DynamicBatcher(q, bad), InvalidArgument);
}

TEST(BatchPolicyBuckets, BucketWindowExtendsPastAGreedyGlobalPolicy) {
  // Global max_wait 0 = greedy dispatch, but the bucket-32 override
  // keeps the window open: a compatible request arriving mid-window
  // must still join the lead's batch, while a non-Pattern lead under
  // the same conditions dispatches alone immediately.
  RequestQueue q(16);
  BatchPolicy policy{/*max_batch=*/2, /*max_wait=*/0us};
  policy.seq_buckets = {8, 32};
  policy.bucket_max_wait = {0us, 2'000'000us};
  DynamicBatcher batcher(q, policy);

  const auto bucketed = [](std::uint64_t id) {
    Request r = bare_request(id, 0);
    r.key = BatchKey{7, 32, 8, 1, DType::F32,
                     static_cast<std::uint8_t>(RequestKind::Pattern)};
    return r;
  };
  Request lead = bucketed(1);
  ASSERT_EQ(q.try_push(lead), RequestQueue::Push::Ok);
  std::thread feeder([&q, &bucketed] {
    std::this_thread::sleep_for(30ms);  // well inside the 2 s override
    Request late = bucketed(2);
    ASSERT_EQ(q.try_push(late), RequestQueue::Push::Ok);
  });
  PoppedBatch pb;
  ASSERT_TRUE(batcher.next_batch(pb));
  feeder.join();
  EXPECT_EQ(pb.batch.size(), 2u);  // the late arrival rode the held window

  // Same arrival pattern, Attention-kind key: the global greedy window
  // applies, so the lead goes out alone and the late request waits.
  Request alead = bare_request(3, 0);
  alead.key = BatchKey{9, 32, 8, 1, DType::F32,
                       static_cast<std::uint8_t>(RequestKind::Attention)};
  ASSERT_EQ(q.try_push(alead), RequestQueue::Push::Ok);
  ASSERT_TRUE(batcher.next_batch(pb));
  EXPECT_EQ(pb.batch.size(), 1u);
  EXPECT_EQ(pb.batch.front().id, 3u);
}

}  // namespace
}  // namespace gpa::serve

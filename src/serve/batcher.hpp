#pragma once
// Dynamic batcher: the policy layer between the request queue and the
// worker pool. The paper's §IV-B observation — batching is a trivial
// scaling axis because every sequence under one mask runs the same
// kernel — is exactly what a dynamic batcher exploits: requests with
// equal BatchKeys (mask fingerprint, seq_len, width, heads, dtype)
// coalesce into one dispatch, following the continuous-batching idiom
// from the serving literature (Orca-style iteration-level scheduling,
// collapsed to whole-request granularity since attention calls here are
// single-shot, not autoregressive).
//
// Two knobs trade throughput against latency:
//   max_batch — occupancy ceiling per dispatch,
//   max_wait  — how long a short batch may hold its slot hoping for
//               compatible arrivals (0 = greedy: dispatch whatever the
//               first scan finds; requests already queued still batch).
//
// max_wait defaults to 0. A batch still forms whenever requests queue
// behind a busy worker, which on a CPU server is the only time
// coalescing saves work; holding an idle worker for arrivals does not.
// On the decode-stream workload of bench/e2e (a 137-edge token folds
// in ~8 µs at d = 64) the old 200 µs hold made the queue wait 4× the
// service time; greedy dispatch cut its p50 latency 0.23 → 0.04 ms and
// pattern-serve's 1.04 → 0.82 ms (10 seed-paired runs, 4 vCPUs).
//
// max_wait can additionally be set PER BUCKET (bucket_max_wait, aligned
// with seq_buckets): long-prompt buckets amortise kernel cost over far
// more work per item, so holding them a little longer for a fuller
// batch costs relatively less latency than it would for a short-prompt
// bucket. Buckets without an override — and every non-Pattern
// dispatch — fall back to the global max_wait.

#include <chrono>
#include <vector>

#include "serve/request_queue.hpp"

namespace gpa::serve {

struct BatchPolicy {
  Index max_batch = 8;
  std::chrono::microseconds max_wait{0};
  /// seq_len bucket ceilings (ascending) for Pattern requests: a
  /// request's BatchKey carries the smallest ceiling >= its true
  /// length, so near-length requests under one pattern coalesce into
  /// one dispatch. Each item still runs at its own true length (causal
  /// pattern slices are length-independent), so bucketing changes WHO
  /// batches together, never any result bit. Lengths above the last
  /// ceiling — and all lengths when empty — key by exact length.
  std::vector<Index> seq_buckets{};
  /// Per-bucket batching windows, aligned index-for-index with
  /// seq_buckets (empty = the global max_wait applies to every bucket;
  /// otherwise the sizes must match). Only Pattern leads whose key
  /// carries a configured bucket ceiling use the override; everything
  /// else — including Pattern lengths above the last ceiling, which
  /// key by exact length — falls back to max_wait.
  std::vector<std::chrono::microseconds> bucket_max_wait{};
};

/// The smallest bucket ceiling >= len, or len itself when none fits
/// (empty buckets = exact-length batching).
Index bucket_ceiling(const std::vector<Index>& buckets, Index len);

/// The batching window for a batch led by `key`: the bucket's override
/// when the policy has one for key.seq_len (Pattern keys carry the
/// bucket ceiling there), the global max_wait otherwise.
std::chrono::microseconds max_wait_for(const BatchPolicy& policy, const BatchKey& key);

struct PoppedBatch {
  std::vector<Request> batch;    ///< key-compatible, ready to dispatch
  std::vector<Request> expired;  ///< deadline passed; reject, don't run
};

class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, const BatchPolicy& policy);

  /// Blocks for the next batch. False when the queue is closed and
  /// fully drained (worker exit signal). `out` vectors are reused.
  bool next_batch(PoppedBatch& out);

  const BatchPolicy& policy() const noexcept { return policy_; }

 private:
  RequestQueue& queue_;
  BatchPolicy policy_;
};

}  // namespace gpa::serve

#include "serve/server.hpp"

#include <chrono>

#include "common/error.hpp"
#include "core/graph_attention.hpp"
#include "core/kernel_common.hpp"
#include "core/state.hpp"
#include "core/traversal.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace gpa::serve {

namespace {

namespace trace = obs::trace;

double micros_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// One 'X' span per item covering [enqueue, dispatch-start] — the queue
// wait is measured from the request's own enqueue_time (same steady
// clock as the trace epoch), back-dated onto the trace axis so it abuts
// the dispatch span that follows.
void emit_queue_wait_spans(const std::vector<Request>& batch, TimePoint t0) {
  if (!trace::enabled()) return;
  const std::int64_t now_tr = trace::now_us();
  const std::int64_t skew = static_cast<std::int64_t>(micros_between(t0, Clock::now()));
  for (const Request& r : batch) {
    const auto wait = static_cast<std::int64_t>(micros_between(r.enqueue_time, t0));
    trace::emit_complete("serve.queue_wait", "serve", now_tr - skew - wait, wait);
  }
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(cfg),
      queue_(cfg.queue_capacity, cfg.age_threshold, cfg.fairness_weights),
      batcher_(queue_, cfg.policy),
      stats_(cfg.policy.max_batch) {
  GPA_CHECK(cfg_.workers >= 0, "worker count must be non-negative");
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::finish(Request& r, ResponseStatus status, double queue_us, double service_us,
                    Index batch_size) {
  if (status == ResponseStatus::Ok) {
    stats_.record_completion(queue_us + service_us, service_us);
  } else {
    stats_.record_rejected(status);
  }
  trace::emit_async("serve.request", "serve", 'e', r.id);
  Response resp;
  resp.status = status;
  resp.id = r.id;
  resp.output = std::move(r.output);  // on rejection: the buffer, back for recycling
  resp.queue_us = queue_us;
  resp.service_us = service_us;
  resp.batch_size = batch_size;
  r.promise.set_value(std::move(resp));
}

std::uint64_t Server::fingerprint_of(const std::shared_ptr<const Csr<float>>& mask) {
  {
    std::lock_guard<std::mutex> lk(fp_mu_);
    const auto it = fp_cache_.find(mask.get());
    if (it != fp_cache_.end()) return it->second.second;
  }
  // Hash outside the lock: the O(nnz) fingerprint of a large mask must
  // not stall every other client's admission behind fp_mu_. The value
  // comes from the mask's TRAVERSAL — the same enumerator the kernels
  // iterate — so "fingerprints equal" means "the kernel visits the same
  // (row → column sequence) map", which is exactly the batching
  // compatibility contract.
  const std::uint64_t fp = MaskTraversal::over(*mask).fingerprint();
  // Cache entries pin their mask, so the cache is capped: a client that
  // streams distinct masks degrades to hashing per submit instead of
  // growing the server's footprint without bound. (A racing submit of
  // the same mask computed the same fp; emplace keeps the first.)
  std::lock_guard<std::mutex> lk(fp_mu_);
  if (fp_cache_.size() < kFpCacheCap) {
    fp_cache_.emplace(mask.get(), std::make_pair(mask, fp));
  }
  return fp;
}

std::future<Response> Server::submit(Request r) {
  auto fut = r.promise.get_future();
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);

  GPA_CHECK(r.data != nullptr, "request needs a payload");
  const RequestData& d = *r.data;
  GPA_CHECK(d.q.same_shape(d.k) && d.q.same_shape(d.v), "request Q/K/V must share one shape");
  if (r.kind == RequestKind::Decode) {
    // One token against a cached session: no mask travels with the
    // request (the session owns it) and the payload is a single row.
    GPA_CHECK(d.q.rows() == 1, "decode requests carry one token (1×d payloads)");
    // Width must match the pool here at admission: run_decode uses
    // the raw-pointer decode_step (no shape re-check), so a mismatched
    // row would read/write out of bounds, not reject.
    GPA_CHECK(cfg_.sessions == nullptr || d.q.cols() == cfg_.sessions->pool().head_dim(),
              "decode payload width must match the session pool's head dimension");
    r.dims = MultiHeadDims{1, d.q.cols()};
  } else if (r.kind == RequestKind::Pattern) {
    GPA_CHECK(r.pattern != nullptr && !r.pattern->components.empty(),
              "pattern requests need a pattern mask");
    GPA_CHECK(r.pattern->max_len() < 0 || d.q.rows() <= r.pattern->max_len(),
              "request longer than the pattern mask allows");
    // Pattern dispatch is single-head causal over the packed width.
    GPA_CHECK(r.dims.head_dim == 0 || (r.dims.num_heads == 1 && r.dims.head_dim == d.q.cols()),
              "pattern requests run single-head over the packed width");
    r.dims = MultiHeadDims{1, d.q.cols()};
  } else {
    GPA_CHECK(r.mask != nullptr, "attention requests need a mask");
    GPA_CHECK(d.q.rows() == r.mask->rows, "request length must match the mask");
    if (r.dims.head_dim == 0) r.dims = MultiHeadDims{1, d.q.cols()};
    GPA_CHECK(r.dims.num_heads >= 1 && r.dims.num_heads * r.dims.head_dim == d.q.cols(),
              "head geometry must tile the packed width");
  }
  if (!r.output.same_shape(d.q)) r.output = Matrix<float>(d.q.rows(), d.q.cols());

  // Past validation: from here every path ends in exactly one finish(),
  // so the funnel (submitted == completed + rejected + queued) stays
  // balanced and this 'b' pairs with exactly one 'e'.
  stats_.record_submitted();
  trace::emit_async("serve.request", "serve", 'b', r.id);

  if (r.kind == RequestKind::Decode && cfg_.sessions == nullptr) {
    // Defensive, not an assert: a deployment without a session backend
    // sheds decode traffic with a typed cause the client can read.
    finish(r, ResponseStatus::RejectedSession);
    return fut;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    finish(r, ResponseStatus::RejectedShutdown);
    return fut;
  }
  const TimePoint now = Clock::now();
  if (now >= r.deadline) {
    finish(r, ResponseStatus::RejectedDeadline);
    return fut;
  }
  if (r.kind == RequestKind::Decode) {
    // Decode steps coalesce across sessions and lengths: the key only
    // carries the dispatch family and the packed width (see BatchKey).
    r.key = BatchKey{0, 0, d.q.cols(), 1, DType::F32,
                     static_cast<std::uint8_t>(RequestKind::Decode)};
  } else if (r.kind == RequestKind::Pattern) {
    // Bucketed admission: the key's seq_len is the configured bucket
    // CEILING of the true length, so near-length requests under one
    // pattern coalesce. Dispatch runs each item at its own true length
    // (the pattern's causal slices are length-independent), so the
    // relaxed key never changes a result bit.
    r.key = BatchKey{r.pattern->fingerprint(),
                     bucket_ceiling(cfg_.policy.seq_buckets, d.q.rows()), d.q.cols(), 1,
                     DType::F32, static_cast<std::uint8_t>(RequestKind::Pattern)};
  } else {
    r.key = BatchKey{fingerprint_of(r.mask), d.q.rows(), d.q.cols(), r.dims.num_heads,
                     DType::F32, static_cast<std::uint8_t>(RequestKind::Attention)};
  }
  r.enqueue_time = now;

  switch (queue_.try_push(r)) {
    case RequestQueue::Push::Ok:
      break;
    case RequestQueue::Push::Full:
      finish(r, ResponseStatus::RejectedQueueFull);
      break;
    case RequestQueue::Push::Closed:
      finish(r, ResponseStatus::RejectedShutdown);
      break;
  }
  return fut;
}

std::vector<ResponseStatus> Server::run_decode(std::vector<Request>& batch) {
  // Hand the whole batch to the session manager's cross-session decode:
  // it groups by session (folds for one session land in arrival/token
  // order, different sessions decode concurrently) and reduces the
  // per-session fold counts through the parallel substrate. The order
  // guarantee is per-dispatch only: a client that pipelines token t+1
  // before token t resolves can see the two land in different batches
  // and fold out of order (see the ordering contract in
  // kvcache/session_manager.hpp — await each step). Per-item failures
  // come back as typed outcomes, never as exceptions.
  using Item = kvcache::SessionManager::DecodeBatchItem;
  std::vector<Item> items(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& r = batch[i];
    items[i] = Item{r.session_id, r.data->q.row(0), r.data->k.row(0), r.data->v.row(0),
                    r.output.row(0)};
  }
  cfg_.sessions->decode_batch(items, cfg_.batch_policy);

  std::vector<ResponseStatus> status(batch.size(), ResponseStatus::Ok);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    switch (items[i].outcome) {
      case Item::Outcome::Ok: break;
      case Item::Outcome::SessionError:
        status[i] = ResponseStatus::RejectedSession;  // unknown / evicted / cache full
        break;
      case Item::Outcome::Error:
        status[i] = ResponseStatus::InternalError;
        break;
    }
  }
  return status;
}

void Server::run_pattern(std::vector<Request>& batch) {
  // One BatchKey means one pattern fingerprint and one bucket — but
  // the items' TRUE lengths may differ (that is the point of
  // bucketing). Each item folds its own rows through the shared
  // kernel driver at its own length, enumerating the pattern's causal
  // row slices — the same enumerator the one-shot kernels and decode
  // sessions use — so the result equals an exact-length dispatch bit
  // for bit.
  parallel_for(0, static_cast<Index>(batch.size()), cfg_.batch_policy, [&](Index i) {
    trace::Span item_span("serve.item", "serve");
    Request& r = batch[static_cast<std::size_t>(i)];
    AttentionOptions o = r.opts;
    o.policy = cfg_.item_policy;
    o.causal = true;  // pattern requests are causal by contract
    SoftmaxState st(r.data->q.rows(), r.data->q.cols());
    detail::run_rows(r.data->q, r.data->k, r.data->v, o, st, [&](Index row, auto&& edge) {
      r.pattern->for_each_causal(row, [&](Index j, float gate) { edge(j, gate); });
    });
    st.finalize_into(r.output);
  });
}

void Server::run_attention(std::vector<Request>& batch) {
  // Every request in the batch shares one BatchKey, hence one mask
  // structure and shape; items are independent sequences, so the
  // cross-item loop is the batch's "grid" dimension.
  parallel_for(0, static_cast<Index>(batch.size()), cfg_.batch_policy, [&](Index i) {
    trace::Span item_span("serve.item", "serve");
    Request& r = batch[static_cast<std::size_t>(i)];
    AttentionOptions o = r.opts;
    o.policy = cfg_.item_policy;
    if (r.dims.num_heads > 1) {
      multihead_csr_attention(r.data->q, r.data->k, r.data->v, r.dims, *r.mask, r.output, o);
    } else {
      csr_attention(r.data->q, r.data->k, r.data->v, *r.mask, r.output, o);
    }
  });
}

void Server::dispatch(std::vector<Request>& batch) {
  trace::Span dispatch_span("serve.dispatch", "serve");
  const auto b = static_cast<Index>(batch.size());
  const TimePoint t0 = Clock::now();
  emit_queue_wait_spans(batch, t0);
  std::vector<ResponseStatus> status;  // per item; empty = every item Ok
  try {
    switch (batch.front().kind) {
      case RequestKind::Decode: status = run_decode(batch); break;
      case RequestKind::Pattern: run_pattern(batch); break;
      case RequestKind::Attention: run_attention(batch); break;
    }
  } catch (const std::exception&) {
    for (auto& r : batch) finish(r, ResponseStatus::InternalError);
    return;
  }
  const double service_us = micros_between(t0, Clock::now());
  stats_.record_batch(b);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& r = batch[i];
    if (!status.empty() && status[i] != ResponseStatus::Ok) {
      finish(r, status[i]);
    } else {
      finish(r, ResponseStatus::Ok, micros_between(r.enqueue_time, t0), service_us, b);
    }
  }
}

void Server::worker_loop() {
  PoppedBatch pb;
  while (true) {
    bool got;
    {
      // Covers the batch-lead coalescing window AND idle waiting — a
      // long serve.coalesce span on an unloaded server is the queue
      // sitting empty, not a slow batcher.
      trace::Span coalesce_span("serve.coalesce", "serve");
      got = batcher_.next_batch(pb);
    }
    if (!got) break;
    for (auto& r : pb.expired) finish(r, ResponseStatus::RejectedDeadline);
    if (!pb.batch.empty()) dispatch(pb.batch);
  }
}

void Server::shutdown() {
  std::lock_guard<std::mutex> lk(shutdown_mu_);  // serializes; body is idempotent
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Whatever never got a worker (workers == 0, or pushed in the races
  // around close) still owes its client an answer.
  Request leftover;
  while (queue_.try_pop_one(leftover)) finish(leftover, ResponseStatus::RejectedShutdown);
}

}  // namespace gpa::serve

#pragma once
// Request-span tracing: RAII scoped spans written to a bounded
// lock-free ring buffer, exported as Chrome `trace_event` JSON (load
// the dump at chrome://tracing or https://ui.perfetto.dev).
//
// Cost model. Tracing is DISABLED by default: a Span constructor then
// performs one relaxed atomic load and a branch — no clock read, no
// ring write, no allocation. test_obs's
// TraceTest.ServedWorkloadSpansReconcileWithServerStats keeps the
// disabled sites of a served request under 2% of its untraced time.
// Enabled, an event is one fetch_add to claim a slot plus relaxed
// stores of the fields. Defining GPA_TRACE_DISABLED at compile time
// removes even the branch (Span becomes an empty struct).
//
// Ring semantics. Fixed capacity, overwrite-oldest: the claim cursor is
// a monotone fetch_add and a slot's publish sequence is stored with
// release order after its fields, so a concurrent drain() never reads
// an unpublished slot and never tears (fields are relaxed atomics —
// TSan-clean by construction). Under wraparound the ring keeps the most
// recent `capacity` events and dropped() reports how many were
// overwritten — a trace dump states its own truncation.
//
// Event vocabulary (Chrome trace_event phases):
//   'X' complete  — a scoped Span (ts + dur), the workhorse
//   'b'/'e' async — cross-thread request lifetimes, paired by id
//   'i' instant   — a point event
// Names and categories must be string literals (or otherwise outlive
// the ring): the ring stores the pointers, not copies.

#include <cstdint>
#include <string>
#include <vector>

namespace gpa::obs::trace {

struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  char ph = 'X';            ///< 'X' complete, 'b'/'e' async, 'i' instant
  std::uint32_t tid = 0;    ///< dense per-thread id
  std::uint64_t id = 0;     ///< async pair key ('b'/'e' only)
  std::int64_t ts_us = 0;   ///< µs since the process trace epoch
  std::int64_t dur_us = 0;  ///< 'X' only
};

/// Runtime switch. Off by default; flipping it on/off is safe at any
/// time (in-flight spans on other threads see the old value for at most
/// one event).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// µs since the process trace epoch (the first call wins the epoch).
/// Exposed so instrument sites can timestamp externally-measured
/// intervals (e.g. a request's queue wait) on the same axis as spans.
std::int64_t now_us() noexcept;

/// Dense id of the calling thread, as stamped into events.
std::uint32_t this_thread_id() noexcept;

/// Resize the ring (default 65536 events). Only legal while tracing is
/// disabled; discards buffered events. Throws InvalidArgument on 0.
void configure_capacity(std::size_t events);
std::size_t capacity() noexcept;

/// Emit one event (no-ops when disabled). `name`/`cat` must outlive the
/// ring — pass literals.
void emit_complete(const char* name, const char* cat, std::int64_t ts_us,
                   std::int64_t dur_us) noexcept;
void emit_async(const char* name, const char* cat, char ph, std::uint64_t id) noexcept;
void emit_instant(const char* name, const char* cat) noexcept;

/// The buffered events, oldest first (by claim order). Safe to call
/// concurrently with writers: a slot mid-write is simply skipped.
std::vector<Event> drain_snapshot();
/// Events overwritten by wraparound since the last reset.
std::uint64_t dropped() noexcept;
/// Total events ever claimed since the last reset.
std::uint64_t emitted() noexcept;
/// Clears the ring and the counters (tests / between bench cells).
void reset();

/// Chrome trace_event JSON of the current ring contents.
std::string chrome_json();
/// Writes chrome_json() to `path`; false on I/O failure.
bool write_chrome_json(const std::string& path);

/// RAII complete-event span. Captures t0 at construction when tracing
/// is enabled; emits one 'X' event at destruction (enable/disable flips
/// mid-span drop that span, never corrupt the ring).
class Span {
 public:
#ifdef GPA_TRACE_DISABLED
  explicit Span(const char*, const char* = "gpa") noexcept {}
#else
  explicit Span(const char* name, const char* cat = "gpa") noexcept
      : name_(enabled() ? name : nullptr), cat_(cat) {
    if (name_ != nullptr) t0_ = now_us();
  }
  ~Span() {
    if (name_ != nullptr) emit_complete(name_, cat_, t0_, now_us() - t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t t0_ = 0;
#endif
};

}  // namespace gpa::obs::trace

#ifndef TCDP_OBS_TRACE_H_
#define TCDP_OBS_TRACE_H_

/// \file
/// Ring-buffer span tracing for the server's deterministic tick
/// pipeline (enqueue -> dispatch -> bank step -> WAL append -> fsync
/// -> ack) and the compaction/recovery phases.
///
/// The recorder is a fixed-capacity ring of completed spans. Writers
/// claim a sequence number with one relaxed fetch_add, take ownership
/// of its slot with a CAS on the slot's sequence word, and fill it in
/// place — no locks, no allocation — so tracing is safe from every
/// shard worker and the net I/O thread at once; once the ring wraps,
/// the oldest spans are overwritten. A slot has one writer at a time:
/// a writer that finds its slot owned by another writer, or already
/// holding a newer span, drops its own span instead of tearing one. Recording is off by default and spans cost
/// a single relaxed load when disabled (`ScopedSpan` skips even the
/// clock read), which keeps the bank-step hot path untouched: per-user
/// TPL series are bitwise identical with tracing on or off.
///
/// Span name/category strings must have static storage duration
/// (string literals): the ring stores the pointers, not copies.
///
/// `DumpJson` renders the buffered spans oldest-first in the Chrome
/// trace-event format (load the file in chrome://tracing or Perfetto);
/// the server exposes it via `kTraceDump` + `tcdp serve --trace-out`.
///
/// A dump taken while writers are active is a best-effort snapshot:
/// the span fields are atomics, and the dumper drops every span whose
/// sequence word moved while it copied the fields out (a seqlock read),
/// so it never renders a mix of two spans.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tcdp {
namespace obs {

struct TraceEvent {
  const char* name = nullptr;  ///< static-lifetime span name
  const char* category = nullptr;
  std::uint64_t start_ns = 0;  ///< MonotonicNanos() at span open
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_id = 0;  ///< small per-process thread ordinal
  std::uint64_t arg = 0;        ///< one free detail slot (shard, tick, ...)
};

/// \brief Lock-free fixed-capacity span ring. One global instance
/// (`DefaultTrace()`) backs the server; tests build their own.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 0);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// (Re)arms a fresh ring of \p capacity slots and enables recording.
  /// Safe concurrently with Record: a writer that loaded the previous
  /// ring finishes into it, and replaced rings stay allocated until the
  /// recorder is destroyed (Start is rare: once per serve or bench run).
  void Start(std::size_t capacity);
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const TraceEvent& event);

  std::size_t capacity() const;
  /// Spans recorded since the last Start (>= capacity means the ring
  /// wrapped).
  std::uint64_t recorded() const;
  /// Spans currently held (min(recorded, capacity)).
  std::size_t size() const;

  /// Chrome trace-event JSON array, oldest span first.
  std::string DumpJson() const;

  static TraceRecorder& Default();

 private:
  struct Slot;
  struct Ring;

  std::atomic<bool> enabled_{false};
  std::atomic<Ring*> ring_{nullptr};  ///< the armed ring, null before Start
  std::mutex rings_mu_;               ///< serializes Start
  std::vector<std::unique_ptr<Ring>> rings_;  ///< every ring ever armed
};

/// Process-global recorder used by the instrumentation points.
TraceRecorder& DefaultTrace();
/// Convenience for the hot-path guard.
inline bool TraceEnabled() { return DefaultTrace().enabled(); }

/// Small stable ordinal for the calling thread (assigned on first use).
std::uint32_t TraceThreadId();

/// \brief RAII span against the default recorder. Captures the start
/// time only if tracing is enabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, std::uint64_t arg = 0)
      : name_(name), category_(category), arg_(arg) {
    if (TraceEnabled()) start_ns_ = Now();
  }
  ~ScopedSpan() {
    if (start_ns_ != 0) Finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::uint64_t Now();
  void Finish();

  const char* name_;
  const char* category_;
  std::uint64_t arg_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace tcdp

#endif  // TCDP_OBS_TRACE_H_

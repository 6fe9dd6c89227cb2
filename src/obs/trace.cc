#include "obs/trace.h"

#include <cstdio>

#include "obs/metrics.h"

namespace tcdp {
namespace obs {

namespace {

/// Set in a slot's sequence word while a writer owns the slot.
constexpr std::uint64_t kWriting = std::uint64_t{1} << 63;

}  // namespace

/// Per-slot seqlock: 0 = empty, kWriting | (sequence + 1) while a
/// writer owns the slot, sequence + 1 once its span is published. The
/// span fields are atomics written with release stores and read with
/// acquire loads, so a reader that sees any field of a later writer
/// also sees that writer's claim on the sequence word.
struct TraceRecorder::Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> duration_ns{0};
  std::atomic<std::uint32_t> thread_id{0};
  std::atomic<std::uint64_t> arg{0};
};

struct TraceRecorder::Ring {
  explicit Ring(std::size_t n) : capacity(n), slots(new Slot[n]) {}
  const std::size_t capacity;
  const std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> next{0};
};

TraceRecorder::TraceRecorder(std::size_t capacity) {
  if (capacity > 0) Start(capacity);
}

TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::Start(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  std::lock_guard<std::mutex> lock(rings_mu_);
  rings_.push_back(std::make_unique<Ring>(capacity));
  ring_.store(rings_.back().get(), std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

std::size_t TraceRecorder::capacity() const {
  const Ring* ring = ring_.load(std::memory_order_acquire);
  return ring != nullptr ? ring->capacity : 0;
}

std::uint64_t TraceRecorder::recorded() const {
  const Ring* ring = ring_.load(std::memory_order_acquire);
  return ring != nullptr ? ring->next.load(std::memory_order_relaxed) : 0;
}

void TraceRecorder::Record(const TraceEvent& event) {
  if (!enabled()) return;
  Ring* ring = ring_.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const std::uint64_t mine =
      ring->next.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = ring->slots[(mine - 1) % ring->capacity];
  std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  do {
    // Another writer owns the slot (the ring wrapped during its copy)
    // or a newer span already landed: drop this span rather than
    // interleave two writers' fields.
    if ((seen & kWriting) != 0 || seen >= mine) return;
  } while (!slot.seq.compare_exchange_weak(seen, kWriting | mine,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  slot.name.store(event.name, std::memory_order_release);
  slot.category.store(event.category, std::memory_order_release);
  slot.start_ns.store(event.start_ns, std::memory_order_release);
  slot.duration_ns.store(event.duration_ns, std::memory_order_release);
  slot.thread_id.store(event.thread_id, std::memory_order_release);
  slot.arg.store(event.arg, std::memory_order_release);
  slot.seq.store(mine, std::memory_order_release);
}

std::size_t TraceRecorder::size() const {
  const std::uint64_t total = recorded();
  const std::size_t cap = capacity();
  return total < cap ? static_cast<std::size_t>(total) : cap;
}

std::string TraceRecorder::DumpJson() const {
  std::string out = "{\"traceEvents\": [";
  const Ring* ring = ring_.load(std::memory_order_acquire);
  const std::uint64_t total =
      ring != nullptr ? ring->next.load(std::memory_order_relaxed) : 0;
  const std::uint64_t first =
      ring != nullptr && total > ring->capacity ? total - ring->capacity : 0;
  bool any = false;
  for (std::uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = ring->slots[seq % ring->capacity];
    if (slot.seq.load(std::memory_order_acquire) != seq + 1) continue;
    TraceEvent event;
    event.name = slot.name.load(std::memory_order_acquire);
    event.category = slot.category.load(std::memory_order_acquire);
    event.start_ns = slot.start_ns.load(std::memory_order_acquire);
    event.duration_ns = slot.duration_ns.load(std::memory_order_acquire);
    event.thread_id = slot.thread_id.load(std::memory_order_acquire);
    event.arg = slot.arg.load(std::memory_order_acquire);
    // The acquire loads above keep this re-check after them.
    if (slot.seq.load(std::memory_order_relaxed) != seq + 1) continue;
    if (event.name == nullptr) continue;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"arg\": %llu}}",
                  any ? "," : "", event.name,
                  event.category != nullptr ? event.category : "tcdp",
                  static_cast<double>(event.start_ns) * 1e-3,
                  static_cast<double>(event.duration_ns) * 1e-3,
                  event.thread_id,
                  static_cast<unsigned long long>(event.arg));
    out += buffer;
    any = true;
  }
  out += "\n]}\n";
  return out;
}

TraceRecorder& TraceRecorder::Default() { return DefaultTrace(); }

TraceRecorder& DefaultTrace() {
  // Leaked for the same reason as the metrics registry: worker threads
  // may still record during static destruction.
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

std::uint32_t TraceThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t ScopedSpan::Now() { return MonotonicNanos(); }

void ScopedSpan::Finish() {
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.start_ns = start_ns_;
  event.duration_ns = MonotonicNanos() - start_ns_;
  event.thread_id = TraceThreadId();
  event.arg = arg_;
  DefaultTrace().Record(event);
}

}  // namespace obs
}  // namespace tcdp

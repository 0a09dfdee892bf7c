// The benchmark's span recorder. Spans are recorded from the benchmark's
// own files only, around its calls into the library's public functions;
// nothing inside the library is instrumented by it.
//
// Recording is off unless a Tracer is installed; a Span then costs one
// relaxed load and a branch. With a Tracer installed, each thread appends
// finished spans to its own buffer, and the buffers are read after every
// recording thread has been joined or gone idle.
//
// A span's parent is the innermost open span on the same thread, or the
// explicit parent passed to the constructor, which is how work handed to
// pool workers or load-generator threads hangs under the span that caused
// it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

struct SpanRecord {
  const char* name = "";     ///< static string: layer.operation[.detail]
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for a root
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals over one trace.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;  ///< sum of durations
  std::uint64_t self_ns = 0;   ///< sum of self times
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr when recording is off.
  static Tracer* active() noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  /// Installs `tracer` (nullptr switches recording off).
  static void install(Tracer* tracer) noexcept {
    active_.store(tracer, std::memory_order_release);
  }

  std::uint32_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const SpanRecord& span);

  /// Every recorded span, in no particular order.
  std::vector<SpanRecord> spans() const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
  };
  Buffer& buffer_for_this_thread();

  static std::atomic<Tracer*> active_;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_;  // tells a thread its cached buffer is stale
};

/// Scoped span; a no-op when no Tracer is installed.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  Span(const char* name, std::uint32_t parent) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (0 when recording is off), for explicit parenting.
  std::uint32_t id() const noexcept { return record_.id; }

  /// Id of the innermost open span on this thread (0 when none).
  static std::uint32_t current() noexcept;

 private:
  void open(const char* name, std::uint32_t parent) noexcept;

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  std::uint32_t saved_current_ = 0;
};

/// Self time of every span (duration minus the union of its children's
/// intervals), folded into per-name totals.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

/// Length of the union of the intervals of the spans that descend from span
/// `root` and whose name `pick` accepts, clipped to the root's interval.
std::uint64_t covered_by(const std::vector<SpanRecord>& spans,
                         std::uint32_t root,
                         const std::function<bool(std::string_view)>& pick);

}  // namespace perfbench

// In-process span tracer for the benchmark's traced mode. Spans are
// recorded only around calls the benchmark makes into the library's
// public API (and by the decorators in traced_layers.h), never inside
// the library itself.
//
// Each thread appends to its own in-memory buffer, so recording takes
// no lock. A span opened on a thread with no open span of its own
// (a ParallelFor worker) takes as parent the innermost span open on
// the thread that started the tracer: that is the call which fanned
// the work out. Collect() merges the buffers in a fixed order once
// every worker has been joined.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

constexpr uint64_t kNoParent = ~uint64_t{0};

struct Span {
  const char* name = "";  // A string literal; spans never own names.
  int64_t start_ns = 0;   // steady_clock, relative to Tracer::Start.
  int64_t end_ns = 0;
  uint64_t id = 0;        // Unique within one tracing session.
  uint64_t parent = kNoParent;
  uint64_t work = 0;      // Layer work count (e.g. walk steps).
  bool failed = false;    // The traced call returned an error.
};

/// Process-wide tracing switch and span store. Start() and Collect()
/// must be called from the same thread, with no other thread running
/// traced calls at the time.
class Tracer {
 public:
  /// Clears all buffers and starts recording; the calling thread
  /// becomes the root thread that workers attach their spans to.
  static void Start();
  /// Stops recording and returns every span, sorted by (start, longer
  /// first, id) so the merge order does not depend on which worker
  /// registered its buffer first.
  static std::vector<Span> Collect();
  static bool enabled();
};

struct ThreadBuffer;

/// RAII span: records [construction, destruction) under `name` when
/// the tracer is on; otherwise costs one relaxed atomic load. An
/// `anchor` span opened on the root thread becomes the parent of spans
/// that workers open while it is open; the benchmark anchors its calls
/// into the library, the decorators do not (a worker's plan must not
/// nest under the plan the root thread happens to be running).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool anchor = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(uint64_t work);
  void set_failed();

 private:
  ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
  bool anchor_ = false;
  uint64_t outer_anchor_ = kNoParent;
};

/// Self time of every span in `spans` (same order): its duration minus
/// the part of its interval covered by the union of its children's
/// intervals. Children running in parallel on several workers are
/// therefore not subtracted twice.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct SpanTotals {
  uint64_t calls = 0;
  uint64_t failed = 0;
  uint64_t work = 0;
  int64_t busy_ns = 0;  // Sum of durations.
  int64_t self_ns = 0;  // Sum of self times.
};

/// Per-name totals over `spans`.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes one tab-separated line per span (name, start_ns, end_ns, id,
/// parent, work, failed). Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_

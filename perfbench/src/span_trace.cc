#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

struct ThreadBuffer {
  uint64_t index = 0;
  bool root = false;
  std::vector<Span> spans;
  std::vector<size_t> open;  // Indices into `spans`, innermost last.
};

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_session{0};
// Innermost anchor span open on the root thread: the parent of spans
// that workers open with an empty stack of their own.
std::atomic<uint64_t> g_ambient{kNoParent};
std::chrono::steady_clock::time_point g_origin;
std::thread::id g_root_thread;  // Guarded by g_mutex.

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // Guarded by g_mutex.

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_session = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_origin)
      .count();
}

ThreadBuffer* LocalBuffer() {
  const uint64_t session = g_session.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_session != session) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_mutex);
    buffer->root = std::this_thread::get_id() == g_root_thread;
    buffer->index = g_buffers.size();
    t_buffer = buffer.get();
    t_session = session;
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

}  // namespace

void Tracer::Start() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_buffers.clear();
  g_root_thread = std::this_thread::get_id();
  g_origin = std::chrono::steady_clock::now();
  g_ambient.store(kNoParent, std::memory_order_relaxed);
  g_session.fetch_add(1, std::memory_order_acq_rel);
  g_enabled.store(true, std::memory_order_release);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  g_enabled.store(false, std::memory_order_release);
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    g_buffers.clear();
  }
  g_session.fetch_add(1, std::memory_order_acq_rel);
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
    return a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(const char* name, bool anchor) {
  if (!Tracer::enabled()) return;
  buffer_ = LocalBuffer();
  anchor_ = anchor && buffer_->root;
  index_ = buffer_->spans.size();
  Span span;
  span.name = name;
  span.id = (buffer_->index << 40) | index_;
  if (!buffer_->open.empty()) {
    span.parent = buffer_->spans[buffer_->open.back()].id;
  } else if (!buffer_->root) {
    span.parent = g_ambient.load(std::memory_order_acquire);
  }
  span.start_ns = NowNs();
  buffer_->spans.push_back(span);
  buffer_->open.push_back(index_);
  if (anchor_) {
    outer_anchor_ = g_ambient.exchange(span.id, std::memory_order_acq_rel);
  }
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
  if (anchor_) g_ambient.store(outer_anchor_, std::memory_order_release);
}

void ScopedSpan::set_work(uint64_t work) {
  if (buffer_ != nullptr) buffer_->spans[index_].work = work;
}

void ScopedSpan::set_failed() {
  if (buffer_ != nullptr) buffer_->spans[index_].failed = true;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto parent = by_id.find(spans[i].parent);
    if (parent != by_id.end()) children[parent->second].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    cover.clear();
    for (size_t child : children[i]) {
      const int64_t lo = std::max(start, spans[child].start_ns);
      const int64_t hi = std::min(end, spans[child].end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = start;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (end - start) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.calls;
    t.failed += spans[i].failed ? 1 : 0;
    t.work += spans[i].work;
    t.busy_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tstart_ns\tend_ns\tid\tparent\twork\tfailed\n";
  for (const Span& span : spans) {
    out << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.id << '\t'
        << (span.parent == kNoParent ? std::string("-")
                                     : std::to_string(span.parent))
        << '\t' << span.work << '\t' << (span.failed ? 1 : 0) << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "trace.hpp"

#include <chrono>
#include <unordered_map>

#include "arith.hpp"

namespace perfbench {
namespace {

// Each Tracer gets a distinct generation, so a thread's cached buffer
// pointer is never reused for a later tracer that happens to occupy the
// same address.
std::atomic<std::uint64_t> g_generation{0};

struct ThreadState {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
  std::uint32_t current = 0;  // innermost open span on this thread
};
thread_local ThreadState t_state;

using Interval = std::pair<std::uint64_t, std::uint64_t>;

std::unordered_map<std::uint32_t, std::vector<std::size_t>> children_index(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> kids;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) kids[spans[i].parent].push_back(i);
  }
  return kids;
}

std::uint64_t self_of(
    const SpanRecord& span, const std::vector<SpanRecord>& spans,
    const std::unordered_map<std::uint32_t, std::vector<std::size_t>>& kids) {
  std::vector<Interval> covered;
  if (const auto it = kids.find(span.id); it != kids.end()) {
    covered.reserve(it->second.size());
    for (const std::size_t k : it->second) {
      covered.emplace_back(spans[k].begin_ns, spans[k].end_ns);
    }
  }
  return self_time(span.begin_ns, span.end_ns, std::move(covered));
}

}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : generation_(g_generation.fetch_add(1) + 1) {}

Tracer::~Tracer() {
  if (active() == this) install(nullptr);
}

Tracer::Buffer& Tracer::buffer_for_this_thread() {
  if (t_state.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_state.generation = generation_;
    t_state.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_state.buffer);
}

void Tracer::record(const SpanRecord& span) {
  buffer_for_this_thread().spans.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

Span::Span(const char* name) noexcept : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) open(name, t_state.current);
}

Span::Span(const char* name, std::uint32_t parent) noexcept
    : tracer_(Tracer::active()) {
  if (tracer_ != nullptr) open(name, parent);
}

void Span::open(const char* name, std::uint32_t parent) noexcept {
  record_.name = name;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  saved_current_ = t_state.current;
  t_state.current = record_.id;
  record_.begin_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  t_state.current = saved_current_;
  tracer_->record(record_);
}

std::uint32_t Span::current() noexcept { return t_state.current; }

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  const auto kids = children_index(spans);
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total_ns += s.end_ns - s.begin_ns;
    t.self_ns += self_of(s, spans, kids);
  }
  return out;
}

std::uint64_t covered_by(const std::vector<SpanRecord>& spans,
                         std::uint32_t root,
                         const std::function<bool(std::string_view)>& pick) {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  const auto root_it = by_id.find(root);
  if (root_it == by_id.end()) return 0;
  std::vector<Interval> hits;
  for (const SpanRecord& s : spans) {
    if (!pick(s.name)) continue;
    // Walk up to the root; spans form a forest, so the walk ends.
    std::uint32_t p = s.parent;
    while (p != 0 && p != root) {
      const auto it = by_id.find(p);
      p = it == by_id.end() ? 0 : it->second->parent;
    }
    if (p == root) hits.emplace_back(s.begin_ns, s.end_ns);
  }
  return covered_length(std::move(hits), root_it->second->begin_ns,
                        root_it->second->end_ns);
}

}  // namespace perfbench

#include "tracing.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetEnabled(bool on) {
  enabled_ = on;
  owner_ = std::this_thread::get_id();
  stack_.clear();
}

int32_t Tracer::Open(const char* name) {
  if (std::this_thread::get_id() != owner_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start_ns = NowNs();
  spans_.push_back(rec);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order on the owning thread.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<SpanRecord> Tracer::TakeSpans() {
  std::vector<SpanRecord> out = std::move(spans_);
  spans_.clear();
  stack_.clear();
  return out;
}

std::vector<int64_t> ChildTime(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.duration_ns();
  }
  return child;
}

bool WriteSpansTsv(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<SpanRecord>>>& groups) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "group\tindex\tname\tparent\tstart_ns\tend_ns\n");
  for (const auto& [label, spans] : groups) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%s\t%zu\t%s\t%d\t%lld\t%lld\n", label.c_str(), i,
                   s.name, s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

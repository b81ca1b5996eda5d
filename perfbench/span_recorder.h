// Wall-clock span recorder for the simulator-cost benchmark.
//
// The simulator's own SpanTracer stamps *virtual* time, so it cannot attribute
// host time. This recorder stamps std::chrono::steady_clock instead. The
// harness opens a span around each public call it makes into a layer; spans
// nest strictly on the single harness thread, so a span's parent is whatever
// span was open when it began, and its self time is its duration minus the
// durations of its direct children. Spans stay in memory and are written out
// as Chrome trace JSON once the run ends.

#ifndef FAASNAP_PERFBENCH_SPAN_RECORDER_H_
#define FAASNAP_PERFBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace faasnap {
namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // static string: one of the harness's span names
  int64_t start_ns = 0;   // relative to the recorder's origin
  int64_t end_ns = 0;
  int32_t parent = -1;    // index into spans(), -1 for a root
  int64_t op = -1;        // op id shared by the spans of one op, -1 outside ops
};

// Per span name: how often it ran, its total duration and its self time.
struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  // While disabled, Begin/End record nothing (one branch per call).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Returns the new span's index, or -1 while disabled.
  int32_t Begin(const char* name, int64_t op) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(span);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }

  void End(int32_t id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, SpanTotals> Totals() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SpanTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      SpanTotals& t = totals[spans_[i].name];
      ++t.calls;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
    }
    return totals;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds). Returns false
  // if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}",
                   i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<long long>(s.op));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t op = -1)
      : recorder_(recorder), id_(recorder->Begin(name, op)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench
}  // namespace faasnap

#endif  // FAASNAP_PERFBENCH_SPAN_RECORDER_H_

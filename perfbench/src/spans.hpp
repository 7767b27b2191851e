#pragma once

// In-memory span recorder for the traced benchmark run. Spans are
// recorded around calls into the simulator's public entry points, kept in
// memory, and written once at exit as Chrome trace-event JSON (Perfetto
// and chrome://tracing both open it).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;    ///< layer-qualified call, e.g. "fault.run_schedule"
  std::string run_id;  ///< "arch|seed" or "workload|arch"
  std::int64_t start_ns = 0;  ///< since the recorder's origin
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Open a span now; returns its index for end() and as a parent.
  int begin(std::string name, std::string run_id, int parent = -1);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as a complete ("X") trace event; args carry the run
  /// id, the parent index and the self time. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::string run_id,
             int parent = -1)
      : rec_(rec),
        id_(rec ? rec->begin(std::move(name), std::move(run_id), parent)
                : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span, so
/// overlapping siblings count once and a child running past its parent's
/// end does not make the parent's self time negative).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench

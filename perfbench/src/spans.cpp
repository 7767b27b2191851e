#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "farm/journal.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name, std::string run_id, int parent) {
  Span s;
  s.name = std::move(name);
  s.run_id = std::move(run_id);
  s.parent = parent;
  s.start_ns = s.end_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int id) { spans_[id].end_ns = now_ns(); }

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = self_times_ns(spans_);
  auto us = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string::size_type dot = s.name.find('.');
    const std::string layer =
        dot == std::string::npos ? s.name : s.name.substr(0, dot);
    out << (i ? ",\n" : "") << "{\"name\":\""
        << recosim::farm::json_escape(s.name) << "\",\"cat\":\""
        << recosim::farm::json_escape(layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start_ns)
        << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":\""
        << recosim::farm::json_escape(s.run_id) << "\",\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"self_us\":" << us(self[i])
        << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;  // end of the union so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, p.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a library layer, recorded from the
// benchmark's side of the API: name, start, end, the enclosing span and
// the workload-wide cell index it belongs to.  Spans stay in memory while
// the run measures and are written out once, after the last one closes.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace sweepbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 for a root
  int cell = -1;    ///< workload-wide cell index; -1 when not per cell

  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  int open(std::string name, int parent = -1, int cell = -1) {
    spans_.push_back({std::move(name), now(), 0.0, parent, cell});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  /// Runs `body` inside a span and returns what it returns.
  template <class Body>
  auto timed(std::string name, int parent, int cell, Body&& body)
      -> decltype(body()) {
    struct Closer {
      SpanRecorder& recorder;
      int id;
      ~Closer() { recorder.close(id); }
    } closer{*this, open(std::move(name), parent, cell)};
    return body();
  }

  std::size_t size() const { return spans_.size(); }
  const Span& operator[](int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Summed duration of the spans named `name` among indices [first, last).
  double total(const std::string& name, std::size_t first,
               std::size_t last) const {
    double sum = 0.0;
    for (std::size_t i = first; i < spans_.size() && i < last; ++i)
      if (spans_[i].name == name) sum += spans_[i].duration();
    return sum;
  }

  /// One JSON object per line: {"id":..,"name":..,"start":..,"end":..,
  /// "parent":..,"cell":..}.
  void write_jsonl(std::ostream& os) const {
    const auto precision = os.precision(12);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"start\":" << s.start << ",\"end\":" << s.end
         << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell << "}\n";
    }
    os.precision(precision);
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace sweepbench

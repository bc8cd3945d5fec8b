#ifndef RAV_PERFBENCH_STATS_H_
#define RAV_PERFBENCH_STATS_H_

// Order statistics and the span recorder of the serving benchmark.

#include <cstdint>
#include <string>
#include <vector>

namespace rav::perfbench {

// One reported number: name, value, unit, and how many samples it
// summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it (p in (0, 100]). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// Whether a sample of `n` supports percentile p: at least ten samples lie
// strictly above it.
bool PercentileSupported(size_t n, double p);

// Indices of the ceil(n / 2) slices of a timed window with the least host
// CPU steal (ties go to the earlier slice), in that order. Steal only ever
// slows a slice down, so the quiet half measures the program rather than
// the machine's other tenants.
std::vector<size_t> QuietestHalf(const std::vector<long long>& steal);

// One timed interval of the traced replay. Spans of one request share
// `request`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
};

// Keeps every span in memory (written out when the run ends). Spans nest
// strictly: Begin pushes, End pops. A disabled recorder records nothing,
// so the untraced replay runs the same code without the bookkeeping.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int64_t request);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Per span: duration minus the part of it covered by its direct
  // children (the union of their intervals, clipped to the parent).
  std::vector<int64_t> SelfTimes() const;

  // One JSON object per line: name, start_ns, end_ns, parent, request.
  bool WriteJsonLines(const std::string& path) const;

  // RAII scope for one span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, int64_t request)
        : recorder_(recorder), id_(recorder.Begin(name, request)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of spans given explicitly (exposed for tests).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace rav::perfbench

#endif  // RAV_PERFBENCH_STATS_H_

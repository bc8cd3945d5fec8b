#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "base/report.h"

namespace rav::perfbench {

namespace {

// 1-based rank of the nearest-rank percentile; the epsilon keeps exact
// products such as 0.9 * 100 from rounding up to the next rank.
double NearestRank(size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = NearestRank(samples.size(), p);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

bool PercentileSupported(size_t n, double p) {
  return static_cast<double>(n) - NearestRank(n, p) >= 10.0;
}

std::vector<size_t> QuietestHalf(const std::vector<long long>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  order.resize((order.size() + 1) / 2);
  return order;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  return perfbench::SelfTimes(spans_);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // everything before `reach` is already counted
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, reach);
      const int64_t to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    Json line = Json::Object();
    line.Set("name", Json::String(s.name));
    line.Set("start_ns", Json::Number(s.start_ns));
    line.Set("end_ns", Json::Number(s.end_ns));
    line.Set("parent", Json::Number(s.parent));
    line.Set("request", Json::Number(s.request));
    out << line.Dump(0) << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace rav::perfbench

#ifndef RAV_PERFBENCH_REPLAY_H_
#define RAV_PERFBENCH_REPLAY_H_

// The in-process replay behind the per-layer metrics. It regenerates the
// socket run's seeded request stream and answers it without a socket,
// calling each layer's public function itself — ParseRequest, the spec
// content hash, CompiledSpec::Compile, CheckEraEmptiness, VerifyLtlFo,
// EstimateLrBound, QueryResponse::ToJsonLine — inside spans recorded by
// the benchmark. The span tree of one request is
//
//   request
//   ├─ service.parse_request
//   ├─ service.handle          (the benchmark's mirror of Service::Handle)
//   │  ├─ service.spec_hash    (requests that carry the spec text)
//   │  ├─ compile.spec         (cache misses)
//   │  └─ era.search | era.ltlfo | projection.lrbound
//   └─ service.serialize
//
// Layers the service calls from inside one opaque function are timed by
// probes after the replay, under `probe` root spans: the compile stages
// (io.parse, analysis.lint, analysis.strip, ra.alphabet) per compiled
// spec, ra.scontrol per search request, and, on a fixed seeded probe set,
// the search at 1 and 4 threads plus the closure-build / cover split of
// LR sampling.

#include <cstddef>
#include <string>
#include <vector>

#include "stats.h"
#include "stream.h"

namespace rav::perfbench {

struct ReplayOptions {
  size_t max_timed = 0;    // replay at most this many timed requests
  double budget_s = 5;     // ... and stop the traced pass after this long
  size_t cache_capacity = 64;
  std::string trace_path;  // span dump ("" = none)
};

struct ReplayResult {
  std::vector<Metric> metrics;  // per-layer
  size_t replayed = 0;  // requests answered per pass (warm + timed)
  std::vector<std::string> mismatches;
  std::string span_table;  // human-readable per-span summary
};

ReplayResult RunReplay(const RequestStream& stream,
                       const ReplayOptions& options);

}  // namespace rav::perfbench

#endif  // RAV_PERFBENCH_REPLAY_H_

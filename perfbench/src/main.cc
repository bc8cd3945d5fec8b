// rav_load — the serving benchmark's load generator (perfbench/README.md).
//
//   rav_load --config perfbench/config.json --serve <rav_serve binary>
//            --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-dir <dir>]
//
// Starts `rav_serve --listen 127.0.0.1:0` with the workload's flags,
// uploads the warm spec set, drives the seeded request stream over
// loopback for --seconds and checks every answer against the stream's
// oracle. With --trace 1 it then replays the same stream in process with
// spans around each layer (replay.h). Prints a table of every metric with
// its unit and sample count, then one JSON result line; exits 1 when any
// answer, drain, or counter cross-check is wrong.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/report.h"
#include "loadgen.h"
#include "replay.h"
#include "server.h"
#include "stats.h"
#include "stream.h"

namespace rav::perfbench {
namespace {

constexpr int kDrainExitCode = 5;
// Set-ups per run; setup_s is their median. A run repeats set-up at
// least kMinSetups times and until kSetupSeconds have passed (at most
// kMaxSetups times): a set-up of the small workloads takes milliseconds
// and varies by half between set-ups.
constexpr size_t kMinSetups = 11;
constexpr size_t kMaxSetups = 101;
constexpr double kSetupSeconds = 1.0;
// Length of one slice of the timed window (the quietest half is kept,
// stats.h). Host steal comes and goes within a second; slices this short
// let the quiet half leave more of it out.
constexpr double kSliceSeconds = 0.2;
// The traced replay's budget, as a share of --seconds.
constexpr double kReplayShare = 0.25;
// Warm-up traffic before the timed window, as a share of --seconds. The
// first search requests a server answers are up to three times slower
// than the rest, which put a second's worth of outliers into the tail.
constexpr double kWarmupShare = 0.1;
// Warm-up traffic is drawn from this far into the stream, a part the
// timed window never reaches, so the window sends the same requests as
// a run without warm-up.
constexpr size_t kWarmupFirstIndex = size_t{1} << 32;

struct Args {
  std::string config;
  std::string serve;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--config") {
      args->config = value;
    } else if (flag == "--serve") {
      args->serve = value;
    } else if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->config.empty() &&
         !args->serve.empty() && !args->workload.empty();
}

const Json* Field(const Json& obj, const char* key, Json::Kind kind) {
  const Json* v = obj.Find(key);
  return (v != nullptr && v->kind() == kind) ? v : nullptr;
}

double Number(const Json& obj, const char* key, double fallback) {
  const Json* v = Field(obj, key, Json::Kind::kNumber);
  return v != nullptr ? v->number_value() : fallback;
}

struct WorkloadConfig {
  StreamConfig stream;
  bool open_loop = false;
  int connections = 1;
  int depth = 1;
  double rate_rps = 0;
  std::vector<std::string> server_flags;
  size_t cache_capacity = 64;  // the server's --cache
};

bool LoadConfig(const Args& args, WorkloadConfig* out, std::string* error) {
  std::ifstream in(args.config);
  if (!in) {
    *error = "cannot read " + args.config;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  Result<Json> config = Json::Parse(text.str());
  if (!config.ok() || !config->is_object()) {
    *error = args.config + " is not a JSON object";
    return false;
  }
  const Json* workloads = Field(*config, "workloads", Json::Kind::kObject);
  const Json* w = workloads != nullptr
                      ? Field(*workloads, args.workload.c_str(),
                              Json::Kind::kObject)
                      : nullptr;
  if (w == nullptr) {
    *error = "unknown workload '" + args.workload + "'";
    return false;
  }
  out->stream.workload = args.workload;
  const Json* loop = Field(*w, "loop", Json::Kind::kString);
  out->open_loop = loop != nullptr && loop->string_value() == "open";
  out->connections = static_cast<int>(Number(*w, "connections", 1));
  out->depth = static_cast<int>(Number(*w, "depth", 1));
  out->rate_rps = Number(*w, "rate_rps", 0);
  out->stream.request_threads =
      static_cast<int>(Number(*w, "request_threads", 1));
  if (const Json* flags = Field(*w, "server_flags", Json::Kind::kArray)) {
    for (const Json& f : flags->items()) {
      out->server_flags.push_back(f.string_value());
    }
  }
  for (size_t i = 0; i + 1 < out->server_flags.size(); ++i) {
    if (out->server_flags[i] == "--cache") {
      out->cache_capacity =
          static_cast<size_t>(std::atoll(out->server_flags[i + 1].c_str()));
    }
  }
  // compile_churn warms exactly the cache's worth of its top specs.
  out->stream.warm_specs = out->cache_capacity;
  if (out->connections < 1 || out->connections > 4 || out->depth < 1 ||
      (out->open_loop && !(out->rate_rps > 0))) {
    *error = "workload '" + args.workload + "' has invalid settings";
    return false;
  }
  return true;
}

// Host CPU steal so far, in clock ticks, from the first line of
// /proc/stat (-1 when unreadable): time the hypervisor ran something else
// while this machine's CPUs had work.
long long HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long fields[8] = {};
  in >> cpu;
  for (long long& f : fields) in >> f;
  return (in && cpu == "cpu") ? fields[7] : -1;
}

struct Boundary {
  int64_t t_ns = 0;  // when the load loop reached the boundary
  double server_cpu_s = 0;
  long long steal_ticks = 0;
};

struct WindowMetrics {
  double throughput_rps = 0;
  std::vector<double> latency_ms;
  double cpu_ms_per_req = 0;
  size_t slices_used = 0;
  double steal_share = 0;  // of the whole window, in CPUs
};

// Cuts the window into slices and keeps the quietest half (stats.h).
// Throughput, latency samples and server CPU per answer are pooled over
// the kept slices.
WindowMetrics QuietHalf(const LoadResult& timed,
                        const std::vector<Boundary>& marks) {
  WindowMetrics out;
  const size_t usable = marks.empty() ? 0 : marks.size() - 1;
  std::vector<std::vector<double>> latency(usable);
  for (const auto& [t, ms] : timed.completions) {
    // The slice whose [start, end) holds t, by the measured boundary times.
    auto after = std::upper_bound(
        marks.begin(), marks.end(), t,
        [](int64_t v, const Boundary& b) { return v < b.t_ns; });
    const auto k = after - marks.begin() - 1;
    if (k >= 0 && static_cast<size_t>(k) < usable) {
      latency[static_cast<size_t>(k)].push_back(ms);
    }
  }
  std::vector<long long> steal(usable);
  for (size_t k = 0; k < usable; ++k) {
    steal[k] = marks[k + 1].steal_ticks - marks[k].steal_ticks;
  }
  const std::vector<size_t> order = QuietestHalf(steal);
  size_t answers = 0;
  double cpu_s = 0;
  double kept_s = 0;
  for (size_t k : order) {
    answers += latency[k].size();
    cpu_s += marks[k + 1].server_cpu_s - marks[k].server_cpu_s;
    kept_s += (marks[k + 1].t_ns - marks[k].t_ns) / 1e9;
    out.latency_ms.insert(out.latency_ms.end(), latency[k].begin(),
                          latency[k].end());
  }
  out.slices_used = order.size();
  if (kept_s > 0) out.throughput_rps = static_cast<double>(answers) / kept_s;
  if (answers > 0) {
    out.cpu_ms_per_req = cpu_s * 1e3 / static_cast<double>(answers);
  }
  if (usable > 0) {
    const double window_s = (marks[usable].t_ns - marks[0].t_ns) / 1e9;
    out.steal_share =
        static_cast<double>(marks[usable].steal_ticks - marks[0].steal_ticks) /
        static_cast<double>(sysconf(_SC_CLK_TCK)) / window_s;
  }
  return out;
}

// A started server with a connected, warmed-up client.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::optional<LoadClient> client;
  LoadResult warm;
};

int Run(const Args& args) {
  WorkloadConfig config;
  std::string error;
  if (!LoadConfig(args, &config, &error)) {
    std::fprintf(stderr, "rav_load: %s\n", error.c_str());
    return 2;
  }
  std::optional<RequestStream> stream =
      RequestStream::Create(config.stream, args.seed);
  if (!stream) {
    std::fprintf(stderr, "rav_load: cannot build the '%s' stream\n",
                 args.workload.c_str());
    return 2;
  }

  std::vector<std::string> problems;
  auto problem = [&](const std::string& p) {
    std::fprintf(stderr, "rav_load: %s\n", p.c_str());
    problems.push_back(p);
  };

  // Set-up, repeated: spawn, connect, upload the warm set. Every server
  // but the last is drained right away (asserting exit 5); the last one
  // serves the timed window.
  std::vector<double> setup_s;
  std::optional<Served> served;
  const int64_t setup_start = NowNs();
  while (!served) {
    const int64_t t0 = NowNs();
    Served s;
    s.server = ServerProcess::Start(args.serve, config.server_flags, &error);
    if (s.server == nullptr) {
      std::fprintf(stderr, "rav_load: %s\n", error.c_str());
      return 1;
    }
    s.client = LoadClient::Connect(s.server->port(), config.connections, &error);
    if (!s.client) {
      std::fprintf(stderr, "rav_load: %s\n", error.c_str());
      return 1;
    }
    if (!s.client->RunSequential(stream->warm(), &s.warm)) {
      for (const std::string& m : s.warm.mismatches) problem("warm-up: " + m);
      problem("warm-up failed");
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    const bool last =
        setup_s.size() >= kMaxSetups ||
        (setup_s.size() >= kMinSetups &&
         (NowNs() - setup_start) / 1e9 >= kSetupSeconds);
    if (!last) {
      s.client.reset();
      const int code = s.server->Drain(30);
      if (code != kDrainExitCode) {
        problem("set-up server drained with exit " + std::to_string(code));
      }
    } else {
      served.emplace(std::move(s));
    }
  }

  LoadOptions load;
  load.open_loop = config.open_loop;
  load.connections = config.connections;
  load.depth = config.depth;
  load.rate_rps = config.rate_rps;
  load.seconds = args.seconds * kWarmupShare;
  load.first_index = kWarmupFirstIndex;
  const LoadResult warm_traffic = served->client->RunTimed(*stream, load);
  for (const std::string& m : warm_traffic.mismatches) {
    problem("warm-up traffic: " + m);
  }
  if (warm_traffic.failed != 0) problem("warm-up traffic failed");

  load.seconds = args.seconds;
  load.first_index = 0;
  load.slices = std::max(2, static_cast<int>(std::lround(args.seconds /
                                                          kSliceSeconds)));
  std::vector<Boundary> marks;
  load.on_boundary = [&] {
    marks.push_back({NowNs(), served->server->CpuSeconds(), HostStealTicks()});
  };
  const LoadResult timed = served->client->RunTimed(*stream, load);
  const double rss_mb = served->server->PeakRssMb();
  for (const std::string& m : timed.mismatches) problem(m);

  // The service's own counters must match the client's tally.
  if (std::optional<Json> stats = served->client->Stats()) {
    const double requests = Number(*stats, "requests", -1);
    const double hits = Number(*stats, "cache_hits", -1);
    const double misses = Number(*stats, "cache_misses", -1);
    const size_t want_requests = served->warm.answered_by_service +
                                 warm_traffic.answered_by_service +
                                 timed.answered_by_service;
    const size_t want_hits = served->warm.cache_hits +
                             warm_traffic.cache_hits + timed.cache_hits;
    const size_t want_misses = served->warm.cache_misses +
                               warm_traffic.cache_misses + timed.cache_misses;
    if (requests != static_cast<double>(want_requests) ||
        hits != static_cast<double>(want_hits) ||
        misses != static_cast<double>(want_misses)) {
      problem("stats disagree with the client: requests/hits/misses " +
              std::to_string(static_cast<long long>(requests)) + "/" +
              std::to_string(static_cast<long long>(hits)) + "/" +
              std::to_string(static_cast<long long>(misses)) + ", client " +
              std::to_string(want_requests) + "/" + std::to_string(want_hits) +
              "/" + std::to_string(want_misses));
    }
  } else {
    problem("the stats op did not answer");
  }
  const int drain_code = served->server->Drain(30);
  if (drain_code != kDrainExitCode) {
    problem("server drained with exit " + std::to_string(drain_code) +
            ", expected " + std::to_string(kDrainExitCode));
  }
  served->client.reset();

  const WindowMetrics window = QuietHalf(timed, marks);
  const size_t n = window.latency_ms.size();
  std::vector<Metric> e2e = {
      {"throughput_rps", window.throughput_rps, "1/s", n},
      {"latency_p50_ms", Percentile(window.latency_ms, 50), "ms", n},
      {"latency_p90_ms", Percentile(window.latency_ms, 90), "ms", n},
      {"ok_ratio",
       timed.attempted == 0 ? 0
                            : static_cast<double>(timed.ok) /
                                  static_cast<double>(timed.attempted),
       "ratio", timed.attempted},
      {"server_cpu_ms_per_req", window.cpu_ms_per_req, "ms", n},
      {"server_peak_rss_mb", rss_mb, "MiB", 1},
      {"setup_s", Percentile(setup_s, 50), "s", setup_s.size()},
  };
  // Printed, not gated: p99 only where the sample supports it, and the
  // failure share (zero on every kept workload).
  std::vector<Metric> extra = {
      {"fail_ratio",
       timed.attempted == 0 ? 0
                            : static_cast<double>(timed.failed) /
                                  static_cast<double>(timed.attempted),
       "ratio", timed.attempted}};
  if (PercentileSupported(n, 99)) {
    extra.push_back({"latency_p99_ms", Percentile(window.latency_ms, 99), "ms", n});
  }

  std::vector<Metric> layers;
  if (args.trace) {
    layers = {
        {"transport.overhead_us_p50", Percentile(timed.overhead_us, 50), "us",
         timed.overhead_us.size()},
        {"transport.overhead_us_p99", Percentile(timed.overhead_us, 99), "us",
         timed.overhead_us.size()},
        {"transport.shed_total", static_cast<double>(timed.shed), "count", 1},
        {"loadgen.late_us_p99", Percentile(timed.late_us, 99), "us",
         timed.late_us.size()},
        {"loadgen.cpu_share",
         timed.elapsed_s > 0 ? timed.client_cpu_s / timed.elapsed_s : 0,
         "ratio", 1},
        {"host.steal_cpus", window.steal_share, "CPUs", marks.size()},
    };
    ReplayOptions replay;
    replay.max_timed = timed.attempted;
    replay.budget_s = args.seconds * kReplayShare;
    replay.cache_capacity = config.cache_capacity;
    if (!args.trace_dir.empty()) {
      // One file per workload, overwritten by its next traced run.
      replay.trace_path = args.trace_dir + "/" + args.workload + ".spans.jsonl";
    }
    const ReplayResult result = RunReplay(*stream, replay);
    for (const std::string& m : result.mismatches) problem(m);
    layers.insert(layers.end(), result.metrics.begin(), result.metrics.end());
    std::printf("%s", result.span_table.c_str());
  }

  std::printf("workload %s seed %llu: %zu sent, %zu ok, %zu failed, "
              "stream digest %s (warm set + first 1000 timed lines)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              timed.attempted, timed.ok, timed.failed,
              stream->Digest(1000).c_str());
  auto print = [](const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
      std::printf("  %-28s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  };
  std::printf("  window: %zu of %d slices kept (least host steal); "
              "host steal %.2f CPUs over the window\n",
              window.slices_used, load.slices, window.steal_share);
  print(e2e);
  print(extra);
  print(layers);

  const bool correct = problems.empty() && timed.failed == 0;
  Json metrics = Json::Object();
  for (const Metric& m : args.trace ? layers : e2e) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::String(m.unit));
    metrics.Set(m.name, std::move(entry));
  }
  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Number(static_cast<uint64_t>(timed.attempted)));
  result.Set("failed", Json::Number(static_cast<uint64_t>(timed.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump(0).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rav::perfbench

int main(int argc, char** argv) {
  rav::perfbench::Args args;
  if (!rav::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rav_load --config FILE --serve BINARY --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  return rav::perfbench::Run(args);
}

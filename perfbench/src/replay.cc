#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

#include "analysis/diagnostic.h"
#include "analysis/lint.h"
#include "base/governor.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "io/proposition.h"
#include "io/text_format.h"
#include "projection/lr_bounded.h"
#include "ra/control.h"
#include "service/compiled_spec.h"
#include "service/request.h"
#include "service/service.h"
#include "stats.h"

namespace rav::perfbench {

namespace {

using service::CompiledSpec;
using SpecPtr = std::shared_ptr<const CompiledSpec>;

// Probe sizes: enough calls for a stable median, few enough to keep the
// probes well under a second on the heaviest workload.
constexpr size_t kProbeCompiles = 32;  // specs compiled in the traced pass
constexpr size_t kProbeSControl = 32;  // search requests of the stream
constexpr size_t kProbeSearches = 4;   // the fixed 1-vs-4-worker probe set

// The decision service's Handle, rebuilt from the layers' public
// functions so that each layer call sits inside its own span. It keeps
// the service's behaviour: an LRU of compiled specs keyed by content
// hash, a governor per request, the same op dispatch, and the same
// response and embedded report.
class MirrorService {
 public:
  MirrorService(size_t capacity, SpanRecorder& recorder)
      : capacity_(capacity == 0 ? 1 : capacity), recorder_(recorder) {}

  service::QueryResponse Handle(const service::QueryRequest& request,
                                int64_t rid);

  size_t queries() const { return queries_; }
  size_t hits() const { return hits_; }
  // Texts of the specs compiled on misses, in order.
  const std::vector<std::string>& compiled_texts() const {
    return compiled_texts_;
  }

 private:
  SpecPtr Lookup(const std::string& hash);
  service::QueryResponse Execute(const service::QueryRequest& request,
                                 int64_t rid);

  struct Entry {
    SpecPtr spec;
    uint64_t last_used = 0;
  };
  size_t capacity_;
  SpanRecorder& recorder_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t tick_ = 0;
  size_t queries_ = 0;
  size_t hits_ = 0;
  std::vector<std::string> compiled_texts_;
};

SpecPtr MirrorService::Lookup(const std::string& hash) {
  auto it = entries_.find(hash);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = ++tick_;
  ++hits_;
  return it->second.spec;
}

service::QueryResponse MirrorService::Handle(
    const service::QueryRequest& request, int64_t rid) {
  SpanRecorder::Scope span(recorder_, "service.handle", rid);
  const int64_t start = NowNs();
  service::QueryResponse response = Execute(request, rid);
  response.wall_ms = (NowNs() - start) / 1e6;

  RunReport report;
  report.experiment = std::string("serve/") + response.op;
  report.claim = "decision service request (docs/serving.md)";
  report.params.Set("id", Json::String(response.id));
  report.params.Set("op", Json::String(response.op));
  if (!response.spec_hash.empty()) {
    report.params.Set("spec_hash", Json::String(response.spec_hash));
    report.params.Set("cache_hit", Json::Bool(response.cache_hit));
  }
  report.params.Set("timeout_ms",
                    Json::Number(static_cast<int64_t>(request.timeout_ms)));
  report.params.Set("memory_bytes",
                    Json::Number(static_cast<int64_t>(request.memory_bytes)));
  report.params.Set("threads", Json::Number(request.threads));
  report.params.Set("search_mode",
                    Json::String(SearchModeName(request.search_mode)));
  report.params.Set("exit_equivalent", Json::Number(response.exit_equivalent));
  report.verdict = response.ok ? response.verdict : "error: " + response.error;
  report.wall_ms = response.wall_ms;
  response.report = ReportToJson(report);
  return response;
}

service::QueryResponse MirrorService::Execute(
    const service::QueryRequest& request, int64_t rid) {
  service::QueryResponse response;
  response.id = request.id;
  response.op = service::OpName(request.op);
  auto fail = [&](const Status& status) {
    response.ok = false;
    response.error = status.ToString();
    response.verdict = "error";
    response.exit_equivalent = 1;
    return response;
  };

  ++queries_;
  SpecPtr spec;
  if (!request.spec_text.empty()) {
    std::string hash;
    {
      SpanRecorder::Scope s(recorder_, "service.spec_hash", rid);
      hash = service::SpecContentHash(request.spec_text);
    }
    spec = Lookup(hash);
    response.cache_hit = spec != nullptr;
    if (spec == nullptr) {
      Result<SpecPtr> compiled = [&] {
        SpanRecorder::Scope s(recorder_, "compile.spec", rid);
        return CompiledSpec::Compile(request.spec_text);
      }();
      if (!compiled.ok()) return fail(compiled.status());
      spec = *compiled;
      compiled_texts_.push_back(request.spec_text);
      entries_[hash] = Entry{spec, ++tick_};
      while (entries_.size() > capacity_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->second.last_used < victim->second.last_used) victim = it;
        }
        entries_.erase(victim);
      }
    }
  } else {
    spec = Lookup(request.spec_hash);
    if (spec == nullptr) {
      return fail(Status::NotFound("spec_hash '" + request.spec_hash +
                                   "' is not in the replay's cache"));
    }
    response.cache_hit = true;
  }
  response.spec_hash = spec->hash();

  ExecutionGovernor governor;
  switch (request.op) {
    case service::Op::kEmpty: {
      EraEmptinessOptions options;
      options.num_workers = request.threads;
      options.search_mode = request.search_mode;
      options.analyze_and_strip = false;
      options.governor = &governor;
      auto result = [&] {
        SpanRecorder::Scope s(recorder_, "era.search", rid);
        return CheckEraEmptiness(spec->emptiness_subject(),
                                 spec->emptiness_alphabet(), options);
      }();
      if (!result.ok()) return fail(result.status());
      response.ok = true;
      if (result->nonempty) {
        response.verdict = "NONEMPTY";
        response.exit_equivalent = 3;
        response.details.Set("witness",
                             Json::String(result->control_word.ToString()));
      } else if (result->search_truncated) {
        response.verdict = "EMPTY (search truncated, not definitive)";
      } else {
        response.verdict = "EMPTY";
      }
      response.details.Set(
          "stop_reason",
          Json::String(SearchStopReasonName(result->stats.stop_reason)));
      response.details.Set("search", Json::String(result->stats.ToString()));
      return response;
    }
    case service::Op::kVerify: {
      Result<LtlFoProperty> property =
          ParseLtlFoProperty(request.ltl, request.propositions,
                             spec->analysis_subject().automaton());
      if (!property.ok()) return fail(property.status());
      VerificationOptions options;
      options.analyze_and_strip = false;
      options.emptiness.num_workers = request.threads;
      options.emptiness.search_mode = request.search_mode;
      options.emptiness.governor = &governor;
      auto result = [&] {
        SpanRecorder::Scope s(recorder_, "era.ltlfo", rid);
        return VerifyLtlFo(spec->analysis_subject(), *property, options);
      }();
      if (!result.ok()) return fail(result.status());
      response.ok = true;
      if (result->holds) {
        response.verdict = result->search_truncated
                               ? "HOLDS (search truncated, not definitive)"
                               : "HOLDS";
      } else {
        response.verdict = "FAILS";
        response.exit_equivalent = 3;
        response.details.Set("counterexample",
                             Json::String(result->counterexample->ToString()));
      }
      response.details.Set("stop_reason",
                           Json::String(SearchStopReasonName(
                               result->search_stats.stop_reason)));
      return response;
    }
    case service::Op::kLrBound: {
      LrBoundOptions options;
      options.num_workers = request.threads;
      options.search_mode = request.search_mode;
      options.analyze_and_strip = false;
      options.governor = &governor;
      auto result = [&] {
        SpanRecorder::Scope s(recorder_, "projection.lrbound", rid);
        return EstimateLrBound(spec->analysis_subject(),
                               spec->analysis_alphabet(), options);
      }();
      if (!result.ok()) return fail(result.status());
      response.ok = true;
      response.verdict = result->growth_detected
                             ? "growth detected (not LR-bounded)"
                             : "no growth detected";
      if (result->growth_detected) response.exit_equivalent = 3;
      response.details.Set("max_cover", Json::Number(result->max_cover));
      response.details.Set("growth_detected",
                           Json::Bool(result->growth_detected));
      response.details.Set(
          "lassos_examined",
          Json::Number(static_cast<uint64_t>(result->lassos_examined)));
      response.details.Set(
          "stop_reason",
          Json::String(SearchStopReasonName(result->stats.stop_reason)));
      return response;
    }
    case service::Op::kLint: {
      response.ok = true;
      response.details.Set(
          "diagnostics",
          analysis::DiagnosticsToJson(spec->diagnostics(), "<spec>"));
      switch (spec->worst_severity()) {
        case analysis::Severity::kError:
          response.verdict = "lint errors";
          break;
        case analysis::Severity::kWarning:
          response.verdict = "lint warnings";
          break;
        case analysis::Severity::kNote:
          response.verdict =
              spec->diagnostics().empty() ? "clean" : "lint notes";
          break;
      }
      return response;
    }
    case service::Op::kInfo: {
      const RegisterAutomaton& a = spec->era().automaton();
      ScopedMemoryCharge charge(&governor, spec->guard_table_bytes());
      response.ok = true;
      response.verdict = "ok";
      response.details.Set("registers", Json::Number(a.num_registers()));
      response.details.Set("states", Json::Number(a.num_states()));
      response.details.Set("transitions", Json::Number(a.num_transitions()));
      response.details.Set(
          "constraints",
          Json::Number(static_cast<uint64_t>(spec->era().constraints().size())));
      response.details.Set("complete", Json::Bool(a.IsComplete()));
      response.details.Set("guard_engine",
                           Json::String(spec->guard_engine_name()));
      response.details.Set("distinct_guards",
                           Json::Number(spec->distinct_guards()));
      response.details.Set(
          "guard_table_bytes",
          Json::Number(static_cast<uint64_t>(spec->guard_table_bytes())));
      response.details.Set("compile_ms", Json::Number(spec->compile_ms()));
      return response;
    }
    case service::Op::kCancel:
    case service::Op::kStats:
      break;
  }
  return fail(Status::InvalidArgument("op not replayed"));
}

struct PassResult {
  size_t replayed = 0;  // warm-up and timed requests
  size_t timed = 0;     // timed requests
  double wall_s = 0;
  size_t queries = 0;
  size_t hits = 0;
  std::vector<std::string> compiled_texts;
};

// Answers warm-up then timed requests, in stream order, until `limit`
// timed requests are done or (when `budget_s` > 0) the budget is spent.
PassResult ReplayPass(const RequestStream& stream, size_t limit,
                      double budget_s, size_t capacity, SpanRecorder& recorder,
                      std::vector<std::string>* mismatches) {
  MirrorService mirror(capacity, recorder);
  PassResult pass;
  const int64_t start = NowNs();
  const size_t warm = stream.warm().size();
  for (size_t i = 0; i < warm + limit; ++i) {
    if (budget_s > 0 && i >= warm && (NowNs() - start) / 1e9 > budget_s) break;
    if (i >= warm) ++pass.timed;
    const Request request =
        i < warm ? stream.warm()[i] : stream.Timed(i - warm);
    const int64_t rid = static_cast<int64_t>(i);
    std::string line;
    {
      SpanRecorder::Scope root(recorder, "request", rid);
      Result<service::QueryRequest> parsed = [&] {
        SpanRecorder::Scope s(recorder, "service.parse_request", rid);
        return service::ParseRequest(request.line);
      }();
      if (!parsed.ok()) {
        mismatches->push_back("replay: " + request.id + " does not parse: " +
                              parsed.status().ToString());
        continue;
      }
      const service::QueryResponse response = mirror.Handle(*parsed, rid);
      SpanRecorder::Scope s(recorder, "service.serialize", rid);
      line = response.ToJsonLine();
    }
    Result<Json> answer = Json::Parse(line);
    std::optional<std::string> mismatch =
        answer.ok() ? CheckResponse(request.expected, *answer)
                    : std::optional<std::string>("unparseable answer");
    if (mismatch) mismatches->push_back("replay: " + request.id + ": " + *mismatch);
    ++pass.replayed;
  }
  pass.wall_s = (NowNs() - start) / 1e9;
  pass.queries = mirror.queries();
  pass.hits = mirror.hits();
  pass.compiled_texts = mirror.compiled_texts();
  return pass;
}

// The first `count` timed requests that run a lasso search: the fixed,
// seeded probe set of the search metrics.
std::vector<Request> SearchProbeSet(const RequestStream& stream, size_t count) {
  std::vector<Request> probes;
  for (size_t i = 0; i < 4096 && probes.size() < count; ++i) {
    Request r = stream.Timed(i);
    if (r.search_op) probes.push_back(std::move(r));
  }
  return probes;
}

struct SearchRun {
  double wall_s = 0;
  SearchStats stats;
  bool as_expected = false;
};

SearchRun RunSearch(const CompiledSpec& spec, const Request& request,
                    int threads) {
  SearchRun run;
  const int64_t start = NowNs();
  if (request.expected.op == "empty") {
    EraEmptinessOptions options;
    options.num_workers = threads;
    options.analyze_and_strip = false;
    auto result = CheckEraEmptiness(spec.emptiness_subject(),
                                    spec.emptiness_alphabet(), options);
    run.wall_s = (NowNs() - start) / 1e9;
    if (!result.ok()) return run;
    run.stats = result->stats;
    run.as_expected =
        result->nonempty == (request.expected.verdict == "NONEMPTY");
  } else {
    LrBoundOptions options;
    options.num_workers = threads;
    options.analyze_and_strip = false;
    auto result = EstimateLrBound(spec.analysis_subject(),
                                  spec.analysis_alphabet(), options);
    run.wall_s = (NowNs() - start) / 1e9;
    if (!result.ok()) return run;
    run.stats = result->stats;
    run.as_expected = result->growth_detected ==
                      (request.expected.verdict.rfind("growth", 0) == 0);
  }
  return run;
}

// EstimateLrBound's per-lasso measurement, driven through the public
// SearchLassos at one worker, with the closure builds and the cover
// computations in separate spans.
void SplitLrBound(const CompiledSpec& spec, SpanRecorder& recorder,
                  int64_t rid) {
  const ExtendedAutomaton& era = spec.analysis_subject();
  const ControlAlphabet& alphabet = spec.analysis_alphabet();
  const Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  const LrBoundOptions defaults;
  const size_t pump_small =
      2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
  const size_t pump_large = 2 * pump_small;
  LassoSearchOptions options;
  options.max_lasso_length = defaults.max_lasso_length;
  options.max_lassos = defaults.max_lassos;
  options.max_search_steps = defaults.max_search_steps;
  options.num_workers = 1;
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) {
    const LassoWord& lasso = candidate.word;
    const size_t w_small = lasso.prefix.size() + lasso.cycle.size() * pump_small;
    std::optional<ConstraintClosure> small;
    {
      SpanRecorder::Scope s(recorder, "era.closure_build", rid);
      small.emplace(era, alphabet, lasso, w_small, &counters.scratch);
    }
    int cover = 0;
    {
      SpanRecorder::Scope s(recorder, "projection.cover", rid);
      cover = MaxCutVertexCoverOfClosure(*small);
    }
    if (cover < 0) return LassoVerdict::kInconsistent;
    std::optional<ConstraintClosure> large;
    {
      SpanRecorder::Scope s(recorder, "era.closure_build", rid);
      large.emplace(small->ExtendedBy(pump_large - pump_small, &counters.scratch));
    }
    SpanRecorder::Scope s(recorder, "projection.cover", rid);
    MaxCutVertexCoverOfClosure(*large);
    return LassoVerdict::kReject;
  };
  SearchLassos(scontrol, options, evaluate);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

}  // namespace

ReplayResult RunReplay(const RequestStream& stream,
                       const ReplayOptions& options) {
  ReplayResult out;
  // Traced pass first (it decides how many requests fit the budget), then
  // the same requests untraced.
  SpanRecorder recorder(true);
  const PassResult traced =
      ReplayPass(stream, options.max_timed, options.budget_s,
                 options.cache_capacity, recorder, &out.mismatches);
  const size_t timed_replayed = traced.timed;
  SpanRecorder off(false);
  std::vector<std::string> untraced_mismatches;
  const PassResult untraced =
      ReplayPass(stream, timed_replayed, 0, options.cache_capacity, off,
                 &untraced_mismatches);
  out.replayed = traced.replayed;
  out.mismatches.insert(out.mismatches.end(), untraced_mismatches.begin(),
                        untraced_mismatches.end());

  const size_t replay_spans = recorder.spans().size();
  int64_t next_probe = static_cast<int64_t>(traced.replayed);

  // Compile stages, per spec the traced pass compiled.
  for (size_t i = 0;
       i < traced.compiled_texts.size() && i < kProbeCompiles; ++i) {
    const std::string& text = traced.compiled_texts[i];
    const int64_t rid = next_probe++;
    SpanRecorder::Scope root(recorder, "probe", rid);
    Result<ExtendedAutomaton> era = [&] {
      SpanRecorder::Scope s(recorder, "io.parse", rid);
      return ParseExtendedAutomaton(text);
    }();
    if (!era.ok()) continue;
    {
      SpanRecorder::Scope s(recorder, "analysis.lint", rid);
      analysis::Lint(*era);
    }
    analysis::StripResult strip = [&] {
      SpanRecorder::Scope s(recorder, "analysis.strip", rid);
      return analysis::AnalyzeAndStrip(*era, analysis::StripEffort::kFull);
    }();
    Result<SpecPtr> spec = CompiledSpec::Compile(text);
    if (!spec.ok()) continue;
    // Both alphabets CompiledSpec::Compile builds (analysis + emptiness).
    std::optional<ControlAlphabet> analysis_alphabet;
    std::optional<ControlAlphabet> emptiness_alphabet;
    SpanRecorder::Scope s(recorder, "ra.alphabet", rid);
    analysis_alphabet.emplace((*spec)->analysis_subject().automaton());
    emptiness_alphabet.emplace((*spec)->emptiness_subject().automaton());
  }

  // SControl construction per search request of the replayed stream.
  std::map<std::string, SpecPtr> probe_specs;
  auto compiled = [&](const Request& r) -> SpecPtr {
    auto it = probe_specs.find(r.spec->hash);
    if (it != probe_specs.end()) return it->second;
    Result<SpecPtr> spec = CompiledSpec::Compile(r.spec->text);
    if (!spec.ok()) return nullptr;
    return probe_specs[r.spec->hash] = *spec;
  };
  size_t scontrol_probes = 0;
  for (size_t i = 0;
       i < timed_replayed && scontrol_probes < kProbeSControl; ++i) {
    const Request r = stream.Timed(i);
    if (!r.search_op) continue;
    SpecPtr spec = compiled(r);
    if (spec == nullptr) continue;
    ++scontrol_probes;
    const int64_t rid = next_probe++;
    SpanRecorder::Scope root(recorder, "probe", rid);
    SpanRecorder::Scope s(recorder, "ra.scontrol", rid);
    if (r.expected.op == "empty") {
      BuildSControlNba(spec->emptiness_subject().automaton(),
                       spec->emptiness_alphabet());
    } else {
      BuildSControlNba(spec->analysis_subject().automaton(),
                       spec->analysis_alphabet());
    }
  }

  // The fixed probe set: exact counts at one worker, the 1-vs-4 worker
  // speedup (two alternating rounds), and the LR closure/cover split.
  const std::vector<Request> probes =
      SearchProbeSet(stream, kProbeSearches);
  double wall1 = 0;
  double wall4 = 0;
  double search_s = 0;
  size_t lassos = 0;
  size_t closures = 0;
  size_t inconsistent = 0;
  size_t lr_probes = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Request& r : probes) {
      SpecPtr spec = compiled(r);
      if (spec == nullptr) continue;
      const SearchRun one = RunSearch(*spec, r, 1);
      const SearchRun four = RunSearch(*spec, r, 4);
      if (!one.as_expected || !four.as_expected) {
        out.mismatches.push_back("probe: " + r.id + " verdict differs from the oracle");
      }
      wall1 += one.wall_s;
      wall4 += four.wall_s;
      if (round == 0) {
        search_s += one.stats.wall_seconds;
        lassos += one.stats.lassos_checked;
        closures += one.stats.closures_built;
        inconsistent += one.stats.inconsistent_closures;
        if (r.expected.op == "lrbound") {
          ++lr_probes;
          const int64_t rid = next_probe++;
          SpanRecorder::Scope root(recorder, "probe", rid);
          SplitLrBound(*spec, recorder, rid);
        }
      }
    }
  }

  // Aggregate the spans.
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<int64_t> self = recorder.SelfTimes();
  std::map<std::string, std::vector<double>> durations_us;
  std::map<std::string, double> self_us;
  double handle_total = 0;
  double handle_covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = (spans[i].end_ns - spans[i].start_ns) / 1e3;
    durations_us[spans[i].name].push_back(d);
    self_us[spans[i].name] += self[i] / 1e3;
    if (i < replay_spans && std::string(spans[i].name) == "service.handle") {
      handle_total += d;
      handle_covered += d - self[i] / 1e3;
    }
  }
  auto count_of = [&](const char* name) -> size_t {
    auto it = durations_us.find(name);
    return it == durations_us.end() ? 0 : it->second.size();
  };
  auto median_of = [&](const char* name) -> Metric {
    auto it = durations_us.find(name);
    const double v = it == durations_us.end() ? 0.0 : Median(it->second);
    return {std::string(name) + "_us", v, "us", count_of(name)};
  };
  auto per_lr_probe = [&](const char* name) -> Metric {
    auto it = durations_us.find(name);
    double total = 0;
    if (it != durations_us.end()) {
      for (double d : it->second) total += d;
    }
    return {std::string(name) + "_us",
            lr_probes == 0 ? 0.0 : total / static_cast<double>(lr_probes),
            "us", lr_probes};
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const size_t handles = count_of("service.handle");
  out.metrics = {
      median_of("service.parse_request"),
      median_of("service.serialize"),
      median_of("service.handle"),
      median_of("service.spec_hash"),
      {"service.cache_hit_ratio",
       ratio(static_cast<double>(traced.hits), static_cast<double>(traced.queries)),
       "ratio", traced.queries},
      median_of("io.parse"),
      median_of("analysis.lint"),
      median_of("analysis.strip"),
      median_of("ra.alphabet"),
      median_of("compile.spec"),
      median_of("ra.scontrol"),
      median_of("era.search"),
      median_of("era.ltlfo"),
      {"era.lassos_checked", static_cast<double>(lassos), "count", probes.size()},
      {"era.closures_built", static_cast<double>(closures), "count", probes.size()},
      {"era.inconsistent_ratio",
       ratio(static_cast<double>(inconsistent), static_cast<double>(lassos)),
       "ratio", lassos},
      {"era.us_per_candidate", ratio(search_s * 1e6, static_cast<double>(lassos)),
       "us", lassos},
      {"era.parallel_speedup", ratio(wall1, wall4), "ratio", 2 * probes.size()},
      median_of("projection.lrbound"),
      per_lr_probe("era.closure_build"),
      per_lr_probe("projection.cover"),
      {"trace.coverage", ratio(handle_covered, handle_total), "ratio", handles},
      {"trace.overhead_ratio", ratio(traced.wall_s, untraced.wall_s), "ratio",
       traced.replayed},
  };

  char line[256];
  out.span_table = "span                        calls   median_us     self_ms\n";
  for (const auto& [name, d] : durations_us) {
    std::snprintf(line, sizeof(line), "%-26s %7zu %11.2f %11.2f\n",
                  name.c_str(), d.size(), Median(d), self_us[name] / 1e3);
    out.span_table += line;
  }
  std::snprintf(line, sizeof(line),
                "replayed %zu requests: traced %.3f s, untraced %.3f s; "
                "probe set %zu searches\n",
                traced.replayed, traced.wall_s, untraced.wall_s, probes.size());
  out.span_table += line;
  if (!options.trace_path.empty() &&
      !recorder.WriteJsonLines(options.trace_path)) {
    out.mismatches.push_back("cannot write " + options.trace_path);
  }
  return out;
}

}  // namespace rav::perfbench

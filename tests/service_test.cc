#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/failpoints.h"
#include "base/metrics.h"
#include "base/report.h"
#include "service/compiled_spec.h"
#include "service/request.h"
#include "service/service.h"

namespace rav::service {
namespace {

// A tiny well-formed spec (the ping-pong fixture, inline so the test
// needs no data path).
const char kPingPong[] = R"(automaton {
  registers 1
  state ping initial final
  state pong
  transition ping -> pong { x1 = y1 }
  transition pong -> ping { }
  constraint eq 1 1 "ping pong ping"
})";

// Ping-pong plus structure the analyzer provably strips: an unreachable
// state with a transition out of it.
const char kPingPongWithDeadState[] = R"(automaton {
  registers 1
  state ping initial final
  state pong
  state limbo
  transition ping -> pong { x1 = y1 }
  transition pong -> ping { }
  transition limbo -> ping { }
  constraint eq 1 1 "ping pong ping"
})";

// An EMPTY spec whose bounded lasso search runs for a few hundred
// milliseconds: x1 held constant on a complete digraph over 8 states,
// with x1 != x1 demanded across every factor of 30 positions. Every
// candidate is inconsistent, but only on windows of at least 30
// positions, longer than the probe window the emptiness search refutes
// most candidates on (two cycle pumps of a lasso of at most 12 symbols),
// so each candidate pays for its full pumped closure and the search
// grinds to its lasso budget. Long enough to be reliably in flight when
// another thread cancels or trips a budget; always EMPTY.
std::string BigEmptySpecText() {
  const int n = 8;
  std::string spec = "automaton {\n  registers 1\n";
  for (int s = 0; s < n; ++s) {
    spec += "  state q" + std::to_string(s) +
            (s == 0 ? " initial final\n" : " final\n");
  }
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      spec += "  transition q" + std::to_string(s) + " -> q" +
              std::to_string(t) + " { x1 = y1 }\n";
    }
  }
  spec += "  constraint neq 1 1 \"" + std::string(30, '.') + "\"\n}\n";
  return spec;
}

std::string RequestLine(const std::string& body) {
  return "{" + body + "}";
}

// --- content hash ---

TEST(SpecContentHashTest, StableAndContentSensitive) {
  const std::string h1 = SpecContentHash(kPingPong);
  EXPECT_EQ(h1.size(), 16u);
  EXPECT_EQ(h1, SpecContentHash(kPingPong));
  EXPECT_NE(h1, SpecContentHash(kPingPongWithDeadState));
  EXPECT_EQ(h1.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// --- CompiledSpec ---

TEST(CompiledSpecTest, CompilesCleanSpecOnce) {
  auto spec = CompiledSpec::Compile(kPingPong);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ((*spec)->hash(), SpecContentHash(kPingPong));
  EXPECT_TRUE((*spec)->diagnostics().empty());
  // The emptiness subject is completed — CheckEraEmptiness's premise.
  EXPECT_TRUE((*spec)->emptiness_subject().automaton().IsComplete());
  EXPECT_GT((*spec)->emptiness_alphabet().size(), 0);
  EXPECT_GE((*spec)->compile_ms(), 0.0);
}

TEST(CompiledSpecTest, RecordsCompileLatencyHistogram) {
  auto histogram = [] {
    for (const metrics::MetricSnapshot& m : metrics::Snapshot()) {
      if (m.name == "service/compile_us") return m;
    }
    return metrics::MetricSnapshot{};
  };
  const uint64_t before = histogram().histogram.count;
  ASSERT_TRUE(CompiledSpec::Compile(kPingPong).ok());
  ASSERT_TRUE(CompiledSpec::Compile(kPingPongWithDeadState).ok());
  const metrics::MetricSnapshot after = histogram();
  EXPECT_EQ(after.kind, metrics::MetricKind::kHistogram);
  EXPECT_EQ(after.histogram.count, before + 2);
}

TEST(CompiledSpecTest, ParseErrorIsFatal) {
  auto spec = CompiledSpec::Compile("automaton { this is not a spec");
  EXPECT_FALSE(spec.ok());
}

TEST(CompiledSpecTest, StripsDeadStructureAtCompileTime) {
  auto spec = CompiledSpec::Compile(kPingPongWithDeadState);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_GE((*spec)->states_stripped(), 1);
  EXPECT_FALSE((*spec)->diagnostics().empty());  // RAV001 at least
  // The analysis subject lost the limbo state; the parsed era kept it.
  EXPECT_LT((*spec)->analysis_subject().automaton().num_states(),
            (*spec)->era().automaton().num_states());
}

// --- SpecCache ---

TEST(SpecCacheTest, HitsAfterMissAndFindsByHash) {
  SpecCache cache(4);
  bool hit = true;
  auto first = cache.GetOrCompile(kPingPong, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = cache.GetOrCompile(kPingPong, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());  // same artifact, not a copy
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.FindByHash((*first)->hash()).get(), first->get());
  EXPECT_EQ(cache.FindByHash("0000000000000000"), nullptr);
}

TEST(SpecCacheTest, EvictsLeastRecentlyUsed) {
  SpecCache cache(1);
  auto first = cache.GetOrCompile(kPingPong);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompile(kPingPongWithDeadState);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.FindByHash((*first)->hash()), nullptr);  // evicted
  // The handed-out shared_ptr outlives the eviction.
  EXPECT_EQ((*first)->hash(), SpecContentHash(kPingPong));
}

// --- request parsing ---

TEST(ParseRequestTest, ParsesFullRequest) {
  auto request = ParseRequest(RequestLine(
      R"("id": "r1", "op": "verify", "spec": "automaton {}",
         "ltl": "G p0", "propositions": ["x1=y1"],
         "timeout": "250ms", "memory_limit": "64k", "threads": 2)"));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->op, Op::kVerify);
  EXPECT_EQ(request->ltl, "G p0");
  ASSERT_EQ(request->propositions.size(), 1u);
  EXPECT_EQ(request->timeout_ms, 250);
  EXPECT_EQ(request->memory_bytes, 64 * 1024);
  EXPECT_EQ(request->threads, 2);
}

TEST(ParseRequestTest, RejectionsNameTheField) {
  auto bad = [](const std::string& body) {
    Result<QueryRequest> r = ParseRequest(body);
    EXPECT_FALSE(r.ok()) << body;
    return r.ok() ? std::string() : r.status().ToString();
  };
  EXPECT_NE(bad("not json at all").find("not valid JSON"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("op": "empty", "spec": "x")"))
                .find("id"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "solve", "spec": "x")"))
                .find("unknown op"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty")"))
                .find("needs a spec"), std::string::npos);
  EXPECT_NE(
      bad(RequestLine(
              R"("id": "r", "op": "empty", "spec": "x", "spec_hash": "y")"))
          .find("not both"),
      std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "verify", "spec": "x",
                               "ltl": "G p0")"))
                .find("propositions"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "cancel")"))
                .find("target"), std::string::npos);
  // The limit grammars are the CLI's: rejections name the valid suffixes.
  EXPECT_NE(bad(RequestLine(
                    R"("id": "r", "op": "empty", "spec": "x", "timeout": "10")"))
                .find("ms, s, m"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty", "spec": "x",
                               "memory_limit": "64q")"))
                .find("k, m, g"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty", "spec": "x",
                               "threads": -1)"))
                .find("threads"), std::string::npos);
}

TEST(ParseRequestTest, FailpointRejectsTheRequest) {
  failpoints::Arm("service/parse_request", 1);
  Result<QueryRequest> request =
      ParseRequest(RequestLine(R"("id": "r", "op": "stats")"));
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().ToString().find("service/parse_request"),
            std::string::npos);
  // Disarmed after firing: the next parse succeeds.
  EXPECT_TRUE(ParseRequest(RequestLine(R"("id": "r", "op": "stats")")).ok());
  failpoints::DisarmAll();
}

// --- service ops ---

QueryRequest SpecRequest(const std::string& id, Op op,
                         const std::string& spec) {
  QueryRequest request;
  request.id = id;
  request.op = op;
  request.spec_text = spec;
  return request;
}

TEST(ServiceTest, EmptyOpFindsPingPongWitness) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kEmpty, kPingPong));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.verdict, "NONEMPTY");
  EXPECT_EQ(response.exit_equivalent, 3);
  EXPECT_NE(response.details.Find("witness"), nullptr);
  EXPECT_FALSE(response.cache_hit);
  // Every response embeds a schema-valid run report.
  EXPECT_TRUE(ValidateReportJson(response.report).ok());
  const Json* experiment = response.report.Find("experiment");
  ASSERT_NE(experiment, nullptr);
  EXPECT_EQ(experiment->string_value(), "serve/empty");
}

TEST(ServiceTest, SpecHashReusesTheCompiledSpec) {
  Service service;
  QueryResponse first =
      service.Handle(SpecRequest("r1", Op::kInfo, kPingPong));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_FALSE(first.spec_hash.empty());
  QueryRequest by_hash;
  by_hash.id = "r2";
  by_hash.op = Op::kEmpty;
  by_hash.spec_hash = first.spec_hash;
  QueryResponse second = service.Handle(by_hash);
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, "NONEMPTY");
}

// A spec whose register index overflows int used to throw out of the
// parser and take the whole server down; it must come back as an error
// response, and the service must answer the next request.
TEST(ServiceTest, MalformedRegisterTermIsAnErrorResponse) {
  Service service;
  QueryResponse bad = service.Handle(SpecRequest(
      "r1", Op::kEmpty,
      "automaton { registers 1 state q initial final "
      "transition q -> q { x99999999999 = y1 } }"));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("x99999999999"), std::string::npos) << bad.error;
  EXPECT_EQ(bad.exit_equivalent, 1);
  QueryResponse next =
      service.Handle(SpecRequest("r2", Op::kEmpty, kPingPong));
  EXPECT_TRUE(next.ok) << next.error;
  EXPECT_EQ(next.verdict, "NONEMPTY");
}

TEST(ServiceTest, UnknownSpecHashIsANamedError) {
  Service service;
  QueryRequest request;
  request.id = "r1";
  request.op = Op::kEmpty;
  request.spec_hash = "feedfacefeedface";
  QueryResponse response = service.Handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("feedfacefeedface"), std::string::npos);
  EXPECT_EQ(response.exit_equivalent, 1);
}

TEST(ServiceTest, VerifyOpHoldsForTautology) {
  Service service;
  QueryRequest request = SpecRequest("r1", Op::kVerify, kPingPong);
  request.ltl = "true";
  request.propositions = {"x1=y1"};
  QueryResponse response = service.Handle(request);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.verdict.rfind("HOLDS", 0), 0u) << response.verdict;
  EXPECT_EQ(response.exit_equivalent, 0);
}

TEST(ServiceTest, VerifyOpRejectsBadProposition) {
  Service service;
  QueryRequest request = SpecRequest("r1", Op::kVerify, kPingPong);
  request.ltl = "G p0";
  request.propositions = {"x9=y9"};  // out of range for 1 register
  QueryResponse response = service.Handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("register out of range"), std::string::npos);
}

TEST(ServiceTest, LintOpAnswersFromTheCompile) {
  Service service;
  QueryResponse clean =
      service.Handle(SpecRequest("r1", Op::kLint, kPingPong));
  EXPECT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.verdict, "clean");
  EXPECT_EQ(clean.exit_equivalent, 0);
  QueryResponse warned =
      service.Handle(SpecRequest("r2", Op::kLint, kPingPongWithDeadState));
  EXPECT_TRUE(warned.ok) << warned.error;
  EXPECT_EQ(warned.verdict, "lint warnings");
  EXPECT_EQ(warned.exit_equivalent, 1);
  ASSERT_NE(warned.details.Find("diagnostics"), nullptr);
}

TEST(ServiceTest, InfoOpReportsCompileAccounting) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kInfo, kPingPongWithDeadState));
  EXPECT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.details.Find("states"), nullptr);
  EXPECT_EQ(response.details.Find("states")->number_value(), 3);
  ASSERT_NE(response.details.Find("states_stripped"), nullptr);
  EXPECT_GE(response.details.Find("states_stripped")->number_value(), 1);
}

TEST(ServiceTest, StatsCountRequestsAndCacheTraffic) {
  Service service;
  service.Handle(SpecRequest("r1", Op::kInfo, kPingPong));
  service.Handle(SpecRequest("r2", Op::kInfo, kPingPong));
  QueryRequest stats;
  stats.id = "r3";
  stats.op = Op::kStats;
  QueryResponse response = service.Handle(stats);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.details.Find("requests")->number_value(), 2);
  EXPECT_EQ(response.details.Find("cache_hits")->number_value(), 1);
  EXPECT_EQ(response.details.Find("cache_misses")->number_value(), 1);
}

// Hits by text and by hash both count in the process metric, so the
// service/cache_hits counter moves exactly as the stats op's cache_hits.
TEST(ServiceTest, CacheHitsMetricMatchesStatsOverTextAndHashRequests) {
  auto metric_hits = [] {
    for (const metrics::MetricSnapshot& m : metrics::Snapshot()) {
      if (m.name == "service/cache_hits") return m.value;
    }
    return uint64_t{0};
  };
  Service service;
  auto stats_hits = [&service] {
    QueryRequest stats;
    stats.id = "stats";
    stats.op = Op::kStats;
    return service.Handle(stats).details.Find("cache_hits")->number_value();
  };
  const uint64_t metric_before = metric_hits();
  const double stats_before = stats_hits();
  QueryResponse first =
      service.Handle(SpecRequest("r1", Op::kInfo, kPingPong));
  ASSERT_TRUE(first.ok) << first.error;
  service.Handle(SpecRequest("r2", Op::kInfo, kPingPong));
  for (const char* id : {"r3", "r4", "r5"}) {
    QueryRequest by_hash;
    by_hash.id = id;
    by_hash.op = Op::kInfo;
    by_hash.spec_hash = first.spec_hash;
    ASSERT_TRUE(service.Handle(by_hash).cache_hit);
  }
  const double stats_delta = stats_hits() - stats_before;
  EXPECT_EQ(stats_delta, 4);
  EXPECT_EQ(static_cast<double>(metric_hits() - metric_before), stats_delta);
}

TEST(ServiceTest, ResponseJsonLineIsOneParseableLine) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kEmpty, kPingPong));
  const std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = Json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("id")->string_value(), "r1");
  EXPECT_TRUE(parsed->Find("ok")->bool_value());
}

// --- governor isolation (the acceptance criterion) ---

// An expired per-request deadline must trip exactly that request: it
// reports exit-equivalent 4 with a truncated verdict, while requests
// running CONCURRENTLY against the same service (and partly the same
// compiled spec) finish with their normal verdicts and no trip.
TEST(ServiceIsolationTest, OneTrippedRequestLeavesConcurrentOnesUntouched) {
  Service service;
  const std::string big = BigEmptySpecText();
  // Warm the cache so every thread races on queries, not compiles.
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  QueryRequest tripped = SpecRequest("tripped", Op::kEmpty, big);
  tripped.timeout_ms = 0;  // already expired: trips at the first poll
  QueryRequest free_big = SpecRequest("free-big", Op::kLrBound, big);
  QueryRequest free_small = SpecRequest("free-small", Op::kEmpty, kPingPong);

  QueryResponse tripped_response, free_big_response, free_small_response;
  std::thread t1([&] { tripped_response = service.Handle(tripped); });
  std::thread t2([&] { free_big_response = service.Handle(free_big); });
  std::thread t3([&] { free_small_response = service.Handle(free_small); });
  t1.join();
  t2.join();
  t3.join();

  // The governed request tripped...
  EXPECT_TRUE(tripped_response.ok) << tripped_response.error;
  EXPECT_EQ(tripped_response.exit_equivalent, 4);
  EXPECT_NE(tripped_response.verdict.find("truncated"), std::string::npos);
  EXPECT_EQ(tripped_response.details.Find("stop_reason")->string_value(),
            "deadline");

  // ...and neither concurrent request saw any of it.
  EXPECT_TRUE(free_big_response.ok) << free_big_response.error;
  EXPECT_EQ(free_big_response.verdict, "no growth detected");
  EXPECT_NE(free_big_response.details.Find("stop_reason")->string_value(),
            "deadline");
  EXPECT_TRUE(free_small_response.ok) << free_small_response.error;
  EXPECT_EQ(free_small_response.verdict, "NONEMPTY");
  EXPECT_EQ(free_small_response.exit_equivalent, 3);

  // Per-request reports stayed per-request too.
  EXPECT_TRUE(ValidateReportJson(tripped_response.report).ok());
  EXPECT_TRUE(ValidateReportJson(free_small_response.report).ok());
  EXPECT_EQ(tripped_response.report.Find("verdict")->string_value(),
            tripped_response.verdict);
  EXPECT_EQ(free_small_response.report.Find("verdict")->string_value(),
            "NONEMPTY");
}

TEST(ServiceCancelTest, CancelReachesAnInFlightRequest) {
  Service service;
  const std::string big = BigEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  EXPECT_FALSE(service.Cancel("never-started"));

  QueryResponse response;
  std::thread runner(
      [&] { response = service.Handle(SpecRequest("slow", Op::kEmpty, big)); });
  // The guard registers the governor before the search starts, so this
  // spin observes the request and cancels it before (or during) its
  // first batch of candidates — deterministically exit-5.
  while (!service.Cancel("slow")) {
    std::this_thread::yield();
  }
  runner.join();
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.exit_equivalent, 5);
  EXPECT_EQ(response.details.Find("stop_reason")->string_value(), "cancelled");
}

TEST(ServiceCancelTest, CancelOpReportsWhetherTargetWasInFlight) {
  Service service;
  QueryRequest cancel;
  cancel.id = "c1";
  cancel.op = Op::kCancel;
  cancel.target = "ghost";
  QueryResponse response = service.Handle(cancel);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.verdict, "not in flight");
  EXPECT_FALSE(response.details.Find("cancelled")->bool_value());
}

TEST(ServiceTest, DuplicateInFlightIdIsRejected) {
  Service service;
  const std::string big = BigEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  QueryResponse slow_response;
  std::thread runner([&] {
    slow_response = service.Handle(SpecRequest("dup", Op::kEmpty, big));
  });
  // Wait until "dup" is registered (Cancel finds it), then collide. The
  // cancel also makes the slow request finish promptly afterwards.
  while (!service.Cancel("dup")) {
    std::this_thread::yield();
  }
  QueryResponse collision =
      service.Handle(SpecRequest("dup", Op::kInfo, kPingPong));
  runner.join();
  if (!collision.ok) {
    EXPECT_NE(collision.error.find("already in flight"), std::string::npos);
  }
  // (If the cancelled request drained before the collision arrived, the
  // second "dup" legitimately succeeds — both outcomes are correct; the
  // hard requirement is no crash and no cross-talk.)
  EXPECT_TRUE(slow_response.ok) << slow_response.error;
  EXPECT_EQ(slow_response.exit_equivalent, 5);
}

// --- the uniform rejection surface (docs/serving.md) ---

TEST(ServiceUniformErrorsTest, MakeRejectionCarriesTheStructuredFields) {
  QueryResponse shed = MakeRejection({.id = "r9",
                                      .op = "empty",
                                      .error_kind = "overloaded",
                                      .resource = "queue",
                                      .message = "queue full",
                                      .exit_equivalent = 4,
                                      .retry_after_ms = 25});
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.verdict, "error");
  auto parsed = Json::Parse(shed.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("id")->string_value(), "r9");
  EXPECT_EQ(parsed->Find("error_kind")->string_value(), "overloaded");
  EXPECT_EQ(parsed->Find("resource")->string_value(), "queue");
  EXPECT_EQ(parsed->Find("retry_after_ms")->number_value(), 25);
  EXPECT_EQ(parsed->Find("exit_equivalent")->number_value(), 4);

  // Fields that do not apply stay off the wire entirely.
  QueryResponse plain = MakeRejection(
      {.error_kind = "parse_error", .message = "bad json"});
  auto plain_json = Json::Parse(plain.ToJsonLine());
  ASSERT_TRUE(plain_json.ok());
  EXPECT_EQ(plain_json->Find("resource"), nullptr);
  EXPECT_EQ(plain_json->Find("retry_after_ms"), nullptr);
}

TEST(ServiceUniformErrorsTest, GovernorTripIsStampedWithResourceAndHint) {
  ServiceOptions options;
  options.retry_after_ms_hint = 11;
  Service service(options);
  QueryRequest tripped = SpecRequest("r1", Op::kEmpty, BigEmptySpecText());
  tripped.timeout_ms = 0;  // already expired: trips at the first poll
  QueryResponse response = service.Handle(tripped);
  EXPECT_EQ(response.exit_equivalent, 4);
  EXPECT_EQ(response.error_kind, "governor_trip");
  EXPECT_EQ(response.resource, "deadline");
  EXPECT_EQ(response.retry_after_ms, 11);
  // The stamp reaches the embedded run report too.
  EXPECT_EQ(response.report.Find("params")->Find("error_kind")->string_value(),
            "governor_trip");
  EXPECT_EQ(response.report.Find("params")->Find("resource")->string_value(),
            "deadline");
  EXPECT_EQ(
      response.report.Find("params")->Find("retry_after_ms")->number_value(),
      11);
}

TEST(ServiceUniformErrorsTest, MemoryTripNamesTheMemoryResource) {
  Service service;
  QueryRequest tripped = SpecRequest("r1", Op::kEmpty, BigEmptySpecText());
  tripped.memory_bytes = 0;  // already exhausted
  QueryResponse response = service.Handle(tripped);
  EXPECT_EQ(response.exit_equivalent, 4);
  EXPECT_EQ(response.error_kind, "governor_trip");
  EXPECT_EQ(response.resource, "memory");
}

TEST(ServiceUniformErrorsTest, BadRequestsAndDuplicatesAreClassified) {
  Service service;
  QueryRequest unknown_hash;
  unknown_hash.id = "r1";
  unknown_hash.op = Op::kEmpty;
  unknown_hash.spec_hash = "feedfacefeedface";
  QueryResponse bad = service.Handle(unknown_hash);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_kind, "bad_request");
  EXPECT_TRUE(bad.resource.empty());
  EXPECT_EQ(bad.retry_after_ms, -1);  // nothing to back off from

  // A deterministic duplicate: hold "dup" in flight, collide, and only
  // then cancel it.
  const std::string big = BigEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);
  QueryResponse slow_response;
  std::thread runner([&] {
    slow_response = service.Handle(SpecRequest("dup", Op::kEmpty, big));
  });
  QueryRequest stats;
  stats.id = "s";
  stats.op = Op::kStats;
  while (service.Handle(stats).details.Find("in_flight")->number_value() < 1) {
    std::this_thread::yield();
  }
  QueryResponse collision =
      service.Handle(SpecRequest("dup", Op::kInfo, kPingPong));
  EXPECT_FALSE(collision.ok);
  EXPECT_EQ(collision.error_kind, "duplicate_id");
  EXPECT_EQ(collision.exit_equivalent, 1);
  ASSERT_TRUE(service.Cancel("dup"));
  runner.join();
  EXPECT_TRUE(slow_response.ok) << slow_response.error;
}

}  // namespace
}  // namespace rav::service

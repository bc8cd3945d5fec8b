// Tests of the serving benchmark's own code: the percentile and
// self-time arithmetic, the span recorder, stream determinism, and the
// oracle's comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/report.h"
#include "stats.h"
#include "stream.h"

namespace rav::perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 20), 1);
  EXPECT_EQ(Percentile(v, 21), 2);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile({}, 50), 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 90), 90);
  EXPECT_EQ(Percentile(hundred, 99), 99);
}

TEST(PercentileTest, SupportNeedsTenSamplesAbove) {
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
}

TEST(QuietestHalfTest, KeepsTheLeastStolenSlices) {
  EXPECT_EQ(QuietestHalf({5, 0, 9, 0, 3}), (std::vector<size_t>{1, 3, 4}));
  EXPECT_EQ(QuietestHalf({2, 2}), (std::vector<size_t>{0}));
  EXPECT_TRUE(QuietestHalf({}).empty());
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildIntervals) {
  // Parent [0, 100]; children overlap each other and the parent's end.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 7},
      {"a", 10, 30, 0, 7},
      {"b", 20, 40, 0, 7},
      {"c", 90, 120, 0, 7},
      {"grandchild", 12, 14, 1, 7},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);  // [10,40] and [90,100] covered
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 2);
}

TEST(SpanRecorderTest, NestsAndRecordsRequests) {
  SpanRecorder recorder(true);
  {
    SpanRecorder::Scope root(recorder, "request", 3);
    SpanRecorder::Scope child(recorder, "service.handle", 3);
  }
  SpanRecorder::Scope next(recorder, "request", 4);
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, -1);
  EXPECT_EQ(recorder.spans()[2].request, 4);
  EXPECT_GE(recorder.spans()[0].end_ns, recorder.spans()[1].end_ns);

  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "request", 1); }
  EXPECT_TRUE(off.spans().empty());
}

StreamConfig Config(const std::string& workload) {
  StreamConfig config;
  config.workload = workload;
  config.pool_size = 64;
  config.max_dead = 16;
  config.warm_specs = 8;
  return config;
}

TEST(StreamTest, SameSeedSameBytes) {
  for (const char* workload : {"cached_mix", "search_drain", "compile_churn"}) {
    auto a = RequestStream::Create(Config(workload), 42);
    auto b = RequestStream::Create(Config(workload), 42);
    auto c = RequestStream::Create(Config(workload), 43);
    ASSERT_TRUE(a && b && c) << workload;
    EXPECT_EQ(a->Digest(200), b->Digest(200)) << workload;
    EXPECT_NE(a->Digest(200), c->Digest(200)) << workload;
    // Timed(i) depends on nothing but (seed, i).
    const std::string late = a->Timed(150).line;
    for (size_t i = 0; i < 150; ++i) a->Timed(i);
    EXPECT_EQ(a->Timed(150).line, late) << workload;
    EXPECT_EQ(b->Timed(150).line, late) << workload;
  }
  EXPECT_FALSE(RequestStream::Create(Config("no_such_workload"), 1));
}

TEST(StreamTest, RequestIdsAreUnique) {
  auto s = RequestStream::Create(Config("cached_mix"), 7);
  ASSERT_TRUE(s);
  std::vector<std::string> ids;
  for (const Request& r : s->warm()) ids.push_back(r.id);
  for (size_t i = 0; i < 100; ++i) ids.push_back(s->Timed(i).id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(StreamTest, ChurnBlocksHoldTheSameMixForEverySeed) {
  // Each block of 256 churn requests has 64 of each op, and the most
  // popular spec (rank 0) the same number of times, give or take one.
  const Spec top = MakeSpec({SpecFamily::Kind::kRing, 2, 2, 0});
  auto a = RequestStream::Create(Config("compile_churn"), 5);
  auto b = RequestStream::Create(Config("compile_churn"), 6);
  ASSERT_TRUE(a && b);
  for (size_t block : {0, 3}) {
    int top_a = 0;
    int top_b = 0;
    std::vector<std::string> ops_a;
    std::vector<std::string> ops_b;
    for (size_t i = block * 256; i < (block + 1) * 256; ++i) {
      const Request ra = a->Timed(i);
      const Request rb = b->Timed(i);
      top_a += ra.spec->hash == top.hash ? 1 : 0;
      top_b += rb.spec->hash == top.hash ? 1 : 0;
      ops_a.push_back(ra.expected.op);
      ops_b.push_back(rb.expected.op);
    }
    for (const char* op : {"lint", "info", "empty", "verify"}) {
      EXPECT_EQ(std::count(ops_a.begin(), ops_a.end(), op), 64) << op;
      EXPECT_EQ(std::count(ops_b.begin(), ops_b.end(), op), 64) << op;
    }
    EXPECT_GE(top_a, 1);
    EXPECT_LE(std::abs(top_a - top_b), 1);
  }
}

TEST(OracleTest, ComparesVerdictAndCounts) {
  Expected e;
  e.op = "info";
  e.verdict = "ok";
  e.states = 4;
  Result<Json> good = Json::Parse(
      R"json({"id":"r1","op":"info","ok":true,"verdict":"ok","details":{"states":4}})json");
  ASSERT_TRUE(good.ok());
  EXPECT_FALSE(CheckResponse(e, *good));
  Result<Json> bad = Json::Parse(
      R"json({"id":"r1","op":"info","ok":true,"verdict":"ok","details":{"states":5}})json");
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(CheckResponse(e, *bad));

  Expected holds;
  holds.op = "verify";
  holds.verdict = "HOLDS";
  holds.verdict_is_prefix = true;
  Result<Json> truncated = Json::Parse(
      R"json({"op":"verify","ok":true,"verdict":"HOLDS (search truncated, not definitive)","details":{}})json");
  ASSERT_TRUE(truncated.ok());
  EXPECT_FALSE(CheckResponse(holds, *truncated));
  Result<Json> failed = Json::Parse(
      R"json({"op":"verify","ok":false,"error":"x","verdict":"error","details":{}})json");
  ASSERT_TRUE(failed.ok());
  EXPECT_TRUE(CheckResponse(holds, *failed));
}

}  // namespace
}  // namespace rav::perfbench

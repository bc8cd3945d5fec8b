#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "service/compiled_spec.h"

namespace rav::perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(double unit) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), unit);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

namespace {

constexpr char kExample1[] =
    "# Example 1 of Segoufin & Vianu, PODS 2020.\n"
    "automaton {\n"
    "  registers 2\n"
    "  state q1 initial final\n"
    "  state q2\n"
    "  transition q1 -> q2 { x1 = x2  x2 = y2 }\n"
    "  transition q2 -> q2 { x2 = y2 }\n"
    "  transition q2 -> q1 { x2 = y2  y1 = y2 }\n"
    "}\n";

constexpr char kExample5[] =
    "# Example 5: the extended automaton capturing Pi_1 of Example 1.\n"
    "automaton {\n"
    "  registers 1\n"
    "  state p1 initial final\n"
    "  state p2\n"
    "  transition p1 -> p2 { }\n"
    "  transition p2 -> p2 { }\n"
    "  transition p2 -> p1 { }\n"
    "  constraint eq 1 1 \"p1 p2* p1\"\n"
    "}\n";

std::string S(int i) { return "s" + std::to_string(i); }

// A k-register shift ring over n states (x_i = y_{i+1} on every edge).
// Search families add skip edges s -> s+2 that also assert x1 = y1, which
// makes the lasso space exponential in the length bound.
Spec RingSpec(const SpecFamily& f) {
  const int k = f.registers;
  const int n = f.ring_states;
  const bool skip = f.kind != SpecFamily::Kind::kRing;
  Spec spec;
  spec.family = f;
  std::string shift;
  for (int i = 1; i < k; ++i) {
    if (!shift.empty()) shift += "  ";
    shift += "x" + std::to_string(i) + " = y" + std::to_string(i + 1);
  }
  std::string& t = spec.text;
  t = "automaton {\n  registers " + std::to_string(k) + "\n";
  t += "  state s0 initial final\n";
  for (int s = 1; s < n; ++s) t += "  state " + S(s) + "\n";
  for (int s = 0; s < n; ++s) {
    t += "  transition " + S(s) + " -> " + S((s + 1) % n) + " { " + shift +
         " }\n";
  }
  spec.transitions = n;
  if (skip) {
    for (int s = 0; s < n; ++s) {
      t += "  transition " + S(s) + " -> " + S((s + 2) % n) + " { " + shift +
           "  x1 = y1 }\n";
    }
    spec.transitions += n;
  }
  // E21's strippable structure: a reachable dead-end sink, an unreachable
  // orphan feeder, and a vacuous constraint anchored at the orphan.
  for (int d = 0; d < f.dead_units; ++d) {
    const std::string sink = "sink" + std::to_string(d);
    const std::string orphan = "orphan" + std::to_string(d);
    t += "  state " + sink + "\n  state " + orphan + "\n";
    t += "  transition s0 -> " + sink + " { x1 = y1 }\n";
    t += "  transition " + orphan + " -> s0 { }\n";
    t += "  constraint eq 1 1 \"" + orphan + " s0\"\n";
  }
  spec.transitions += 2 * f.dead_units;
  if (f.kind == SpecFamily::Kind::kContradictoryRing) {
    t += "  constraint eq 1 1 \"s0 .* s0\"\n";
    t += "  constraint neq 1 1 \"s0 .* s0\"\n";
  }
  if (f.kind == SpecFamily::Kind::kCrossNeqRing) {
    for (int a = 0; a < 2; ++a) {
      t += "  constraint neq 1 1 \"" + S(a) + " .* " + S(a + n / 2) + "\"\n";
    }
  }
  t += "}\n";
  spec.states = n + 2 * f.dead_units;
  // RAV004 on the last register (only its ȳ copy is constrained), and
  // RAV002 + RAV001 + RAV005 per dead unit.
  spec.diagnostics = 1 + 3 * f.dead_units;
  spec.holds_atom = "x1=y2";
  spec.fails_atom = "x1=y1";
  return spec;
}

std::string Hex16(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

// Per-request generator: independent of every other index.
Rng RngFor(uint64_t seed, size_t index) {
  Rng mixer(seed ^ (0xD1B54A32D192ED03ULL * (index + 1)));
  return Rng(mixer.Next());
}

}  // namespace

Spec MakeSpec(const SpecFamily& family) {
  Spec spec;
  switch (family.kind) {
    case SpecFamily::Kind::kExample1:
      spec.family = family;
      spec.text = kExample1;
      spec.states = 2;
      spec.transitions = 3;
      spec.holds_atom = "x2=y2";  // every edge asserts it
      spec.fails_atom = "x1=y1";
      break;
    case SpecFamily::Kind::kExample5:
      spec.family = family;
      spec.text = kExample5;
      spec.states = 2;
      spec.transitions = 3;
      spec.fails_atom = "x1=y1";  // no guard relates x1 to y1
      break;
    default:
      spec = RingSpec(family);
      break;
  }
  spec.hash = service::SpecContentHash(spec.text);
  return spec;
}

std::string QueryLine(const std::string& id, const std::string& op,
                      const Spec& spec, bool by_hash, int threads,
                      const std::string& ltl_atom) {
  Json line = Json::Object();
  line.Set("id", Json::String(id));
  line.Set("op", Json::String(op));
  if (by_hash) {
    line.Set("spec_hash", Json::String(spec.hash));
  } else {
    line.Set("spec", Json::String(spec.text));
  }
  if (op == "verify") {
    line.Set("ltl", Json::String("G p0"));
    Json props = Json::Array();
    props.Append(Json::String(ltl_atom));
    line.Set("propositions", std::move(props));
  }
  if (threads != 1) line.Set("threads", Json::Number(threads));
  return line.Dump(0);
}

namespace {

// The request for `op` on `spec`, with the answer the family implies.
Request MakeRequest(const std::string& id, const std::string& op,
                    const Spec& spec, bool by_hash, int threads,
                    bool verify_holds) {
  Request r;
  r.id = id;
  r.spec = &spec;
  Expected& e = r.expected;
  e.op = op;
  e.spec_hash = spec.hash;
  std::string atom;
  const SpecFamily::Kind kind = spec.family.kind;
  if (op == "empty") {
    r.search_op = true;
    if (kind == SpecFamily::Kind::kContradictoryRing) {
      e.verdict = "EMPTY (search truncated, not definitive)";
      e.stop_reason = "lasso-budget";
    } else {
      e.verdict = "NONEMPTY";
      e.stop_reason = "witness-found";
    }
  } else if (op == "lrbound") {
    r.search_op = true;
    if (kind == SpecFamily::Kind::kCrossNeqRing) {
      e.verdict = "growth detected (not LR-bounded)";
    } else {
      // No inequality anywhere: every cut's cover is empty.
      e.verdict = "no growth detected";
      e.max_cover = 0;
    }
  } else if (op == "verify") {
    if (verify_holds && !spec.holds_atom.empty()) {
      atom = spec.holds_atom;
      e.verdict = "HOLDS";  // a bound-relative HOLDS is still HOLDS
      e.verdict_is_prefix = true;
    } else {
      atom = spec.fails_atom;
      e.verdict = "FAILS";
      e.stop_reason = "witness-found";
    }
  } else if (op == "info") {
    e.verdict = "ok";
    e.registers = spec.family.registers;
    e.states = spec.states;
    e.transitions = spec.transitions;
  } else if (op == "lint") {
    e.verdict = spec.diagnostics == 0 ? "clean" : "lint warnings";
    e.diagnostics = spec.diagnostics;
  }
  r.line = QueryLine(id, op, spec, by_hash, threads, atom);
  return r;
}

const char* const kMixOps[] = {"empty", "verify", "lrbound", "info", "lint"};
const char* const kChurnOps[] = {"lint", "info", "empty", "verify"};

}  // namespace

std::optional<std::string> CheckResponse(const Expected& expected,
                                         const Json& response) {
  auto str = [&](const Json& obj, const char* key) -> std::string {
    const Json* v = obj.Find(key);
    return (v != nullptr && v->is_string()) ? v->string_value() : "";
  };
  auto num = [&](const Json& obj, const char* key) -> long long {
    const Json* v = obj.Find(key);
    return (v != nullptr && v->is_number())
               ? static_cast<long long>(v->number_value())
               : -1;
  };
  const Json* ok = response.Find("ok");
  if (ok == nullptr || !ok->bool_value()) {
    return "not ok: " + str(response, "error");
  }
  if (str(response, "op") != expected.op) {
    return "op " + str(response, "op") + ", expected " + expected.op;
  }
  const std::string verdict = str(response, "verdict");
  const bool verdict_ok =
      expected.verdict_is_prefix
          ? verdict.compare(0, expected.verdict.size(), expected.verdict) == 0
          : verdict == expected.verdict;
  if (!verdict_ok) {
    return "verdict '" + verdict + "', expected '" + expected.verdict + "'";
  }
  if (!expected.spec_hash.empty() &&
      str(response, "spec_hash") != expected.spec_hash) {
    return "spec_hash " + str(response, "spec_hash") + ", expected " +
           expected.spec_hash;
  }
  const Json* details = response.Find("details");
  if (details == nullptr || !details->is_object()) return "no details";
  if (!expected.stop_reason.empty() &&
      str(*details, "stop_reason") != expected.stop_reason) {
    return "stop_reason " + str(*details, "stop_reason") + ", expected " +
           expected.stop_reason;
  }
  const std::pair<const char*, int> counts[] = {
      {"registers", expected.registers},
      {"states", expected.states},
      {"transitions", expected.transitions},
      {"max_cover", expected.max_cover}};
  for (const auto& [key, want] : counts) {
    if (want >= 0 && num(*details, key) != want) {
      return std::string(key) + " " + std::to_string(num(*details, key)) +
             ", expected " + std::to_string(want);
    }
  }
  if (expected.diagnostics >= 0) {
    const Json* report = details->Find("diagnostics");
    const Json* list = report != nullptr ? report->Find("diagnostics")
                                         : nullptr;
    const long long got =
        (list != nullptr && list->is_array())
            ? static_cast<long long>(list->size())
            : -1;
    if (got != expected.diagnostics) {
      return "diagnostics " + std::to_string(got) + ", expected " +
             std::to_string(expected.diagnostics);
    }
  }
  return std::nullopt;
}

RequestStream::RequestStream(StreamConfig config, uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

std::optional<RequestStream> RequestStream::Create(const StreamConfig& config,
                                                   uint64_t seed) {
  using Kind = SpecFamily::Kind;
  RequestStream stream(config, seed);
  std::vector<Spec>& specs = stream.specs_;
  if (config.workload == "cached_mix") {
    specs.push_back(MakeSpec({Kind::kExample1, 2, 0, 0}));
    specs.push_back(MakeSpec({Kind::kExample5, 1, 0, 0}));
    for (int k = 2; k <= 4; ++k) {
      for (int n = 2; n <= 3; ++n) specs.push_back(MakeSpec({Kind::kRing, k, n, 0}));
    }
    for (size_t j = 0; j < specs.size(); ++j) {
      stream.warm_.push_back(MakeRequest("w" + std::to_string(j), "info",
                                         specs[j], false, 1, false));
    }
  } else if (config.workload == "search_drain") {
    // Shapes whose answers take about as long as each other (40-60 ms at
    // 4 workers), so latency percentiles do not sit on a gap between the
    // two kinds.
    const std::pair<int, int> contradictory[] = {{3, 3}, {3, 4}, {3, 5}, {3, 6}};
    const std::pair<int, int> cross[] = {{2, 3}, {3, 3}, {4, 3}};
    for (const auto& [k, n] : contradictory) {
      stream.contradictory_.push_back(specs.size());
      specs.push_back(MakeSpec({Kind::kContradictoryRing, k, n, 0}));
    }
    for (const auto& [k, n] : cross) {
      stream.cross_.push_back(specs.size());
      specs.push_back(MakeSpec({Kind::kCrossNeqRing, k, n, 0}));
    }
    for (size_t j = 0; j < specs.size(); ++j) {
      stream.warm_.push_back(MakeRequest("w" + std::to_string(j), "info",
                                         specs[j], false, 1, false));
    }
  } else if (config.workload == "compile_churn") {
    const std::pair<int, int> shapes[] = {{2, 2}, {2, 3}, {3, 2}, {3, 3}};
    const size_t per_shape = (config.pool_size + 3) / 4;
    if (config.max_dead < 1 ||
        per_shape > static_cast<size_t>(config.max_dead) + 1 ||
        config.warm_specs > config.pool_size) {
      return std::nullopt;
    }
    // Rank r: shape r % 4 and a dead-unit count spread over
    // [0, max_dead] (53 is coprime to 129, so ranks of one shape never
    // share a count). The rank -> spec map is seed-independent, so every
    // seed draws from the same cost distribution.
    for (size_t r = 0; r < config.pool_size; ++r) {
      const auto& [k, n] = shapes[r % 4];
      const int dead = static_cast<int>(((r / 4) * 53) %
                                        (static_cast<size_t>(config.max_dead) + 1));
      specs.push_back(MakeSpec({Kind::kRing, k, n, dead}));
    }
    stream.zipf_.emplace(config.pool_size, config.zipf_s);
    for (size_t r = 0; r < config.warm_specs; ++r) {
      stream.warm_.push_back(MakeRequest("w" + std::to_string(r), "lint",
                                         specs[r], false, 1, false));
    }
  } else {
    return std::nullopt;
  }
  return stream;
}

Request RequestStream::Timed(size_t index) const {
  if (config_.workload == "search_drain") return SearchDrain(index);
  Rng rng = RngFor(seed_, index);
  if (config_.workload == "cached_mix") return CachedMix(index, rng);
  return CompileChurn(index, rng);
}

Request RequestStream::CachedMix(size_t index, Rng& rng) const {
  const Spec& spec = specs_[rng.Below(specs_.size())];
  const char* op = kMixOps[rng.Below(5)];
  const bool holds = rng.Below(2) == 0;
  return MakeRequest("r" + std::to_string(index), op, spec, true,
                     config_.request_threads, holds);
}

Request RequestStream::SearchDrain(size_t index) const {
  // Alternate the all-reject drain and the cover sampler. Each kind walks
  // its specs in seeded blocks that visit every spec once, so every run
  // gets the same mix whatever its seed.
  const bool drain = index % 2 == 0;
  const std::vector<size_t>& pool = drain ? contradictory_ : cross_;
  const size_t j = index / 2;
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng block = RngFor(seed_ ^ (drain ? 0 : 0x5bd1e995ULL), j / pool.size());
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[block.Below(i)]);
  }
  const Spec& spec = specs_[pool[order[j % pool.size()]]];
  return MakeRequest("r" + std::to_string(index), drain ? "empty" : "lrbound",
                     spec, true, config_.request_threads, false);
}

Request RequestStream::CompileChurn(size_t index, Rng& rng) const {
  // Stratified draws: each block of kChurnBlock requests takes one spec
  // rank from each of kChurnBlock equal slices of the Zipf CDF, paired
  // with the ops in turn, in a seeded order. Every block then holds the
  // same mix of specs and ops whatever the seed; only the order differs,
  // and within a block it is random.
  constexpr size_t kChurnBlock = 256;
  Rng block = RngFor(seed_ ^ 0x2545F4914F6CDD1DULL, index / kChurnBlock);
  const double jitter = block.Unit();
  std::vector<size_t> order(kChurnBlock);
  for (size_t i = 0; i < kChurnBlock; ++i) order[i] = i;
  for (size_t i = kChurnBlock; i > 1; --i) {
    std::swap(order[i - 1], order[block.Below(i)]);
  }
  const size_t stratum = order[index % kChurnBlock];
  const Spec& spec = specs_[zipf_->Sample(
      (static_cast<double>(stratum) + jitter) / kChurnBlock)];
  const char* op = kChurnOps[stratum % 4];
  const bool holds = rng.Below(2) == 0;
  return MakeRequest("r" + std::to_string(index), op, spec, false,
                     config_.request_threads, holds);
}

std::string RequestStream::Digest(size_t timed) const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const std::string& line) {
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 1099511628211ULL;
  };
  for (const Request& r : warm_) mix(r.line);
  for (size_t i = 0; i < timed; ++i) mix(Timed(i).line);
  return Hex16(h);
}

}  // namespace rav::perfbench

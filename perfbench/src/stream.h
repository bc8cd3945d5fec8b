#ifndef RAV_PERFBENCH_STREAM_H_
#define RAV_PERFBENCH_STREAM_H_

// Seeded request streams for the serving benchmark, and the verdict
// oracle that checks every answer without asking the service.
//
// Every spec the generator emits belongs to a family whose answer is
// known by construction:
//   * contradiction-free shift rings and the paper's Examples 1 and 5 are
//     NONEMPTY, have no inequality structure (LR cover 0, no growth), and
//     satisfy or violate the verify properties chosen for them;
//   * contradictory rings (an eq and a neq constraint over every
//     s0 ... s0 factor) make every lasso inconsistent, so the bounded
//     search stops on its lasso budget with a truncated EMPTY;
//   * cross-neq rings (neq constraints between distinct ring positions)
//     relate ever more values across every cut, so LR sampling detects
//     growth;
//   * `info` must echo the generator's own register/state/transition
//     counts, and `lint` the diagnostics the construction plants (one
//     write-only register per shift ring, three findings per dead unit).
//
// The stream is a pure function of (workload, seed, index): the same
// seed yields byte-identical lines, which the in-process replay
// regenerates instead of recording.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/report.h"

namespace rav::perfbench {

// SplitMix64: a tiny counter-friendly generator whose output is fixed by
// its definition (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Seeded Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(double unit) const;  // unit in [0, 1)

 private:
  std::vector<double> cdf_;
};

// One generated spec and what the construction says about it.
struct SpecFamily {
  enum class Kind { kExample1, kExample5, kRing, kContradictoryRing,
                    kCrossNeqRing };
  Kind kind = Kind::kRing;
  int registers = 0;
  int ring_states = 0;  // ring families only
  int dead_units = 0;   // E21 strippable structure
};

struct Spec {
  SpecFamily family;
  std::string text;
  std::string hash;  // service::SpecContentHash(text)
  int states = 0;
  int transitions = 0;
  int diagnostics = 0;          // lint findings planted by construction
  std::string holds_atom;       // verify: "G p0" holds ("" = none)
  std::string fails_atom;       // verify: "G p0" fails
};

Spec MakeSpec(const SpecFamily& family);

// What the oracle expects of one response.
struct Expected {
  std::string op;
  std::string verdict;  // exact, or a prefix when verdict_is_prefix
  bool verdict_is_prefix = false;
  std::string stop_reason;  // "" = not checked
  std::string spec_hash;    // "" = not checked
  // info: counts; lint: diagnostic count; lrbound: max_cover (-1 = skip)
  int registers = -1;
  int states = -1;
  int transitions = -1;
  int diagnostics = -1;
  int max_cover = -1;
};

// Returns a description of the first mismatch, or nullopt when the
// response is the expected one.
std::optional<std::string> CheckResponse(const Expected& expected,
                                         const Json& response);

struct Request {
  std::string id;
  const Spec* spec = nullptr;  // owned by the RequestStream
  std::string line;  // the wire line, without the newline
  Expected expected;
  bool search_op = false;  // empty / lrbound: eligible for search probes
};

// The workload parameters the stream depends on.
struct StreamConfig {
  std::string workload;  // cached_mix | search_drain | compile_churn
  int request_threads = 1;
  // compile_churn: distinct specs, Zipf exponent, dead units per spec,
  // and the top ranks uploaded in warm-up (the server's cache size). With
  // a 64-entry LRU, exponent 0.7 leaves about a third of the requests on
  // cache hits, so the median sits among misses: compile work, not the
  // thread wake-ups that dominate a hit and vary with the host.
  size_t pool_size = 512;
  double zipf_s = 0.7;
  int max_dead = 128;
  size_t warm_specs = 64;
};

class RequestStream {
 public:
  // Fails (nullopt) on an unknown workload name.
  static std::optional<RequestStream> Create(const StreamConfig& config,
                                             uint64_t seed);

  // Requests point into specs_: moving keeps the buffer, copying would not.
  RequestStream(RequestStream&&) = default;
  RequestStream(const RequestStream&) = delete;
  RequestStream& operator=(const RequestStream&) = delete;

  // The warm-up set: full-text uploads of the workload's warm specs.
  const std::vector<Request>& warm() const { return warm_; }
  // The i-th request of the timed phase; a pure function of (seed, i).
  Request Timed(size_t index) const;

  // FNV-1a 64 over the warm lines and the first `timed` timed lines
  // (each newline-terminated), as 16 hex digits.
  std::string Digest(size_t timed) const;

 private:
  RequestStream(StreamConfig config, uint64_t seed);

  Request CachedMix(size_t index, Rng& rng) const;
  Request SearchDrain(size_t index) const;
  Request CompileChurn(size_t index, Rng& rng) const;

  StreamConfig config_;
  uint64_t seed_;
  std::vector<Spec> specs_;  // the workload's spec pool
  std::vector<size_t> contradictory_;  // search_drain: indices into specs_
  std::vector<size_t> cross_;
  std::optional<Zipf> zipf_;
  std::vector<Request> warm_;
};

// Wire helpers shared with the replay.
std::string QueryLine(const std::string& id, const std::string& op,
                      const Spec& spec, bool by_hash, int threads,
                      const std::string& ltl_atom);

}  // namespace rav::perfbench

#endif  // RAV_PERFBENCH_STREAM_H_

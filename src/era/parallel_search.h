#ifndef RAV_ERA_PARALLEL_SEARCH_H_
#define RAV_ERA_PARALLEL_SEARCH_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "automata/nba.h"
#include "base/governor.h"
#include "compile/guard_tables.h"
#include "era/constraint_graph.h"
#include "era/cover_scratch.h"
#include "era/refuted_prefix_memo.h"

namespace rav {

// How candidate work is divided among search workers.
//
// kPartitioned is the reference engine: candidates are dealt to workers
// by enumeration rank and every worker evaluates its own candidates from
// scratch. Verdict, witness, and stop reason are byte-identical to the
// serial search for any worker count.
//
// kSharedVisited adds a process-wide visited set: each candidate is
// reduced to the canonical decomposition of its ω-word (primitive cycle,
// minimal prefix — see LassoWord::Canonicalized), interned into a pooled
// concurrent hash set, and evaluated at most once; every later candidate
// denoting the same ω-word reuses the published verdict, so one worker's
// dead subspace is every worker's dead subspace. Verdict and stop reason
// still match the partitioned engine (the evaluator's verdict is a
// function of the ω-word, and the first witness by rank still wins), but
// a witness's word is reported in canonical form rather than in whichever
// decomposition the enumerator happened to deliver first.
enum class SearchMode {
  kPartitioned = 0,
  kSharedVisited = 1,
};

// Stable name ("partitioned", "shared") / its inverse (nullopt on junk).
const char* SearchModeName(SearchMode mode);
std::optional<SearchMode> ParseSearchMode(std::string_view name);

// The default worker count of every search-backed procedure (emptiness,
// LTL-FO verification, LR-boundedness) and of the CLI/service `threads`
// knobs in front of them. One thread: parallelism is strictly opt-in.
inline constexpr int kDefaultSearchWorkers = 1;

// Why a lasso search (the shared core of ERA emptiness, LTL-FO
// verification, and LR-boundedness sampling) stopped. Only kExhausted
// makes a negative verdict definitive; the budget reasons (enumeration
// bounds and governor trips alike) make it bound-relative, and
// procedures must report it as such.
enum class SearchStopReason {
  kWitnessFound = 0,  // the search accepted a lasso and stopped
  kExhausted = 1,     // every candidate within the bounds was examined
  kLengthBound = 2,   // enumeration clipped paths at max_lasso_length
  kLassoBudget = 3,   // enumeration stopped after max_lassos candidates
  kStepBudget = 4,    // enumeration stopped by max_search_steps
  kDeadline = 5,      // the governor's wall-clock deadline passed
  kMemoryBudget = 6,  // the governor's memory budget was exceeded
  kCancelled = 7,     // cooperative cancellation was requested
};

// The search-level stop reason of a governor trip (kExhausted for
// kNone — callers only map actual trips).
SearchStopReason StopReasonOfTrip(GovernorTrip trip);

// Stable human-readable name ("witness-found", "exhausted", ...).
const char* SearchStopReasonName(SearchStopReason reason);

// Instrumentation of one lasso search, threaded through every decision
// procedure result and printed by the benchmarks and rav_cli.
struct SearchStats {
  size_t lassos_enumerated = 0;    // candidates the enumerator produced
  size_t lassos_checked = 0;       // candidates a worker evaluated
  size_t closures_built = 0;       // candidates' first closures
  size_t closures_extended = 0;    // closures grown via ExtendedBy
  size_t inconsistent_closures = 0;  // candidates rejected as inconsistent
  // Candidates refuted by their worker's refuted-prefix memo without a
  // closure (see RefutedPrefixMemo), and the closures the memo's learn
  // step built — counted apart from closures_built, so that every
  // evaluated candidate is either built or memo-refuted.
  size_t prefix_refutations = 0;
  size_t learn_closures = 0;
  size_t enumeration_steps = 0;    // DFS node expansions spent
  int workers = 1;                 // worker threads that evaluated lassos
  double wall_seconds = 0.0;
  SearchStopReason stop_reason = SearchStopReason::kExhausted;
  SearchMode mode = SearchMode::kPartitioned;
  // Shared-visited instrumentation (all zero in partitioned mode).
  size_t visited_hits = 0;     // candidates answered from the visited set
  size_t visited_entries = 0;  // distinct canonical ω-words interned
  size_t pool_bytes = 0;       // governor-accounted set + pool bytes
  // Compiled-guard instrumentation (era/guard/* metrics; all zero under
  // GuardEngine::kInterpreted).
  size_t guard_evals = 0;       // valuations decided through compiled tables
  size_t guard_batches = 0;     // SoA EvalBatch passes
  size_t guard_table_bytes = 0;  // bytes of the alphabet's compiled tables

  // True iff a negative verdict is relative to a search bound rather than
  // definitive: the search stopped because a budget ran out — an
  // enumeration bound or a governor limit (deadline, memory,
  // cancellation).
  bool truncated() const {
    return stop_reason == SearchStopReason::kLengthBound ||
           stop_reason == SearchStopReason::kLassoBudget ||
           stop_reason == SearchStopReason::kStepBudget ||
           stop_reason == SearchStopReason::kDeadline ||
           stop_reason == SearchStopReason::kMemoryBudget ||
           stop_reason == SearchStopReason::kCancelled;
  }

  // One line: "stop=exhausted enumerated=12 checked=12 ...".
  std::string ToString() const;
};

// A candidate produced by the enumerator: the lasso plus its enumeration
// rank. Ranks are the deterministic tie-breaker — when several workers
// find witnesses, the lowest rank wins, so the result is identical for
// any worker count.
struct LassoCandidate {
  size_t index = 0;
  LassoWord word;
};

// What a worker concluded about one candidate.
enum class LassoVerdict {
  kWitness,       // accept: first (lowest-rank) witness ends the search
  kInconsistent,  // rejected because its constraint closure is inconsistent
  kReject,        // rejected for any other reason
};

struct LassoSearchOptions {
  size_t max_lasso_length = 12;
  size_t max_lassos = 5000;
  size_t max_search_steps = 500000;
  // Worker threads evaluating candidates. <= 1 runs inline on the calling
  // thread (no thread is spawned); 0 means "all hardware threads".
  int num_workers = kDefaultSearchWorkers;
  // Work-sharing mode; see SearchMode. kSharedVisited requires the
  // evaluator's verdict to be a function of the candidate's ω-word alone
  // (all in-tree evaluators are), since verdicts are reused across
  // decompositions of the same word.
  SearchMode mode = SearchMode::kPartitioned;
  // Candidates a worker pulls from the shared enumerator per lock
  // round-trip at first. A worker doubles its next pull, up to 256, while
  // its last batch took less time to evaluate than 4x what the pull cost
  // (lock wait included), and halves it again, down to batch_size, once
  // evaluation outweighs the pull by that factor — so cheap candidates
  // (memo refutations) stop thrashing the enumerator lock, and expensive
  // ones keep small batches for load balance.
  size_t batch_size = 16;
  // Resource governor (nullptr = unlimited). Polled at the engine's safe
  // points — once per candidate on the inline path, and on every worker
  // once per pull and once per candidate — so a trip stops the search
  // within one candidate's evaluation. A witness found before the trip
  // still wins; otherwise the trip becomes the stop reason and the
  // negative verdict is truncated (never silently definitive).
  const ExecutionGovernor* governor = nullptr;
};

struct LassoSearchOutcome {
  // The accepted candidate of lowest enumeration rank, if any. Identical
  // to what the serial search returns, for every worker count.
  std::optional<LassoCandidate> witness;
  SearchStats stats;
};

// Per-worker counters an evaluator reports into; each worker owns one, so
// evaluators update them without synchronization. Merged into SearchStats.
// Carries the worker's closure and cover scratch buffers, so every
// closure an evaluator builds, and every G^w_h cover it measures, on this
// worker reuses the same temporaries.
// The worker's refuted-prefix memo lives here too, so an evaluator's
// refutations on this worker prune its later candidates.
struct LassoWorkerCounters {
  size_t closures_built = 0;
  size_t closures_extended = 0;
  compile::GuardStats guard;  // compiled guard evaluations (witness checks)
  ClosureScratch scratch;
  CoverScratch cover_scratch;
  RefutedPrefixMemo prefix_memo;
};

// Evaluates one candidate. Must be safe to call concurrently from several
// threads: it may only read shared state, plus update `counters` (worker-
// owned) and any aggregation state the evaluator itself synchronizes.
using LassoEvaluator =
    std::function<LassoVerdict(const LassoCandidate&, LassoWorkerCounters&)>;

// The shared lasso-search engine behind Corollary 10 emptiness, Theorem 12
// verification, and the Theorem 18 LR-boundedness sampler: enumerates the
// accepting lassos of `nba` (deterministic order) and feeds them to
// `evaluate` on a pool of `num_workers` threads — the calling thread and
// num_workers - 1 spawned ones, each pulling batches of consecutive ranks
// straight from the one shared enumerator under a mutex. The first
// witness wins, with deterministic tie-breaking: after any witness is
// found, candidates of higher rank are cancelled, candidates of lower rank
// still complete, and the lowest-rank witness is returned — so verdict and
// witness are byte-identical to the serial search regardless of thread
// count or scheduling. Stats are exact for the run that happened (checked
// counts can exceed the serial run's, since in-flight candidates past the
// witness may still be evaluated before cancellation).
LassoSearchOutcome SearchLassos(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate);

}  // namespace rav

#endif  // RAV_ERA_PARALLEL_SEARCH_H_

#include "era/parallel_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "base/failpoints.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace rav {

namespace {

constexpr size_t kNoWitness = static_cast<size_t>(-1);

// Self-sizing pulls (LassoSearchOptions::batch_size): the largest pull a
// worker grows to, and the factor between a batch's evaluation time and
// its pull's cost below which the next pull doubles (and at or above
// which it halves).
constexpr size_t kMaxPullSize = 256;
constexpr uint64_t kCheapBatchFactor = 4;

SearchStopReason FromEnumStop(LassoEnumStop stop) {
  switch (stop) {
    case LassoEnumStop::kExhausted:
      return SearchStopReason::kExhausted;
    case LassoEnumStop::kLengthClipped:
      return SearchStopReason::kLengthBound;
    case LassoEnumStop::kMaxCount:
      return SearchStopReason::kLassoBudget;
    case LassoEnumStop::kMaxSteps:
      return SearchStopReason::kStepBudget;
    case LassoEnumStop::kCallbackStopped:
      return SearchStopReason::kWitnessFound;
  }
  return SearchStopReason::kExhausted;
}

// Per-worker tallies, one slot per thread — no synchronization needed
// while the worker runs; merged after the join.
struct WorkerTally {
  size_t checked = 0;
  size_t inconsistent = 0;
  size_t cancelled = 0;
  uint64_t busy_ns = 0;  // time spent evaluating pulled batches
  LassoWorkerCounters counters;
};

// Adds one worker's tallies into `stats` and flushes its closure metrics.
void MergeTally(WorkerTally& tally, SearchStats& stats) {
  tally.counters.scratch.FlushMetrics();
  const LassoWorkerCounters& counters = tally.counters;
  stats.lassos_checked += tally.checked;
  stats.inconsistent_closures += tally.inconsistent;
  stats.closures_built += counters.closures_built;
  stats.closures_extended += counters.closures_extended;
  stats.prefix_refutations += counters.prefix_memo.refutations();
  stats.learn_closures += counters.prefix_memo.learn_closures();
  stats.guard_evals += counters.guard.evals;
  stats.guard_batches += counters.guard.batches;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Evaluates candidates inline on the calling thread, in enumeration
// order — the serial reference path (num_workers <= 1).
LassoSearchOutcome SearchInline(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate) {
  LassoSearchOutcome outcome;
  LassoEnumerator enumerator(nba, options.max_lasso_length,
                             options.max_lassos, options.max_search_steps);
  WorkerTally tally;
  LassoCandidate candidate;
  GovernorTrip trip = GovernorTrip::kNone;
  while (enumerator.Next(&candidate.word, &candidate.index)) {
    trip = GovernorCheck(options.governor);
    if (trip != GovernorTrip::kNone) break;
    ++tally.checked;
    LassoVerdict verdict = evaluate(candidate, tally.counters);
    if (verdict == LassoVerdict::kInconsistent) ++tally.inconsistent;
    if (verdict == LassoVerdict::kWitness) {
      outcome.witness = std::move(candidate);
      break;
    }
  }
  outcome.stats.lassos_enumerated = enumerator.delivered();
  MergeTally(tally, outcome.stats);
  outcome.stats.enumeration_steps = enumerator.steps();
  outcome.stats.workers = 1;
  // Precedence: a witness found before the trip is still a witness; an
  // ungoverned stop falls through to the enumerator's reason.
  outcome.stats.stop_reason = outcome.witness.has_value()
                                  ? SearchStopReason::kWitnessFound
                              : trip != GovernorTrip::kNone
                                  ? StopReasonOfTrip(trip)
                                  : FromEnumStop(enumerator.stop());
  return outcome;
}

// The state the pool's workers share. The enumerator and the best
// witness are guarded by `mu`: a worker takes the lock once per batch to
// pull its next candidates straight from the enumerator, and once per
// witness it finds.
struct SharedState {
  SharedState(const Nba& nba, const LassoSearchOptions& options)
      : enumerator(nba, options.max_lasso_length, options.max_lassos,
                   options.max_search_steps) {}

  std::mutex mu;
  LassoEnumerator enumerator;
  bool enumeration_done = false;
  size_t best_index = kNoWitness;
  LassoWord best_word;
  // Mirror of best_index for lock-free cancellation checks between the
  // candidates of a batch. Updated under `mu` whenever best_index
  // improves; read relaxed — a stale read only means one moot candidate
  // gets evaluated, never that a lower-rank candidate is skipped.
  std::atomic<size_t> best_hint{kNoWitness};
};

// One worker: pull a batch of candidates (consecutive ranks) from the
// shared enumerator, evaluate them without the lock, repeat until the
// enumeration ends, a witness makes every unpulled rank moot, or the
// governor trips. The pull self-sizes (see LassoSearchOptions::
// batch_size): cheap batches double the next pull, up to kMaxPullSize;
// batches that outweigh their pull halve it, down to `batch_size`. The
// batch's LassoWords are reused, so pulling allocates nothing once they
// are warm.
void WorkerLoop(SharedState& shared, const LassoEvaluator& evaluate,
                const ExecutionGovernor* governor, size_t batch_size,
                WorkerTally& tally) {
  const size_t max_pull = std::max(batch_size, kMaxPullSize);
  size_t pull = batch_size;
  std::vector<LassoCandidate> batch(pull);
  for (;;) {
    // One governor poll per pull: after a trip nothing more is pulled.
    if (GovernorCheck(governor) != GovernorTrip::kNone) return;
    size_t pulled = 0;
    const uint64_t pull_start = NowNs();
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      // Every rank still in the enumerator is above the best witness.
      if (shared.enumeration_done || shared.best_index != kNoWitness) return;
      while (pulled < pull &&
             shared.enumerator.Next(&batch[pulled].word,
                                    &batch[pulled].index)) {
        ++pulled;
      }
      if (pulled < pull) shared.enumeration_done = true;
    }
    const uint64_t pull_ns = NowNs() - pull_start;
    if (pulled == 0) return;
    // The batch is timed as a whole: per-candidate clock reads would cost
    // as much as a memo-refuted candidate's evaluation.
    const uint64_t batch_start = NowNs();
    for (size_t i = 0; i < pulled; ++i) {
      LassoCandidate& candidate = batch[i];
      // A witness of lower rank already won; ranks above it are moot.
      // After a governor trip the rest of the batch is dropped without
      // evaluating, so the pool winds down within one candidate's
      // evaluation per worker.
      if (candidate.index > shared.best_hint.load(std::memory_order_relaxed) ||
          GovernorCheck(governor) != GovernorTrip::kNone) {
        tally.cancelled += pulled - i;
        break;
      }
      ++tally.checked;
      LassoVerdict verdict = evaluate(candidate, tally.counters);
      if (verdict == LassoVerdict::kInconsistent) ++tally.inconsistent;
      if (verdict == LassoVerdict::kWitness) {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (candidate.index < shared.best_index) {
          shared.best_index = candidate.index;
          shared.best_hint.store(candidate.index, std::memory_order_relaxed);
          shared.best_word = std::move(candidate.word);
        }
        // The rest of the batch has higher ranks than this witness.
        tally.cancelled += pulled - i - 1;
        break;
      }
    }
    const uint64_t batch_ns = NowNs() - batch_start;
    tally.busy_ns += batch_ns;
    if (batch_ns < kCheapBatchFactor * pull_ns) {
      if (pull < max_pull) {
        pull = std::min(2 * pull, max_pull);
        if (batch.size() < pull) batch.resize(pull);
      }
    } else if (pull > batch_size) {
      pull = std::max(pull / 2, batch_size);
    }
  }
}

LassoSearchOutcome SearchParallel(const Nba& nba,
                                  const LassoSearchOptions& options,
                                  const LassoEvaluator& evaluate,
                                  int num_workers) {
  const uint64_t pool_start_ns = NowNs();
  const size_t batch = options.batch_size > 0 ? options.batch_size : 16;
  // The calling thread is worker 0; workers 1 .. num_workers - 1 are
  // spawned. The worker-spawn failpoint is consulted once per worker,
  // worker 0 included, so its Nth hit leaves a pool of N - 1 workers.
  // Thread creation failing (resource exhaustion or the injected fault)
  // degrades the pool to the workers already there rather than crashing;
  // a pool of one is the serial search.
  SharedState shared(nba, options);
  std::vector<WorkerTally> tallies(num_workers);
  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  // Joins the spawned workers before `shared` and `tallies` go away, also
  // when worker 0's evaluation throws.
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (std::thread& t : threads) t.join();
    }
  } join_all{threads};
  int pool_size = 0;
  for (int w = 0; w < num_workers; ++w) {
    try {
      if (RAV_FAILPOINT("era/search/worker_spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected worker-spawn failure");
      }
      if (w > 0) {
        threads.emplace_back([&shared, &evaluate, &tallies, batch,
                              governor = options.governor, w] {
          WorkerLoop(shared, evaluate, governor, batch, tallies[w]);
        });
      }
      ++pool_size;
    } catch (const std::system_error&) {
      RAV_METRIC_COUNT("era/search/worker_spawn_failures", 1);
      break;
    }
  }
  if (pool_size <= 1) {
    // No thread was spawned, so nobody touched the shared enumerator.
    return SearchInline(nba, options, evaluate);
  }
  WorkerLoop(shared, evaluate, options.governor, batch, tallies[0]);
  for (std::thread& t : threads) t.join();
  threads.clear();

  LassoSearchOutcome outcome;
  if (shared.best_index != kNoWitness) {
    outcome.witness =
        LassoCandidate{shared.best_index, std::move(shared.best_word)};
  }
  const uint64_t pool_ns = NowNs() - pool_start_ns;
  for (int w = 0; w < pool_size; ++w) {
    WorkerTally& tally = tallies[w];
    MergeTally(tally, outcome.stats);
    RAV_METRIC_COUNT("era/search/candidates_cancelled", tally.cancelled);
    RAV_METRIC_COUNT("era/search/worker_busy_ns", tally.busy_ns);
    // Fraction of the pool's lifetime each worker spent evaluating.
    if (pool_ns > 0) {
      RAV_METRIC_RECORD("era/search/worker_utilization_pct",
                        tally.busy_ns * 100 / pool_ns);
    }
  }
  const LassoEnumerator& enumerator = shared.enumerator;
  outcome.stats.lassos_enumerated = enumerator.delivered();
  outcome.stats.enumeration_steps = enumerator.steps();
  outcome.stats.workers = pool_size;
  const GovernorTrip trip = options.governor != nullptr
                                ? options.governor->trip()
                                : GovernorTrip::kNone;
  outcome.stats.stop_reason = outcome.witness.has_value()
                                  ? SearchStopReason::kWitnessFound
                              : trip != GovernorTrip::kNone
                                  ? StopReasonOfTrip(trip)
                                  : FromEnumStop(enumerator.stop());
  return outcome;
}

}  // namespace

SearchStopReason StopReasonOfTrip(GovernorTrip trip) {
  switch (trip) {
    case GovernorTrip::kDeadline:
      return SearchStopReason::kDeadline;
    case GovernorTrip::kMemoryBudget:
      return SearchStopReason::kMemoryBudget;
    case GovernorTrip::kCancelled:
      return SearchStopReason::kCancelled;
    case GovernorTrip::kNone:
      break;
  }
  return SearchStopReason::kExhausted;
}

const char* SearchModeName(SearchMode mode) {
  switch (mode) {
    case SearchMode::kPartitioned:
      return "partitioned";
  }
  return "unknown";
}

const char* SearchStopReasonName(SearchStopReason reason) {
  switch (reason) {
    case SearchStopReason::kWitnessFound:
      return "witness-found";
    case SearchStopReason::kExhausted:
      return "exhausted";
    case SearchStopReason::kLengthBound:
      return "length-bound";
    case SearchStopReason::kLassoBudget:
      return "lasso-budget";
    case SearchStopReason::kStepBudget:
      return "step-budget";
    case SearchStopReason::kDeadline:
      return "deadline";
    case SearchStopReason::kMemoryBudget:
      return "memory-budget";
    case SearchStopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string SearchStats::ToString() const {
  std::ostringstream out;
  out << "stop=" << SearchStopReasonName(stop_reason)
      << " enumerated=" << lassos_enumerated << " checked=" << lassos_checked
      << " closures=" << closures_built
      << " extended=" << closures_extended
      << " prefix_refuted=" << prefix_refutations
      << " learn_closures=" << learn_closures
      << " inconsistent=" << inconsistent_closures
      << " steps=" << enumeration_steps << " workers=" << workers
      << " wall_ms=" << wall_seconds * 1e3;
  // The compiled-guard fields are absent under the interpreted engine, so
  // existing consumers of the line see no change.
  if (guard_evals > 0 || guard_table_bytes > 0) {
    out << " guard_evals=" << guard_evals
        << " guard_batches=" << guard_batches
        << " guard_table_bytes=" << guard_table_bytes;
  }
  return out.str();
}

LassoSearchOutcome SearchLassos(const Nba& nba,
                                const LassoSearchOptions& options,
                                const LassoEvaluator& evaluate) {
  RAV_TRACE_SPAN("era/search");
  const auto start = std::chrono::steady_clock::now();
  int num_workers = options.num_workers;
  if (num_workers == 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  LassoSearchOutcome outcome =
      num_workers <= 1 ? SearchInline(nba, options, evaluate)
                       : SearchParallel(nba, options, evaluate, num_workers);
  outcome.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RAV_METRIC_COUNT("era/search/searches", 1);
  RAV_METRIC_COUNT("era/search/lassos_enumerated",
                   outcome.stats.lassos_enumerated);
  RAV_METRIC_COUNT("era/search/lassos_checked", outcome.stats.lassos_checked);
  RAV_METRIC_COUNT("era/search/enumeration_steps",
                   outcome.stats.enumeration_steps);
  RAV_METRIC_COUNT("era/search/inconsistent_closures",
                   outcome.stats.inconsistent_closures);
  RAV_METRIC_COUNT("era/search/prefix_refutations",
                   outcome.stats.prefix_refutations);
  RAV_METRIC_COUNT("era/search/learn_closures", outcome.stats.learn_closures);
  if (outcome.stats.guard_evals > 0) {
    RAV_METRIC_COUNT("era/guard/evals", outcome.stats.guard_evals);
    RAV_METRIC_COUNT("era/guard/batches", outcome.stats.guard_batches);
  }
  if (outcome.witness.has_value()) {
    RAV_METRIC_COUNT("era/search/witnesses_found", 1);
  }
  RAV_METRIC_SET("era/search/last_workers", outcome.stats.workers);
  return outcome;
}

}  // namespace rav

// E22 — Shared-memory lasso search (concurrent visited set + state pool).
// Claim: the SControl/product enumerator delivers the same ω-word under
// many decompositions; interning candidates by canonical decomposition in
// a concurrent visited set lets every worker reuse every other worker's
// verdicts, so the shared engine builds a fraction of the partitioned
// engine's constraint closures on duplicate-rich all-reject rungs and
// finishes faster, with the visited set's pool charged to the governor's
// byte accounting. Partitioned stays the deterministic reference; both
// engines are cross-checked for verdict/stop-reason agreement in-bench.
// Counters: closures, checked, visited_hits, visited_entries, dedup_pct,
// pool_kb, peak_kb.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "ra/control.h"

namespace rav {
namespace {

void AddSharedCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["prefix_refutations"] =
      static_cast<double>(stats.prefix_refutations);
  state.counters["checked"] = static_cast<double>(stats.lassos_checked);
  state.counters["visited_hits"] = static_cast<double>(stats.visited_hits);
  state.counters["visited_entries"] =
      static_cast<double>(stats.visited_entries);
  if (stats.lassos_checked > 0) {
    state.counters["dedup_pct"] = 100.0 *
                                  static_cast<double>(stats.visited_hits) /
                                  static_cast<double>(stats.lassos_checked);
  }
  state.counters["pool_kb"] = static_cast<double>(stats.pool_bytes) / 1024.0;
}

// The all-reject big-product rung (bench_emptiness's E17-style family):
// a contradictory shift ring whose skip transitions make the accepting-
// lasso space exponential in the length bound, so the search drains its
// whole bounded space and every duplicate decomposition pays a closure.
EraEmptinessResult RunRing(int n, size_t max_length, SearchMode mode,
                           int workers, const ExecutionGovernor* governor) {
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(/*k=*/3, n, /*contradictory=*/true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = max_length;
  options.max_lassos = 100000;
  options.max_search_steps = 10000000;
  options.search_mode = mode;
  options.num_workers = workers;
  options.governor = governor;
  return SearchConsistentLasso(era, alphabet, scontrol, options);
}

// One-time cross-check per rung: the shared engine must agree with the
// partitioned reference on verdict and stop reason, answer a nontrivial
// fraction of candidates from the visited set, and evaluate each
// distinct ω-word once, with a closure or a refuted-prefix memo hit (one
// worker, so no two workers race on an entry). RAV_CHECK so a regression
// fails the bench run (and CI).
void CheckRung(int n, size_t max_length) {
  EraEmptinessResult partitioned =
      RunRing(n, max_length, SearchMode::kPartitioned, 1, nullptr);
  EraEmptinessResult shared =
      RunRing(n, max_length, SearchMode::kSharedVisited, 1, nullptr);
  RAV_CHECK(partitioned.nonempty == shared.nonempty);
  RAV_CHECK(partitioned.stats.stop_reason == shared.stats.stop_reason);
  RAV_CHECK_GT(shared.stats.visited_hits, 0u);
  RAV_CHECK_EQ(shared.stats.closures_built + shared.stats.prefix_refutations,
               shared.stats.visited_entries);
}

void RunRingBench(benchmark::State& state, SearchMode mode) {
  const int n = static_cast<int>(state.range(0));
  const size_t max_length = static_cast<size_t>(state.range(1));
  const int workers = static_cast<int>(state.range(2));
  static bool checked_6_10 = (CheckRung(6, 10), true);
  (void)checked_6_10;
  EraEmptinessResult last;
  size_t peak_bytes = 0;
  for (auto _ : state) {
    // A fresh unlimited governor per run records the search's own
    // high-water mark (closures + visited set) in peak_bytes().
    ExecutionGovernor governor;
    last = RunRing(n, max_length, mode, workers, &governor);
    peak_bytes = governor.peak_bytes();
    benchmark::DoNotOptimize(last);
  }
  state.counters["ring"] = static_cast<double>(n);
  state.counters["max_len"] = static_cast<double>(max_length);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["peak_kb"] = static_cast<double>(peak_bytes) / 1024.0;
  AddSharedCounters(state, last.stats);
}

void BM_RingPartitioned(benchmark::State& state) {
  RunRingBench(state, SearchMode::kPartitioned);
}
// MinTime keeps the engine-vs-engine ratios stable: these rungs feed the
// E22 speedup claim and the perf gate.
BENCHMARK(BM_RingPartitioned)
    ->ArgsProduct({{4, 6}, {10, 12}, {1, 4}})
    ->MinTime(0.3);

void BM_RingShared(benchmark::State& state) {
  RunRingBench(state, SearchMode::kSharedVisited);
}
BENCHMARK(BM_RingShared)
    ->ArgsProduct({{4, 6}, {10, 12}, {1, 4}})
    ->MinTime(0.3);

// The LTL-FO rung: a HOLDS verification drains the ¬φ-NBA × SControl
// product's entire bounded lasso space — the big-product workload the
// shared visited-set was built for. The mode flows through
// VerificationOptions.emptiness untouched.
void RunLtlBench(benchmark::State& state, SearchMode mode) {
  const int depth = static_cast<int>(state.range(0));
  ExtendedAutomaton era =
      bench::MakeShiftRingSearchEra(/*k=*/3, /*n=*/4, /*contradictory=*/true);
  LtlFoProperty prop;
  prop.propositions = {Formula::Eq(Term::Var(0), Term::Var(3))};  // x1 = y2
  LtlFormula f = LtlFormula::Ap(0);
  for (int i = 0; i < depth; ++i) {
    f = LtlFormula::Globally(LtlFormula::Eventually(std::move(f)));
  }
  prop.formula = std::move(f);
  VerificationOptions options;
  options.emptiness.max_lasso_length = 10;
  options.emptiness.search_mode = mode;
  VerificationResult last;
  for (auto _ : state) {
    auto result = VerifyLtlFo(era, prop, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["product_states"] =
      static_cast<double>(last.product_states);
  state.counters["holds"] = last.holds;
  AddSharedCounters(state, last.search_stats);
}

void BM_LtlProductPartitioned(benchmark::State& state) {
  RunLtlBench(state, SearchMode::kPartitioned);
}
BENCHMARK(BM_LtlProductPartitioned)->DenseRange(1, 2)->MinTime(0.3);

void BM_LtlProductShared(benchmark::State& state) {
  RunLtlBench(state, SearchMode::kSharedVisited);
}
BENCHMARK(BM_LtlProductShared)->DenseRange(1, 2)->MinTime(0.3);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT(
    "E22",
    "Shared-memory lasso search: interning candidates by canonical ω-word "
    "in a concurrent, governor-accounted visited set dedups duplicate "
    "decompositions across workers, building a fraction of the partitioned "
    "engine's closures on all-reject big-product rungs and finishing "
    "faster, while the partitioned reference keeps first-witness-by-rank "
    "determinism as the default.")

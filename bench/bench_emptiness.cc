// E6 — Extended-automaton emptiness (Theorem 9 / Corollary 10).
// Claim: emptiness over finite databases is decidable; the lasso search
// with constraint-closure checking decides the paper's examples, and the
// closure checks parallelize across worker threads with verdicts and
// witnesses identical to the serial search.
// Counters: nonempty, lassos_tried, stop_reason (SearchStopReason enum
// value: 0 witness-found, 1 exhausted, 2 length-bound, 3 lasso-budget,
// 4 step-budget), closures, workers, prefix_refutations (candidates a
// worker's refuted-prefix memo answered without a closure),
// learn_closures (closures the memo's learn step built); the drain rungs
// add closures_built (= closures) and enumeration_steps.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "era/emptiness.h"
#include "oracle/lasso_enumerator_oracle.h"
#include "ra/transform.h"

namespace rav {
namespace {

void AddSearchCounters(benchmark::State& state, const SearchStats& stats) {
  state.counters["stop_reason"] = static_cast<double>(stats.stop_reason);
  state.counters["enumerated"] = static_cast<double>(stats.lassos_enumerated);
  state.counters["closures"] = static_cast<double>(stats.closures_built);
  state.counters["extended"] = static_cast<double>(stats.closures_extended);
  state.counters["inconsistent"] =
      static_cast<double>(stats.inconsistent_closures);
  state.counters["workers"] = static_cast<double>(stats.workers);
  state.counters["prefix_refutations"] =
      static_cast<double>(stats.prefix_refutations);
  state.counters["learn_closures"] = static_cast<double>(stats.learn_closures);
}

void BM_EmptinessExample5(benchmark::State& state) {
  ExtendedAutomaton era = bench::CompletedEra(bench::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = static_cast<size_t>(state.range(0));
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["max_lasso_length"] =
      static_cast<double>(options.max_lasso_length);
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessExample5)->DenseRange(4, 10, 2);

void BM_EmptinessContradictory(benchmark::State& state) {
  // Equality + inequality on the same factor: every lasso inconsistent.
  ExtendedAutomaton era = bench::MakeExample5();
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "p1 p2* p1").ok());
  ExtendedAutomaton complete = bench::CompletedEra(era);
  ControlAlphabet alphabet(complete.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = static_cast<size_t>(state.range(0));
  options.max_lassos = 2000;
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(complete, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessContradictory)->DenseRange(4, 8, 2);

void BM_EmptinessExample8(benchmark::State& state) {
  // Example 8: all-distinct values that must stay in a unary relation —
  // nonempty over infinite databases but EMPTY over finite ones; the
  // clique-growth guard must reject every lasso.
  Schema s;
  RelationId p = s.AddRelation("P", 1);
  RegisterAutomaton a(1, s);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.X(0)}, true).AddAtom(p, {b.Y(0)}, true);
  a.AddTransition(q, b.Build().value(), q);
  RegisterAutomaton completed = Completed(a).value();
  ExtendedAutomaton era(std::move(completed));
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+").ok());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = 500;
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *result;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nonempty"] = last.nonempty;  // expected 0
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessExample8);

void BM_EmptinessShiftRingParallel(benchmark::State& state) {
  // The parallel-engine workload: a 4-register shift ring with skip
  // transitions (exponential lasso space) under contradictory global
  // constraints, so every candidate builds a full closure and is
  // rejected. Arg = worker count; verdicts and witnesses are checked
  // byte-identical to the serial reference on every run.
  const int workers = static_cast<int>(state.range(0));
  ExtendedAutomaton era = bench::MakeShiftRingSearchEra(4, 6, true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 12;
  options.max_lassos = 256;
  options.num_workers = workers;
  EraEmptinessOptions serial = options;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  EraEmptinessResult last;
  for (auto _ : state) {
    last = SearchConsistentLasso(era, alphabet, scontrol, options);
    benchmark::DoNotOptimize(last);
  }
  RAV_CHECK(last.nonempty == reference.nonempty);
  RAV_CHECK(last.control_word.prefix == reference.control_word.prefix);
  RAV_CHECK(last.control_word.cycle == reference.control_word.cycle);
  RAV_CHECK(last.stats.stop_reason == reference.stats.stop_reason);
  state.counters["nonempty"] = last.nonempty;  // expected 0
  state.counters["lassos_tried"] = static_cast<double>(last.lassos_tried);
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessShiftRingParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EmptinessShiftRingWitnessParallel(benchmark::State& state) {
  // Same family without the contradiction: the ERA is nonempty, and the
  // engine must return the serial search's first witness (lowest
  // enumeration rank) at every worker count.
  const int workers = static_cast<int>(state.range(0));
  ExtendedAutomaton era = bench::MakeShiftRingSearchEra(4, 6, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 12;
  options.max_lassos = 256;
  options.num_workers = workers;
  EraEmptinessOptions serial = options;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  RAV_CHECK(reference.nonempty);
  EraEmptinessResult last;
  for (auto _ : state) {
    last = SearchConsistentLasso(era, alphabet, scontrol, options);
    benchmark::DoNotOptimize(last);
  }
  RAV_CHECK(last.nonempty);
  RAV_CHECK(last.control_word.prefix == reference.control_word.prefix);
  RAV_CHECK(last.control_word.cycle == reference.control_word.cycle);
  state.counters["nonempty"] = last.nonempty;  // expected 1
  AddSearchCounters(state, last.stats);
}
BENCHMARK(BM_EmptinessShiftRingWitnessParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EmptinessDrainRing(benchmark::State& state) {
  // The serving benchmark's all-reject drain: the contradictory
  // 3-register shift ring with skip edges over n states, completed, under
  // CheckEraEmptiness's default bounds (5000 lassos of at most 12
  // symbols). Every candidate is inconsistent; a worker's refuted-prefix
  // memo answers most of them without a closure. Args = n, workers. The
  // verdict, stop reason and work counters are checked identical to the
  // serial search on every run.
  const int n = static_cast<int>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  ExtendedAutomaton era =
      bench::CompletedEra(bench::MakeShiftRingSearchEra(3, n, true));
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.num_workers = workers;
  EraEmptinessOptions serial = options;
  serial.num_workers = 1;
  auto reference = CheckEraEmptiness(era, alphabet, serial);
  RAV_CHECK(reference.ok());
  EraEmptinessResult last;
  for (auto _ : state) {
    auto result = CheckEraEmptiness(era, alphabet, options);
    RAV_CHECK(result.ok());
    last = *std::move(result);
    benchmark::DoNotOptimize(last);
  }
  RAV_CHECK(!last.nonempty && !reference->nonempty);
  RAV_CHECK(last.stats.stop_reason == reference->stats.stop_reason);
  RAV_CHECK(last.stats.lassos_checked == reference->stats.lassos_checked);
  RAV_CHECK(last.stats.inconsistent_closures ==
            reference->stats.inconsistent_closures);
  RAV_CHECK(last.stats.enumeration_steps ==
            reference->stats.enumeration_steps);
  AddSearchCounters(state, last.stats);
  state.counters["closures_built"] =
      static_cast<double>(last.stats.closures_built);
  state.counters["enumeration_steps"] =
      static_cast<double>(last.stats.enumeration_steps);
}
BENCHMARK(BM_EmptinessDrainRing)
    ->Args({3, 1})
    ->Args({3, 4})
    ->Args({6, 1})
    ->Args({6, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The SControl NBA the drain rungs enumerate.
Nba DrainRingNba(int n) {
  ExtendedAutomaton era =
      bench::CompletedEra(bench::MakeShiftRingSearchEra(3, n, true));
  ControlAlphabet alphabet(era.automaton());
  return BuildSControlNba(era.automaton(), alphabet);
}

// Drains `Enumerator` over 5000 lassos of at most 12 symbols — the
// default emptiness bounds — and reports its steps and a checksum of the
// lasso sequence (identical for both enumerators).
template <typename Enumerator>
void RunLassoEnumerate(benchmark::State& state) {
  const Nba nba = DrainRingNba(static_cast<int>(state.range(0)));
  size_t steps = 0;
  size_t delivered = 0;
  uint64_t checksum = 0;
  LassoWord word;
  for (auto _ : state) {
    Enumerator enumerator(nba, 12, 5000, 500000);
    size_t index = 0;
    checksum = 0;
    while (enumerator.Next(&word, &index)) {
      checksum = checksum * 1000003 + word.prefix.size() * 31 +
                 word.cycle.size() + (word.cycle.empty() ? 0 : word.cycle[0]);
    }
    steps = enumerator.steps();
    delivered = enumerator.delivered();
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["enumeration_steps"] = static_cast<double>(steps);
  state.counters["checksum_low"] = static_cast<double>(checksum & 0xffff);
}

void BM_LassoEnumerate(benchmark::State& state) {
  // The production enumerator alone: O(1) node entry from per-state
  // occurrence records.
  RunLassoEnumerate<LassoEnumerator>(state);
}
BENCHMARK(BM_LassoEnumerate)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_LassoEnumerateReference(benchmark::State& state) {
  // The path-scanning reference enumerator (tests/oracle) on the same
  // drain: node entry scans the whole path twice.
  RunLassoEnumerate<oracle::ReferenceLassoEnumerator>(state);
}
BENCHMARK(BM_LassoEnumerateReference)
    ->Arg(3)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E6", "Theorem 9 / Corollary 10: emptiness of extended automata over finite databases is decidable; the closure checks parallelize with verdicts identical to the serial search.")

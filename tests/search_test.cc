// Tests of the lasso-search engine: truthful truncation verdicts (the
// stop-reason taxonomy), the resumable LassoEnumerator, determinism of the
// parallel search across worker counts, and the strict integer parsing the
// CLI depends on. The determinism tests are also the TSan target (see
// CMakePresets.json).

#include <gtest/gtest.h>

#include <random>

#include "automata/nba.h"
#include "base/numbers.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "era/parallel_search.h"
#include "projection/lr_bounded.h"
#include "ra/control.h"
#include "ra/random.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

ExtendedAutomaton CompletedEra(const ExtendedAutomaton& era) {
  RegisterAutomaton completed = Completed(era.automaton()).value();
  ExtendedAutomaton out(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    Status s = out.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                    c.dfa, c.description);
    RAV_CHECK(s.ok());
  }
  return out;
}

// The bench family (bench/bench_common.h) in miniature: a k-register shift
// ring with extra skip transitions so the accepting-lasso space is large
// enough that worker scheduling could plausibly reorder results.
ExtendedAutomaton MakeShiftRingSearchEra(int k, int n, bool contradictory) {
  RegisterAutomaton a(k, Schema());
  for (int s = 0; s < n; ++s) a.AddState("s" + std::to_string(s));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int s = 0; s < n; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    a.AddTransition(StateId(s), b.Build().value(), StateId((s + 1) % n));
  }
  for (int s = 0; s < n; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    b.AddEq(b.X(0), b.Y(0));
    a.AddTransition(StateId(s), b.Build().value(), StateId((s + 2) % n));
  }
  ExtendedAutomaton era(std::move(a));
  if (contradictory) {
    const RegisterPair r00{RegisterId(0), RegisterId(0)};
    RAV_CHECK(era.AddConstraintFromText(r00, true, "s0 .* s0").ok());
    RAV_CHECK(era.AddConstraintFromText(r00, false, "s0 .* s0").ok());
  }
  return era;
}

// Example 5 with an added inequality on the same factor as its equality
// constraint: every lasso's closure is inconsistent, so the search visits
// the whole bounded space (or its budget) without finding a witness.
ExtendedAutomaton MakeContradictoryExample5() {
  ExtendedAutomaton era = testing::MakeExample5();
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      false, "p1 p2* p1")
                .ok());
  return era;
}

// ---------------------------------------------------------------------------
// Truthful truncation verdicts (the headline regression).

TEST(SearchTruncation, StepBudgetSetsTruncated) {
  // A nonempty ERA searched under a step budget too small to reach any
  // witness: the old code reported search_truncated == false because
  // fewer than max_lassos candidates had been *delivered*, silently
  // presenting a budget-clipped EMPTY as definitive.
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_search_steps = 1;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kStepBudget);
}

TEST(SearchTruncation, LassoBudgetSetsTruncated) {
  ExtendedAutomaton era = CompletedEra(MakeContradictoryExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 8;
  options.max_lassos = 2;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result->stats.lassos_enumerated, 2u);
}

TEST(SearchTruncation, LengthBoundSetsTruncated) {
  // Generous step/count budgets but a short length bound: DFS paths are
  // clipped, so the EMPTY verdict only covers lassos up to the bound.
  ExtendedAutomaton era = CompletedEra(MakeContradictoryExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 4;
  options.max_lassos = 100000;
  options.max_search_steps = 10000000;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLengthBound);
}

TEST(SearchTruncation, ExhaustedSpaceIsDefinitive) {
  // With budgets comfortably above the occurrence-pruned DFS space (the
  // small incomplete SControl NBA, not the exponentially larger completed
  // one), the enumeration finishes cleanly and the EMPTY verdict is
  // definitive.
  ExtendedAutomaton era = MakeContradictoryExample5();
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 50;
  options.max_lassos = 1000000;
  options.max_search_steps = 1000000;
  EraEmptinessResult result =
      SearchConsistentLasso(era, alphabet, scontrol, options);
  EXPECT_FALSE(result.nonempty);
  EXPECT_FALSE(result.search_truncated);
  EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kExhausted);
  EXPECT_GT(result.stats.inconsistent_closures, 0u);
}

TEST(SearchTruncation, WitnessFoundIsNotTruncated) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  auto result = CheckEraEmptiness(era, alphabet);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nonempty);
  EXPECT_FALSE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kWitnessFound);
}

TEST(SearchTruncation, LtlFoVerdictCarriesStopReason) {
  // "Holds" under a tiny step budget must be flagged bound-relative.
  ExtendedAutomaton era = testing::MakeExample5();
  LtlFoProperty prop;
  prop.propositions = {Formula::Eq(Term::Var(0), Term::Var(1))};  // x1 = y1
  prop.formula = LtlFormula::Globally(LtlFormula::Ap(0));
  VerificationOptions options;
  options.emptiness.max_search_steps = 1;
  auto result = VerifyLtlFo(era, prop, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->holds);
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->search_stats.stop_reason, SearchStopReason::kStepBudget);
}

TEST(SearchTruncation, LrBoundCarriesStopReason) {
  ExtendedAutomaton era = testing::MakeAllDistinct();
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.max_lassos = 1;
  auto result = EstimateLrBound(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->search_truncated);
  EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kLassoBudget);
  EXPECT_EQ(result->lassos_examined, 1u);
}

// ---------------------------------------------------------------------------
// The emptiness evaluator closes each candidate over a probe window of two
// cycle pumps and grows only a consistent probe to the full pump. Its
// search must equal one that closes every candidate over the full window.

LassoSearchOutcome FullWindowSearch(const ExtendedAutomaton& era,
                                    const ControlAlphabet& alphabet,
                                    const Nba& nba,
                                    const EraEmptinessOptions& options) {
  const size_t pump = SuggestedPumpCount(era);
  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  return SearchLassos(
      nba, search_options,
      [&](const LassoCandidate& candidate,
          LassoWorkerCounters& counters) -> LassoVerdict {
        const LassoWord& w = candidate.word;
        ConstraintClosure closure(era, alphabet, w,
                                  w.prefix.size() + w.cycle.size() * pump,
                                  &counters.scratch);
        if (!closure.consistent()) return LassoVerdict::kInconsistent;
        return RealizeEraWitness(era, alphabet, w, closure).ok()
                   ? LassoVerdict::kWitness
                   : LassoVerdict::kReject;
      });
}

// One register kept constant on a complete digraph over `n` states, with
// x1 != x1 demanded across every factor of length `factor`: a lasso's
// window is inconsistent iff it has at least `factor` positions. With
// factors longer than any probe window, every probe is consistent and
// every full window refutes it.
ExtendedAutomaton MakeLongFactorEra(int n, int factor) {
  RegisterAutomaton a(1, Schema());
  for (int s = 0; s < n; ++s) {
    a.AddState("q" + std::to_string(s));
    a.SetFinal(StateId(s));
  }
  a.SetInitial(StateId(0));
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      TypeBuilder b = a.NewGuardBuilder();
      b.AddEq(b.X(0), b.Y(0));
      a.AddTransition(StateId(s), b.Build().value(), StateId(t));
    }
  }
  ExtendedAutomaton era(std::move(a));
  RAV_CHECK(era.AddConstraintFromText(RegisterPair{RegisterId(0), RegisterId(0)},
                                      false, std::string(factor, '.'))
                .ok());
  return era;
}

// `era` must be complete and have no relations (the full-window evaluator
// above skips the Example 8 clique check).
void ExpectProbeSearchMatchesFullWindow(const ExtendedAutomaton& era) {
  ControlAlphabet alphabet(era.automaton());
  const Nba nba = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = 100;
  const EraEmptinessResult probe =
      SearchConsistentLasso(era, alphabet, nba, options);
  const LassoSearchOutcome full =
      FullWindowSearch(era, alphabet, nba, options);
  ASSERT_EQ(probe.nonempty, full.witness.has_value());
  if (probe.nonempty) {
    EXPECT_EQ(probe.control_word, full.witness->word);
  }
  EXPECT_EQ(probe.stats.stop_reason, full.stats.stop_reason);
  EXPECT_EQ(probe.stats.lassos_checked, full.stats.lassos_checked);
  EXPECT_EQ(probe.stats.inconsistent_closures,
            full.stats.inconsistent_closures);
  // One probe closure per candidate, one extension per consistent probe.
  EXPECT_EQ(probe.stats.closures_built, probe.stats.lassos_checked);
  EXPECT_LE(probe.stats.closures_extended, probe.stats.lassos_checked);
}

TEST(ProbeWindowSearch, MatchesFullWindowOnHandBuiltFamilies) {
  ExpectProbeSearchMatchesFullWindow(
      CompletedEra(MakeShiftRingSearchEra(2, 4, /*contradictory=*/true)));
  ExpectProbeSearchMatchesFullWindow(
      CompletedEra(MakeShiftRingSearchEra(2, 4, /*contradictory=*/false)));
  ExpectProbeSearchMatchesFullWindow(CompletedEra(testing::MakeExample5()));
  ExpectProbeSearchMatchesFullWindow(
      CompletedEra(MakeContradictoryExample5()));
  ExpectProbeSearchMatchesFullWindow(CompletedEra(MakeLongFactorEra(3, 14)));
}

TEST(ProbeWindowSearch, MatchesFullWindowOnRandomAutomata) {
  std::mt19937 rng(20261017);
  for (int iteration = 0; iteration < 60; ++iteration) {
    RandomAutomatonOptions options;
    options.num_registers = std::uniform_int_distribution<int>(1, 2)(rng);
    options.num_states = std::uniform_int_distribution<int>(2, 4)(rng);
    options.num_transitions = 2 * options.num_states;
    RegisterAutomaton a = RandomAutomaton(rng, options);
    const int num_states = a.num_states();
    const int k = a.num_registers();
    ExtendedAutomaton era(std::move(a));
    std::uniform_int_distribution<int> reg(0, k - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    for (int c = std::uniform_int_distribution<int>(1, 3)(rng); c > 0; --c) {
      // A random DFA over the control states with at most four states.
      const int n = std::uniform_int_distribution<int>(1, 4)(rng);
      std::uniform_int_distribution<int> dfa_state(0, n - 1);
      Dfa dfa(num_states, n, dfa_state(rng));
      for (int s = 0; s < n; ++s) {
        for (int q = 0; q < num_states; ++q) {
          dfa.SetTransition(s, q, dfa_state(rng));
        }
        dfa.SetAccepting(s, coin(rng) == 1);
      }
      ASSERT_TRUE(era.AddConstraintDfa(
                         RegisterPair{RegisterId(reg(rng)), RegisterId(reg(rng))},
                         /*is_equality=*/coin(rng) == 1, dfa)
                      .ok());
    }
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    ExpectProbeSearchMatchesFullWindow(CompletedEra(era));
  }
}

TEST(ProbeWindowSearch, AllRejectDrainNeverGrowsAProbe) {
  // Every candidate of the contradictory ring is refuted on its probe.
  ExtendedAutomaton era =
      CompletedEra(MakeShiftRingSearchEra(3, 5, /*contradictory=*/true));
  ControlAlphabet alphabet(era.automaton());
  auto result = CheckEraEmptiness(era, alphabet);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_EQ(result->stats.inconsistent_closures,
            result->stats.lassos_checked);
  EXPECT_EQ(result->stats.closures_built, result->stats.lassos_checked);
  EXPECT_EQ(result->stats.closures_extended, 0u);
}

TEST(ProbeWindowSearch, ContradictionsPastTheProbeAreStillFound) {
  // Lassos of at most 6 symbols have probes of at most 12 positions, so
  // every probe is consistent and only the full pump refutes them.
  ExtendedAutomaton era = CompletedEra(MakeLongFactorEra(3, 14));
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = 100;
  options.analyze_and_strip = false;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->nonempty);
  EXPECT_GT(result->stats.lassos_checked, 0u);
  EXPECT_EQ(result->stats.inconsistent_closures,
            result->stats.lassos_checked);
  EXPECT_EQ(result->stats.closures_extended, result->stats.lassos_checked);
}

// ---------------------------------------------------------------------------
// The resumable enumerator (NBA layer).

TEST(LassoEnumerator, ExhaustsSmallAutomaton) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, /*max_length=*/10, /*max_count=*/100,
                             /*max_steps=*/1000);
  LassoWord word;
  size_t index = 0;
  size_t count = 0;
  size_t last_index = 0;
  while (enumerator.Next(&word, &index)) {
    EXPECT_EQ(index, count);  // ranks are 0-based and contiguous
    last_index = index;
    ++count;
  }
  EXPECT_GT(count, 0u);
  EXPECT_EQ(last_index, count - 1);
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kExhausted);
  EXPECT_EQ(enumerator.delivered(), count);
}

TEST(LassoEnumerator, MatchesCallbackEnumeration) {
  // The pull-style enumerator must deliver exactly the sequence the
  // callback API delivers, in the same order, with the same stop reason.
  Nba nba(2);
  int a = nba.AddState();
  int b = nba.AddState();
  nba.SetInitial(a);
  nba.SetAccepting(a);
  nba.AddTransition(a, 0, b);
  nba.AddTransition(b, 1, a);
  nba.AddTransition(b, 0, b);
  std::vector<LassoWord> pushed;
  Nba::EnumerationStats stats = nba.EnumerateAcceptingLassosEx(
      8, 1000,
      [&](const LassoWord& w) {
        pushed.push_back(w);
        return true;
      },
      100000);
  LassoEnumerator enumerator(nba, 8, 1000, 100000);
  std::vector<LassoWord> pulled;
  LassoWord word;
  size_t index;
  while (enumerator.Next(&word, &index)) pulled.push_back(word);
  ASSERT_EQ(pushed.size(), pulled.size());
  for (size_t i = 0; i < pushed.size(); ++i) {
    EXPECT_EQ(pushed[i].prefix, pulled[i].prefix) << "lasso " << i;
    EXPECT_EQ(pushed[i].cycle, pulled[i].cycle) << "lasso " << i;
  }
  EXPECT_EQ(stats.stop, enumerator.stop());
  EXPECT_EQ(stats.steps, enumerator.steps());
}

TEST(LassoEnumerator, ReportsStepBudget) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, 10, 100, /*max_steps=*/1);
  LassoWord word;
  size_t index;
  while (enumerator.Next(&word, &index)) {
  }
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kMaxSteps);
}

TEST(LassoEnumerator, ReportsCountCap) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, 10, /*max_count=*/1, 1000);
  LassoWord word;
  size_t index;
  EXPECT_TRUE(enumerator.Next(&word, &index));
  EXPECT_FALSE(enumerator.Next(&word, &index));
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kMaxCount);
}

TEST(LassoEnumerator, ReportsLengthClipping) {
  Nba nba(1);
  int q = nba.AddState();
  nba.SetInitial(q);
  nba.SetAccepting(q);
  nba.AddTransition(q, 0, q);
  LassoEnumerator enumerator(nba, /*max_length=*/1, 100, 1000);
  LassoWord word;
  size_t index;
  size_t count = 0;
  while (enumerator.Next(&word, &index)) ++count;
  EXPECT_EQ(count, 1u);  // only the length-1 cycle fits
  EXPECT_EQ(enumerator.stop(), LassoEnumStop::kLengthClipped);
}

// ---------------------------------------------------------------------------
// Parallel determinism: the engine's verdict and witness must be
// byte-identical at every worker count (lowest-rank-wins tie-breaking).

TEST(ParallelSearch, DeterministicWitnessOnExample5) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions serial;
  serial.num_workers = 1;
  auto reference = CheckEraEmptiness(era, alphabet, serial);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options;
    options.num_workers = workers;
    auto result = CheckEraEmptiness(era, alphabet, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->nonempty) << workers << " workers";
    EXPECT_EQ(result->control_word.prefix, reference->control_word.prefix)
        << workers << " workers";
    EXPECT_EQ(result->control_word.cycle, reference->control_word.cycle)
        << workers << " workers";
    EXPECT_EQ(result->stats.workers, workers);
  }
}

TEST(ParallelSearch, DeterministicWitnessOnShiftRing) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions serial;
  serial.max_lasso_length = 12;
  serial.max_lassos = 128;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  ASSERT_TRUE(reference.nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options = serial;
    options.num_workers = workers;
    EraEmptinessResult result =
        SearchConsistentLasso(era, alphabet, scontrol, options);
    EXPECT_TRUE(result.nonempty) << workers << " workers";
    EXPECT_EQ(result.control_word.prefix, reference.control_word.prefix)
        << workers << " workers";
    EXPECT_EQ(result.control_word.cycle, reference.control_word.cycle)
        << workers << " workers";
    EXPECT_EQ(result.stats.stop_reason, SearchStopReason::kWitnessFound);
  }
}

TEST(ParallelSearch, DeterministicEmptyVerdictOnShiftRing) {
  // All-reject workload: every worker count must see the same lassos and
  // reach the same budget-truncated EMPTY with the same stop reason.
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions serial;
  serial.max_lasso_length = 10;
  serial.max_lassos = 64;
  serial.num_workers = 1;
  EraEmptinessResult reference =
      SearchConsistentLasso(era, alphabet, scontrol, serial);
  ASSERT_FALSE(reference.nonempty);
  for (int workers : {2, 8}) {
    EraEmptinessOptions options = serial;
    options.num_workers = workers;
    EraEmptinessResult result =
        SearchConsistentLasso(era, alphabet, scontrol, options);
    EXPECT_FALSE(result.nonempty) << workers << " workers";
    EXPECT_EQ(result.stats.stop_reason, reference.stats.stop_reason);
    EXPECT_EQ(result.stats.lassos_enumerated,
              reference.stats.lassos_enumerated);
    EXPECT_EQ(result.stats.lassos_checked, reference.stats.lassos_checked);
    EXPECT_EQ(result.search_truncated, reference.search_truncated);
  }
}

TEST(ParallelSearch, LrBoundMatchesSerialAtAnyWorkerCount) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, false);
  RAV_CHECK(era.AddConstraintFromText(
      RegisterPair{RegisterId(0), RegisterId(0)}, 
                                      false, "s0 .* s3")
                .ok());
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions serial;
  serial.max_lassos = 32;
  serial.max_lasso_length = 10;
  serial.num_workers = 1;
  auto reference = EstimateLrBound(era, alphabet, serial);
  ASSERT_TRUE(reference.ok());
  for (int workers : {2, 8}) {
    LrBoundOptions options = serial;
    options.num_workers = workers;
    auto result = EstimateLrBound(era, alphabet, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->max_cover, reference->max_cover) << workers;
    EXPECT_EQ(result->growth_detected, reference->growth_detected) << workers;
    EXPECT_EQ(result->stats.stop_reason, reference->stats.stop_reason);
  }
}

TEST(ParallelSearch, ZeroWorkersMeansHardwareConcurrency) {
  ExtendedAutomaton era = CompletedEra(testing::MakeExample5());
  ControlAlphabet alphabet(era.automaton());
  EraEmptinessOptions options;
  options.num_workers = 0;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nonempty);
  EXPECT_GE(result->stats.workers, 1);
}

TEST(ParallelSearch, StatsToStringMentionsStopReason) {
  SearchStats stats;
  stats.stop_reason = SearchStopReason::kStepBudget;
  EXPECT_NE(stats.ToString().find("step-budget"), std::string::npos);
  EXPECT_TRUE(stats.truncated());
  stats.stop_reason = SearchStopReason::kWitnessFound;
  EXPECT_FALSE(stats.truncated());
  stats.stop_reason = SearchStopReason::kExhausted;
  EXPECT_FALSE(stats.truncated());
}

// ---------------------------------------------------------------------------
// Strict integer parsing (the CLI's replacement for bare std::stoi).

TEST(Numbers, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt32("42").value(), 42);
  EXPECT_EQ(ParseInt32("-7").value(), -7);
  EXPECT_EQ(ParseInt32("+12").value(), 12);
  EXPECT_EQ(ParseInt32("0").value(), 0);
  EXPECT_EQ(ParseInt64("123456789012").value(), 123456789012LL);
}

TEST(Numbers, RejectsMalformedInput) {
  EXPECT_FALSE(ParseInt32("").ok());
  EXPECT_FALSE(ParseInt32("abc").ok());
  EXPECT_FALSE(ParseInt32("12x").ok());
  EXPECT_FALSE(ParseInt32("x12").ok());
  EXPECT_FALSE(ParseInt32(" 12").ok());
  EXPECT_FALSE(ParseInt32("1.5").ok());
  EXPECT_FALSE(ParseInt32("--3").ok());
}

TEST(Numbers, RejectsOutOfRange) {
  EXPECT_FALSE(ParseInt32("99999999999").ok());
  EXPECT_FALSE(ParseInt32("-99999999999").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_EQ(ParseInt32("2147483647").value(), 2147483647);
  EXPECT_FALSE(ParseInt32("2147483648").ok());
}

}  // namespace
}  // namespace rav

// Tests of the lasso-search engine: truthful truncation verdicts (the
// stop-reason taxonomy), the resumable LassoEnumerator, determinism of the
// parallel search across worker counts, and the strict integer parsing the
// CLI depends on. The determinism tests are also the TSan target (see
// CMakePresets.json).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "automata/nba.h"
#include "base/failpoints.h"
#include "base/governor.h"
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
  for (int s = 0; s < n; ++s) a.AddState(IndexedName("s", s));
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
// cycle pumps and grows only a consistent probe to the full pump; every
// closure-based evaluator also skips candidates that start with a prefix
// its worker already refuted (RefutedPrefixMemo). Their searches must
// equal memo-free ones that close every candidate over its whole judged
// window.

LassoSearchOutcome FullWindowSearch(const ExtendedAutomaton& era,
                                    const ControlAlphabet& alphabet,
                                    const Nba& nba,
                                    const EraEmptinessOptions& options) {
  const size_t pump = SuggestedPumpCount(era);
  const bool has_database = era.automaton().schema().num_relations() > 0;
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
        if (has_database) {
          // The Example 8 guard, as the production evaluator applies it.
          const int now = closure.AdomCliqueNumber();
          const int wider = closure.ExtendedBy(1).AdomCliqueNumber();
          if (now >= 0 && wider > now) return LassoVerdict::kReject;
        }
        return RealizeEraWitness(era, alphabet, w, closure).ok()
                   ? LassoVerdict::kWitness
                   : LassoVerdict::kReject;
      });
}

// EstimateLrBound's fold without the memo: every candidate's small and
// large windows closed from scratch.
struct LrFold {
  int max_cover = 0;
  bool growth_detected = false;
  SearchStats stats;
};

LrFold MemoFreeLrFold(const ExtendedAutomaton& era,
                      const ControlAlphabet& alphabet, const Nba& nba,
                      const LrBoundOptions& options) {
  const size_t pump_small =
      2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
  const size_t pump_large = 2 * pump_small;
  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  LrFold fold;
  fold.stats =
      SearchLassos(
          nba, search_options,
          [&](const LassoCandidate& candidate,
              LassoWorkerCounters&) -> LassoVerdict {
            const LassoWord& w = candidate.word;
            auto window = [&](size_t pump) {
              return w.prefix.size() + w.cycle.size() * pump;
            };
            const int small =
                MaxCutVertexCover(era, alphabet, w, window(pump_small));
            if (small < 0) return LassoVerdict::kInconsistent;
            const int large =
                MaxCutVertexCover(era, alphabet, w, window(pump_large));
            fold.max_cover = std::max(fold.max_cover, small);
            fold.growth_detected = fold.growth_detected || large > small;
            return LassoVerdict::kReject;
          })
          .stats;
  return fold;
}

// Example 8: all-distinct values that must stay in a unary relation.
// The clique-growth guard rejects (kReject, not kInconsistent) every
// lasso the closure does not refute, so the memo must not learn there.
// With `distinct_steps` the guard also demands x1 != y1, so no lasso is
// inconsistent and every one is rejected.
ExtendedAutomaton MakeExample8(bool distinct_steps) {
  Schema schema;
  RelationId p = schema.AddRelation("P", 1);
  RegisterAutomaton a(1, schema);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  b.AddAtom(p, {b.X(0)}, true).AddAtom(p, {b.Y(0)}, true);
  if (distinct_steps) b.AddNeq(b.X(0), b.Y(0));
  a.AddTransition(q, b.Build().value(), q);
  ExtendedAutomaton era(Completed(a).value());
  RAV_CHECK(era.AddConstraintFromText(
                   RegisterPair{RegisterId(0), RegisterId(0)}, false, "q q+")
                .ok());
  return era;
}

// `era` must be complete. The LR fold is compared only without relations
// (LR-boundedness is defined without a database).
void ExpectMemoSearchMatchesReferences(const ExtendedAutomaton& era,
                                       size_t max_lassos = 100) {
  ControlAlphabet alphabet(era.automaton());
  const Nba nba = BuildSControlNba(era.automaton(), alphabet);
  EraEmptinessOptions options;
  options.max_lasso_length = 6;
  options.max_lassos = max_lassos;
  const LassoSearchOutcome full =
      FullWindowSearch(era, alphabet, nba, options);
  LrBoundOptions lr_options;
  lr_options.max_lasso_length = 6;
  lr_options.max_lassos = 100;
  lr_options.analyze_and_strip = false;  // sample exactly `nba`
  LrFold fold;
  if (era.automaton().schema().num_relations() == 0) {
    fold = MemoFreeLrFold(era, alphabet, nba, lr_options);
  }
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(IndexedName("workers ", workers));
    options.num_workers = workers;
    const EraEmptinessResult probe =
        SearchConsistentLasso(era, alphabet, nba, options);
    ASSERT_EQ(probe.nonempty, full.witness.has_value());
    if (probe.nonempty) {
      EXPECT_EQ(probe.control_word, full.witness->word);
    }
    EXPECT_EQ(probe.stats.stop_reason, full.stats.stop_reason);
    // Past a witness a pool may still check in-flight candidates of
    // higher rank before cancelling them, so with a witness the work
    // counters are pinned on the serial run only.
    if (!probe.nonempty || workers == 1) {
      EXPECT_EQ(probe.stats.lassos_checked, full.stats.lassos_checked);
      EXPECT_EQ(probe.stats.inconsistent_closures,
                full.stats.inconsistent_closures);
      EXPECT_EQ(probe.stats.enumeration_steps, full.stats.enumeration_steps);
    }
    // Every checked candidate is either memo-refuted or pays one probe
    // closure; only a consistent probe is extended (grown to the full
    // pump, and with a database once more for the clique check).
    EXPECT_EQ(probe.stats.closures_built + probe.stats.prefix_refutations,
              probe.stats.lassos_checked);
    EXPECT_LE(probe.stats.closures_extended, 2 * probe.stats.closures_built);

    if (era.automaton().schema().num_relations() > 0) continue;
    lr_options.num_workers = workers;
    auto lr = EstimateLrBound(era, alphabet, lr_options);
    ASSERT_TRUE(lr.ok()) << lr.status().ToString();
    EXPECT_EQ(lr->max_cover, fold.max_cover);
    EXPECT_EQ(lr->growth_detected, fold.growth_detected);
    EXPECT_EQ(lr->stats.stop_reason, fold.stats.stop_reason);
    EXPECT_EQ(lr->stats.lassos_checked, fold.stats.lassos_checked);
    EXPECT_EQ(lr->stats.inconsistent_closures,
              fold.stats.inconsistent_closures);
    EXPECT_EQ(lr->stats.enumeration_steps, fold.stats.enumeration_steps);
    EXPECT_EQ(lr->stats.closures_built + lr->stats.prefix_refutations,
              lr->stats.lassos_checked);
  }
}

// One register kept constant on a complete digraph over `n` states, with
// x1 != x1 demanded across every factor of length `factor`: a lasso's
// window is inconsistent iff it has at least `factor` positions. With
// factors longer than any probe window, every probe is consistent and
// every full window refutes it.
ExtendedAutomaton MakeLongFactorEra(int n, int factor) {
  RegisterAutomaton a(1, Schema());
  for (int s = 0; s < n; ++s) {
    a.AddState(IndexedName("q", s));
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

TEST(ProbeWindowSearch, MatchesFullWindowOnHandBuiltFamilies) {
  ExpectMemoSearchMatchesReferences(
      CompletedEra(MakeShiftRingSearchEra(2, 4, /*contradictory=*/true)));
  ExpectMemoSearchMatchesReferences(
      CompletedEra(MakeShiftRingSearchEra(2, 4, /*contradictory=*/false)));
  ExpectMemoSearchMatchesReferences(CompletedEra(testing::MakeExample5()));
  ExpectMemoSearchMatchesReferences(
      CompletedEra(MakeContradictoryExample5()));
  ExpectMemoSearchMatchesReferences(CompletedEra(MakeLongFactorEra(3, 14)));
  // The whole bounded space, so the clique-rejected words come up too.
  ExpectMemoSearchMatchesReferences(MakeExample8(false), /*max_lassos=*/500);
  ExpectMemoSearchMatchesReferences(MakeExample8(true));
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
    SCOPED_TRACE(IndexedName("iteration ", iteration));
    ExpectMemoSearchMatchesReferences(CompletedEra(era));
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
  EXPECT_EQ(result->stats.closures_built + result->stats.prefix_refutations,
            result->stats.lassos_checked);
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
  // Every probe that was built is consistent and grown to the full pump;
  // the other candidates start with a prefix already refuted past the
  // probe.
  EXPECT_EQ(result->stats.closures_extended, result->stats.closures_built);
  EXPECT_EQ(result->stats.closures_built + result->stats.prefix_refutations,
            result->stats.lassos_checked);
  EXPECT_GT(result->stats.learn_closures, 0u);
}

// The memo matches the ω-word, across the prefix/cycle seam, and only
// within the window its caller would have judged.
TEST(RefutedPrefixMemo, MatchesTheOmegaWordWithinTheJudgedWindow) {
  // x1 kept constant, x1 != x1 across any factor of 3 positions: the
  // shortest refuted prefix of every word is its first 3 symbols.
  ExtendedAutomaton era = CompletedEra(MakeLongFactorEra(2, 3));
  ControlAlphabet alphabet(era.automaton());
  RefutedPrefixMemo memo;
  auto refutes = [&](const LassoWord& word, size_t judged_window) {
    return memo.Refutes(era, alphabet, word, judged_window, nullptr, nullptr);
  };
  const LassoWord refuted{{0}, {1, 0}};  // 0 1 0 1 0 ...
  EXPECT_FALSE(refutes(refuted, 9));  // nothing learnt yet
  ConstraintClosure closure(era, alphabet, refuted, 9);
  ASSERT_FALSE(closure.consistent());
  EXPECT_EQ(closure.ConflictWindowLowerBound(), 3u);
  memo.Learn(refuted, 0, closure);
  // A word sharing only 2 symbols cannot begin with a refuted prefix of
  // at least 3: no closure is built to find out.
  EXPECT_FALSE(refutes(LassoWord{{0, 1}, {1}}, 8));
  EXPECT_EQ(memo.learn_closures(), 0u);
  // The same ω-word in another decomposition settles the memo: the lower
  // bound is the answer, and one closure confirms it.
  EXPECT_TRUE(refutes(LassoWord{{0, 1}, {0, 1}}, 4));
  EXPECT_EQ(memo.prefix(), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(memo.learn_closures(), 1u);
  // A word that leaves it only after the refuted prefix.
  EXPECT_TRUE(refutes(LassoWord{{}, {0, 1}}, 3));
  EXPECT_TRUE(refutes(LassoWord{{0, 1, 0, 0}, {1}}, 5));
  // Not when the prefix is longer than the judged window, nor on a word
  // that leaves the prefix.
  EXPECT_FALSE(refutes(LassoWord{{}, {0, 1}}, 2));
  EXPECT_FALSE(refutes(LassoWord{{0, 1}, {1}}, 8));
  EXPECT_FALSE(refutes(LassoWord{{0, 1}, {}}, 2));
  EXPECT_EQ(memo.refutations(), 3u);
  EXPECT_EQ(memo.learn_closures(), 1u);
}

// Settling the memo charges each closure it builds to the governor, and
// after a trip it builds none, judging with the refuted window it has.
TEST(RefutedPrefixMemo, SettlingIsChargedToTheGovernor) {
  ExtendedAutomaton era = CompletedEra(MakeLongFactorEra(2, 3));
  ControlAlphabet alphabet(era.automaton());
  const LassoWord refuted{{0}, {1, 0}};  // 0 1 0 1 0 ...
  ConstraintClosure closure(era, alphabet, refuted, 9);
  ASSERT_FALSE(closure.consistent());
  RefutedPrefixMemo memo;
  ExecutionGovernor governor;
  governor.set_memory_budget(1);
  auto refutes = [&](const LassoWord& word) {
    return memo.Refutes(era, alphabet, word, 9, nullptr, &governor);
  };
  memo.Learn(refuted, 0, closure);
  // The settling closure trips the budget, and is released with it.
  EXPECT_TRUE(refutes(LassoWord{{0, 1, 0, 0}, {1}}));
  EXPECT_EQ(governor.trip(), GovernorTrip::kMemoryBudget);
  EXPECT_EQ(governor.live_bytes(), 0u);
  EXPECT_EQ(memo.learn_closures(), 1u);
  // Tripped: the next refutation is never settled, so only a word that
  // shares its whole refuted window (9 symbols) matches.
  memo.Learn(refuted, 0, closure);
  EXPECT_FALSE(refutes(LassoWord{{0, 1, 0, 0}, {1}}));
  EXPECT_TRUE(refutes(LassoWord{{}, {0, 1}}));
  EXPECT_EQ(memo.learn_closures(), 1u);
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

Dfa RandomConstraintDfa(std::mt19937& rng, int alphabet_size) {
  std::uniform_int_distribution<int> num_states_dist(1, 5);
  const int n = num_states_dist(rng);
  std::uniform_int_distribution<int> state_dist(0, n - 1);
  Dfa dfa(alphabet_size, n, state_dist(rng));
  std::uniform_int_distribution<int> accept_dist(0, 3);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < alphabet_size; ++a) {
      dfa.SetTransition(s, a, state_dist(rng));
    }
    dfa.SetAccepting(s, accept_dist(rng) == 0);
  }
  return dfa;
}

// A completed, schema-free ERA with one to three random constraints over
// its control states.
ExtendedAutomaton RandomCompleteEra(std::mt19937& rng) {
  RandomAutomatonOptions options;
  options.num_registers = std::uniform_int_distribution<int>(1, 3)(rng);
  options.num_states = std::uniform_int_distribution<int>(2, 4)(rng);
  options.num_transitions = 2 * options.num_states;
  RegisterAutomaton a = RandomAutomaton(rng, options);
  Result<RegisterAutomaton> completed = Completed(a);
  RAV_CHECK(completed.ok());
  const int num_states = completed->num_states();
  const int k = completed->num_registers();
  ExtendedAutomaton era(*std::move(completed));
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const int nc = std::uniform_int_distribution<int>(1, 3)(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    RAV_CHECK(era.AddConstraintDfa(regs, /*is_equality=*/coin(rng) == 1,
                                   RandomConstraintDfa(rng, num_states))
                  .ok());
  }
  return era;
}

// On random ERAs every worker count agrees with the 1-worker search on
// verdict, stop reason, truncation, and the witness's spelling, and every
// witness realizes over a finite database.
TEST(ParallelSearch, RandomErasAgreeAcrossWorkers) {
  std::mt19937 rng(20260809);
  size_t nonempty_seen = 0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    SCOPED_TRACE(IndexedName("iteration ", iteration));
    ExtendedAutomaton era = RandomCompleteEra(rng);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions options;
    options.max_lassos = 200;
    options.max_search_steps = 20000;
    options.num_workers = 1;
    auto serial = CheckEraEmptiness(era, alphabet, options);
    ASSERT_TRUE(serial.ok());
    if (serial->nonempty) {
      ++nonempty_seen;
      const LassoWord& word = serial->control_word;
      const size_t window =
          word.prefix.size() + word.cycle.size() * SuggestedPumpCount(era);
      auto witness = RealizeEraWitness(era, alphabet, word, window);
      EXPECT_TRUE(witness.ok()) << witness.status().ToString();
    }
    for (int workers = 2; workers <= 4; ++workers) {
      options.num_workers = workers;
      auto parallel = CheckEraEmptiness(era, alphabet, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->nonempty, serial->nonempty) << workers;
      EXPECT_EQ(parallel->stats.stop_reason, serial->stats.stop_reason)
          << workers;
      EXPECT_EQ(parallel->search_truncated, serial->search_truncated)
          << workers;
      EXPECT_EQ(parallel->control_word.ToString(),
                serial->control_word.ToString())
          << workers;
    }
  }
  // The generator must exercise both verdicts for the check to mean much.
  EXPECT_GT(nonempty_seen, 10u);
  EXPECT_LT(nonempty_seen, 90u);
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
// The pull pool: the calling thread and the spawned workers take batches
// of consecutive ranks straight from the shared enumerator.

// With the worker-spawn failpoint firing on its first hit no worker can
// be started, so the pool runs the serial search, and every outcome field
// and work counter equals the 1-worker run's.
TEST(PullPool, SpawnFailureOnEverySpawnEqualsSerial) {
  for (bool contradictory : {false, true}) {
    ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, contradictory);
    ControlAlphabet alphabet(era.automaton());
    Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
    EraEmptinessOptions serial;
    serial.max_lasso_length = 12;
    serial.max_lassos = 128;
    serial.num_workers = 1;
    EraEmptinessResult reference =
        SearchConsistentLasso(era, alphabet, scontrol, serial);
    EraEmptinessOptions options = serial;
    options.num_workers = 4;
    failpoints::Arm("era/search/worker_spawn", 1);
    EraEmptinessResult degraded =
        SearchConsistentLasso(era, alphabet, scontrol, options);
    failpoints::DisarmAll();
    SCOPED_TRACE(contradictory ? "contradictory" : "satisfiable");
    EXPECT_EQ(degraded.nonempty, reference.nonempty);
    EXPECT_EQ(degraded.control_word, reference.control_word);
    EXPECT_EQ(degraded.stats.stop_reason, reference.stats.stop_reason);
    EXPECT_EQ(degraded.stats.lassos_checked, reference.stats.lassos_checked);
    EXPECT_EQ(degraded.stats.closures_built, reference.stats.closures_built);
    EXPECT_EQ(degraded.stats.closures_extended,
              reference.stats.closures_extended);
    EXPECT_EQ(degraded.stats.inconsistent_closures,
              reference.stats.inconsistent_closures);
    EXPECT_EQ(degraded.stats.workers, 1);
  }
}

// Witnesses at several ranks, with the low ranks the slowest to evaluate,
// so workers holding higher-rank batches find their witnesses first: the
// search must still return the lowest-rank witness at every worker count.
TEST(PullPool, LowestRankWitnessWinsUnderASlowEvaluator) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(3, 5, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  constexpr size_t kWitnessRanks[] = {37, 90, 150};
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters&) {
    if (candidate.index < 60) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(20 * (60 - candidate.index)));
    }
    for (size_t rank : kWitnessRanks) {
      if (candidate.index == rank) return LassoVerdict::kWitness;
    }
    return LassoVerdict::kReject;
  };
  LassoSearchOptions options;
  options.max_lasso_length = 12;
  options.max_lassos = 200;
  options.batch_size = 4;
  options.num_workers = 1;
  const LassoSearchOutcome serial = SearchLassos(scontrol, options, evaluate);
  ASSERT_TRUE(serial.witness.has_value());
  ASSERT_EQ(serial.witness->index, 37u);
  for (int workers : {2, 4, 8}) {
    options.num_workers = workers;
    const LassoSearchOutcome outcome =
        SearchLassos(scontrol, options, evaluate);
    ASSERT_TRUE(outcome.witness.has_value()) << workers << " workers";
    EXPECT_EQ(outcome.witness->index, 37u) << workers << " workers";
    EXPECT_EQ(outcome.witness->word, serial.witness->word)
        << workers << " workers";
    EXPECT_EQ(outcome.stats.stop_reason, SearchStopReason::kWitnessFound);
    EXPECT_EQ(outcome.stats.workers, workers);
  }
}

// A deadline that passes mid-search stops every worker within one
// candidate, and the negative verdict says so: stop reason kDeadline,
// truncated, and fewer candidates checked than the budget allowed.
TEST(PullPool, MidSearchDeadlineTruncatesTruthfully) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(4, 6, false);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  auto evaluate = [](const LassoCandidate&, LassoWorkerCounters&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return LassoVerdict::kReject;
  };
  for (int workers : {1, 4}) {
    ExecutionGovernor governor;
    governor.set_deadline_after(std::chrono::milliseconds(20));
    LassoSearchOptions options;
    options.max_lasso_length = 12;
    options.max_lassos = 5000;
    options.num_workers = workers;
    options.governor = &governor;
    const LassoSearchOutcome outcome =
        SearchLassos(scontrol, options, evaluate);
    EXPECT_FALSE(outcome.witness.has_value()) << workers << " workers";
    EXPECT_EQ(outcome.stats.stop_reason, SearchStopReason::kDeadline)
        << workers << " workers";
    EXPECT_TRUE(outcome.stats.truncated());
    EXPECT_GT(outcome.stats.lassos_checked, 0u);
    EXPECT_LT(outcome.stats.lassos_checked, options.max_lassos);
    EXPECT_LE(outcome.stats.lassos_checked, outcome.stats.lassos_enumerated);
  }
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

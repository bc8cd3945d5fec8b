// Differential tests of the G^w_h cover sweep (MaxCutVertexCoverOfClosure)
// against the per-cut reference in tests/oracle/cover_oracle: random
// closures at a small pump and its ExtendedBy large pump, hand-built edge
// cases, and the whole LR-bound sampler against an oracle-driven fold at
// several worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "era/constraint_graph.h"
#include "era/cover_scratch.h"
#include "oracle/cover_oracle.h"
#include "projection/lr_bounded.h"
#include "ra/control.h"
#include "ra/random.h"
#include "test_util.h"

namespace rav {
namespace {

// --- the oracle's own matcher ---

TEST(CoverOracleTest, BipartiteCoverViaKoenig) {
  // Path edges (0-0'),(1-0'),(1-1'): max matching 2, min cover 2.
  EXPECT_EQ(oracle::BipartiteMinVertexCover(2, 2, {{0, 0}, {1, 0}, {1, 1}}),
            2);
  // Star: 1.
  EXPECT_EQ(oracle::BipartiteMinVertexCover(
                1, 5, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}}),
            1);
  EXPECT_EQ(oracle::BipartiteMinVertexCover(3, 3, {}), 0);
}

// --- random closures ---

Dfa RandomConstraintDfa(std::mt19937& rng, int alphabet_size) {
  std::uniform_int_distribution<int> num_states_dist(1, 5);
  const int n = num_states_dist(rng);
  std::uniform_int_distribution<int> state_dist(0, n - 1);
  Dfa dfa(alphabet_size, n, state_dist(rng));
  std::uniform_int_distribution<int> accept_dist(0, 2);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < alphabet_size; ++a) {
      dfa.SetTransition(s, a, state_dist(rng));
    }
    dfa.SetAccepting(s, accept_dist(rng) == 0);
  }
  return dfa;
}

// A random ERA whose global constraints are mostly inequalities (so the
// closures carry many cross-position edges), with constants half of the
// time.
ExtendedAutomaton RandomEra(std::mt19937& rng) {
  RandomAutomatonOptions options;
  options.num_registers = std::uniform_int_distribution<int>(1, 4)(rng);
  options.num_states = std::uniform_int_distribution<int>(2, 4)(rng);
  options.num_transitions = 2 * options.num_states;
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    options.schema.AddConstant("c0");
  }
  RegisterAutomaton a = RandomAutomaton(rng, options);
  const int num_states = a.num_states();
  const int k = a.num_registers();
  ExtendedAutomaton era(std::move(a));
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> quarter(0, 3);
  const int nc = std::uniform_int_distribution<int>(1, 4)(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    EXPECT_TRUE(era.AddConstraintDfa(regs, /*is_equality=*/quarter(rng) == 0,
                                     RandomConstraintDfa(rng, num_states))
                    .ok());
  }
  return era;
}

// A random symbol word (the closure does not require it to follow the
// transition relation).
LassoWord RandomWord(std::mt19937& rng, const ControlAlphabet& alphabet) {
  std::uniform_int_distribution<int> symbol_dist(0, alphabet.size() - 1);
  LassoWord word;
  const int np = std::uniform_int_distribution<int>(0, 3)(rng);
  const int nv = std::uniform_int_distribution<int>(1, 4)(rng);
  for (int i = 0; i < np; ++i) word.prefix.push_back(symbol_dist(rng));
  for (int i = 0; i < nv; ++i) word.cycle.push_back(symbol_dist(rng));
  return word;
}

TEST(CoverDiffTest, SweepMatchesOracleOnRandomClosures) {
  std::mt19937 rng(20261017);
  // Shared across iterations (and across closure sizes), like a search
  // worker's: stale contents must never leak into the next closure.
  CoverScratch cover_scratch;
  ClosureScratch closure_scratch;
  int consistent = 0;
  int nontrivial = 0;
  for (int iteration = 0; iteration < 6000; ++iteration) {
    const ExtendedAutomaton era = RandomEra(rng);
    const ControlAlphabet alphabet(era.automaton());
    const LassoWord word = RandomWord(rng, alphabet);
    const size_t pump_small = std::uniform_int_distribution<size_t>(1, 12)(rng);
    const size_t pump_large =
        pump_small + std::uniform_int_distribution<size_t>(0, 6)(rng);
    const size_t window = word.prefix.size() + word.cycle.size() * pump_small;
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);

    ConstraintClosure small(era, alphabet, word, window, &closure_scratch);
    const int want_small = oracle::MaxCutVertexCoverOfClosure(small);
    EXPECT_EQ(MaxCutVertexCoverOfClosure(small, &cover_scratch), want_small);
    EXPECT_EQ(MaxCutVertexCoverOfClosure(small), want_small);
    if (want_small < 0) continue;
    ++consistent;
    if (want_small > 0) ++nontrivial;

    ConstraintClosure large =
        small.ExtendedBy(pump_large - pump_small, &closure_scratch);
    const int want_large = oracle::MaxCutVertexCoverOfClosure(large);
    EXPECT_EQ(MaxCutVertexCoverOfClosure(large, &cover_scratch), want_large);
  }
  // The generator must exercise the matching, not just empty graphs.
  EXPECT_GT(consistent, 100);
  EXPECT_GT(nontrivial, 50);
}

// --- hand-built edge cases ---

// One state, one transition of type `guard` (plus an optional x1 ≠ x1
// global constraint); the lasso repeats the transition.
struct OneLoop {
  ExtendedAutomaton era;
  ControlAlphabet alphabet;
  LassoWord word;
};

OneLoop MakeOneLoop(const Schema& schema, int registers,
                    void (*guard)(TypeBuilder&),
                    const char* neq_constraint = nullptr) {
  RegisterAutomaton a(registers, schema);
  StateId q = a.AddState("q");
  a.SetInitial(q);
  a.SetFinal(q);
  TypeBuilder b = a.NewGuardBuilder();
  guard(b);
  a.AddTransition(q, b.Build().value(), q);
  ExtendedAutomaton era(std::move(a));
  if (neq_constraint != nullptr) {
    RAV_CHECK(era.AddConstraintFromText(
                     RegisterPair{RegisterId(0), RegisterId(0)},
                     /*is_equality=*/false, neq_constraint)
                  .ok());
  }
  ControlAlphabet alphabet(era.automaton());
  LassoWord word{{}, {alphabet.SymbolOfTransition(0).value()}};
  return OneLoop{std::move(era), std::move(alphabet), std::move(word)};
}

int Sweep(const OneLoop& inst, size_t window) {
  ConstraintClosure closure(inst.era, inst.alphabet, inst.word, window);
  const int got = MaxCutVertexCoverOfClosure(closure);
  EXPECT_EQ(got, oracle::MaxCutVertexCoverOfClosure(closure))
      << "window " << window;
  return got;
}

TEST(CoverDiffTest, WindowsWithoutCuts) {
  // All-distinct: window 1 (the smallest a closure admits) has no cut;
  // window 2 has the one cut h = 0 with the single edge {0} - {1}.
  const ExtendedAutomaton all_distinct = testing::MakeAllDistinct();
  OneLoop inst{all_distinct, ControlAlphabet(all_distinct.automaton()),
               LassoWord{{}, {0}}};
  EXPECT_EQ(Sweep(inst, 1), 0);
  EXPECT_EQ(Sweep(inst, 2), 1);
}

TEST(CoverDiffTest, ClassesOnBothSidesOfDifferentCuts) {
  // All-distinct: every position's class is a right vertex at the cuts
  // before it and a left vertex at the cuts from it on, so the carried
  // matching must survive both departures and joins. The cover at the
  // middle cut is window / 2 (Example 17's growth).
  const ExtendedAutomaton all_distinct = testing::MakeAllDistinct();
  OneLoop inst{all_distinct, ControlAlphabet(all_distinct.automaton()),
               LassoWord{{}, {0}}};
  for (size_t window = 2; window <= 40; ++window) {
    EXPECT_EQ(Sweep(inst, window), static_cast<int>(window / 2));
  }
}

TEST(CoverDiffTest, ConstantClassesNeverCount) {
  // x1 ≠ c at every position, x1 fresh each step: every register class
  // has an edge to the constant's class, which has no register occurrence
  // and straddles every cut. No G^w_h edge survives.
  Schema schema;
  schema.AddConstant("c");
  OneLoop apart = MakeOneLoop(schema, 1, [](TypeBuilder& b) {
    b.AddNeq(b.X(0), b.Const(0));
  });
  for (size_t window : {2, 5, 12}) EXPECT_EQ(Sweep(apart, window), 0);

  // x1 = c throughout: the constant class holds every register occurrence
  // and an all-distinct constraint on x1 makes the closure inconsistent.
  OneLoop pinned = MakeOneLoop(
      schema, 1, [](TypeBuilder& b) { b.AddEq(b.X(0), b.Const(0)); },
      "q q+");
  EXPECT_EQ(Sweep(pinned, 6), -1);

  // x2 = c throughout, x1 fresh and ≠ x2: the constant class contains
  // register occurrences yet spans the window, so only x1's all-distinct
  // edges count.
  OneLoop mixed = MakeOneLoop(
      schema, 2,
      [](TypeBuilder& b) {
        b.AddEq(b.X(1), b.Const(0));
        b.AddNeq(b.X(0), b.X(1));
      },
      "q q+");
  for (size_t window : {2, 7, 16}) {
    EXPECT_EQ(Sweep(mixed, window), static_cast<int>(window / 2));
  }
}

TEST(CoverDiffTest, StraddlingEndpointsNeverCount) {
  // x1 and x2 both keep their value forever and differ: the one edge
  // joins two classes that straddle every cut.
  OneLoop both = MakeOneLoop(Schema(), 2, [](TypeBuilder& b) {
    b.AddEq(b.X(0), b.Y(0));
    b.AddEq(b.X(1), b.Y(1));
    b.AddNeq(b.X(0), b.X(1));
  });
  for (size_t window : {2, 3, 9}) EXPECT_EQ(Sweep(both, window), 0);

  // x1 keeps its value, x2 is fresh each step and ≠ x1: one endpoint of
  // every edge straddles.
  OneLoop one = MakeOneLoop(Schema(), 2, [](TypeBuilder& b) {
    b.AddEq(b.X(0), b.Y(0));
    b.AddNeq(b.X(0), b.X(1));
  });
  for (size_t window : {2, 3, 9}) EXPECT_EQ(Sweep(one, window), 0);

  // x1 lives two positions (x1 = y1 on alternate steps via a two-state
  // ring) and the inequality constraint makes those pairs all distinct:
  // each pair straddles the cut inside it, so edges are live on strict
  // sub-ranges of the cuts. ⌈window/2⌉ classes give cover ⌊(window+1)/4⌋.
  RegisterAutomaton a(1, Schema());
  StateId p = a.AddState("p");
  StateId q = a.AddState("q");
  a.SetInitial(p);
  a.SetFinal(p);
  TypeBuilder keep = a.NewGuardBuilder();
  keep.AddEq(keep.X(0), keep.Y(0));
  a.AddTransition(p, keep.Build().value(), q);
  a.AddTransition(q, a.NewGuardBuilder().Build().value(), p);
  ExtendedAutomaton era(std::move(a));
  RAV_CHECK(era.AddConstraintFromText(RegisterPair{RegisterId(0),
                                                   RegisterId(0)},
                                      /*is_equality=*/false, "p q (p q)* p")
                .ok());
  ControlAlphabet alphabet(era.automaton());
  OneLoop pairs{era, alphabet,
                LassoWord{{},
                          {alphabet.SymbolOfTransition(0).value(),
                           alphabet.SymbolOfTransition(1).value()}}};
  EXPECT_EQ(Sweep(pairs, 2), 0);  // the one pair straddles h = 0
  for (size_t window = 3; window <= 20; ++window) {
    EXPECT_EQ(Sweep(pairs, window), static_cast<int>((window + 1) / 4));
  }
}

TEST(CoverDiffTest, FreedLeftClassesAreReaugmented) {
  // A chain p0 -> ... -> p9 (p9 loops) of empty types with two
  // registers, so every register occurrence is its own class; inequality
  // constraints anchored at single states place the edges
  //   l1 = (0, x1): rA = (9, x1), rB = (8, x1)
  //   l2 = (0, x2): rA, rC = (1, x1)
  //   l3 = (2, x1): rD = (7, x1).
  // At h = 0, l1 takes rA (latest departure first) and l2 takes rC. At
  // h = 1 rC departs and frees l2, which must re-augment through
  // l2 - rA - l1 - rB; at h = 2 l3 joins and takes rD: cover 3. A sweep
  // that never re-augments freed left classes stops at 2.
  RegisterAutomaton a(2, Schema());
  for (int i = 0; i < 10; ++i) a.AddState("p" + std::to_string(i));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(9));
  const Type empty = a.NewGuardBuilder().Build().value();
  for (int i = 0; i < 10; ++i) {
    a.AddTransition(StateId(i), empty, StateId(std::min(i + 1, 9)));
  }
  ExtendedAutomaton era(std::move(a));
  const RegisterPair x1x1{RegisterId(0), RegisterId(0)};
  const RegisterPair x2x1{RegisterId(1), RegisterId(0)};
  RAV_CHECK(era.AddConstraintFromText(x1x1, false, "p0 .* p9").ok());
  RAV_CHECK(era.AddConstraintFromText(x1x1, false, "p0 .* p8").ok());
  RAV_CHECK(era.AddConstraintFromText(x2x1, false, "p0 .* p9").ok());
  RAV_CHECK(era.AddConstraintFromText(x2x1, false, "p0 p1").ok());
  RAV_CHECK(era.AddConstraintFromText(x1x1, false, "p2 .* p7").ok());
  const ControlAlphabet alphabet(era.automaton());
  LassoWord word;
  for (int t = 0; t < 9; ++t) {
    word.prefix.push_back(alphabet.SymbolOfTransition(t).value());
  }
  word.cycle.push_back(alphabet.SymbolOfTransition(9).value());
  ConstraintClosure closure(era, alphabet, word, 10);
  ASSERT_TRUE(closure.consistent());
  EXPECT_EQ(closure.InequalityEdges().size(), 5u);
  EXPECT_EQ(oracle::MaxCutVertexCoverOfClosure(closure), 3);
  EXPECT_EQ(MaxCutVertexCoverOfClosure(closure), 3);
}

// --- the whole sampler ---

// EstimateLrBound's fold with the oracle cover, serial.
LrBoundResult OracleLrBound(const ExtendedAutomaton& era,
                            const ControlAlphabet& alphabet,
                            const LrBoundOptions& options) {
  const size_t pump_small =
      2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
  const size_t pump_large = 2 * pump_small;
  LassoSearchOptions search;
  search.max_lasso_length = options.max_lasso_length;
  search.max_lassos = options.max_lassos;
  search.max_search_steps = options.max_search_steps;
  search.num_workers = 1;
  LrBoundResult result;
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) {
    const LassoWord& lasso = candidate.word;
    ConstraintClosure small(era, alphabet, lasso,
                            lasso.prefix.size() +
                                lasso.cycle.size() * pump_small,
                            &counters.scratch);
    const int cover_small = oracle::MaxCutVertexCoverOfClosure(small);
    if (cover_small < 0) return LassoVerdict::kInconsistent;
    ConstraintClosure large =
        small.ExtendedBy(pump_large - pump_small, &counters.scratch);
    const int cover_large = oracle::MaxCutVertexCoverOfClosure(large);
    result.max_cover = std::max(result.max_cover, cover_small);
    if (cover_large > cover_small) result.growth_detected = true;
    return LassoVerdict::kReject;
  };
  const LassoSearchOutcome outcome =
      SearchLassos(BuildSControlNba(era.automaton(), alphabet), search,
                   evaluate);
  result.lassos_examined = outcome.stats.lassos_checked;
  result.stats = outcome.stats;
  return result;
}

TEST(CoverDiffTest, SamplerMatchesOracleFoldAtEveryWorkerCount) {
  std::mt19937 rng(7);
  int growth = 0;
  for (int iteration = 0; iteration < 12; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    const ExtendedAutomaton era = RandomEra(rng);
    const ControlAlphabet alphabet(era.automaton());
    LrBoundOptions options;
    options.max_lassos = 16;
    options.max_lasso_length = 6;
    options.analyze_and_strip = false;
    const LrBoundResult want = OracleLrBound(era, alphabet, options);
    growth += want.growth_detected ? 1 : 0;
    for (int workers : {1, 2, 4}) {
      options.num_workers = workers;
      auto got = EstimateLrBound(era, alphabet, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->max_cover, want.max_cover) << workers << " workers";
      EXPECT_EQ(got->growth_detected, want.growth_detected)
          << workers << " workers";
      EXPECT_EQ(got->lassos_examined, want.lassos_examined)
          << workers << " workers";
      EXPECT_EQ(got->stats.stop_reason, want.stats.stop_reason)
          << workers << " workers";
    }
  }
  EXPECT_GT(growth, 0);
}

}  // namespace
}  // namespace rav

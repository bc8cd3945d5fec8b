// Differential tests of the constraint-closure kernel against the
// reference closure (tests/oracle/closure_oracle), including ExtendedBy
// against a from-scratch build and the drain-shaped probe windows of the
// emptiness search. Kernel and oracle must agree on every observable:
// consistency, the class assignment of every node, adom membership, and
// the deduplicated inequality edge set — whichever of them is read first.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "automata/nba.h"
#include "base/numbers.h"
#include "era/constraint_graph.h"
#include "io/text_format.h"
#include "oracle/closure_oracle.h"
#include "ra/control.h"
#include "ra/random.h"

namespace rav {
namespace {

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

struct RandomInstance {
  ExtendedAutomaton era;
  ControlAlphabet alphabet;
  LassoWord word;
};

RandomInstance MakeInstance(std::mt19937& rng) {
  RandomAutomatonOptions options;
  std::uniform_int_distribution<int> reg_dist(1, 3);
  options.num_registers = reg_dist(rng);
  std::uniform_int_distribution<int> state_dist(2, 4);
  options.num_states = state_dist(rng);
  options.num_transitions = 2 * options.num_states;
  if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
    options.schema.AddConstant("c0");
    if (std::uniform_int_distribution<int>(0, 1)(rng) == 1) {
      options.schema.AddConstant("c1");
    }
  }
  RegisterAutomaton a = RandomAutomaton(rng, options);
  const int num_states = a.num_states();
  const int k = a.num_registers();
  ExtendedAutomaton era(std::move(a));
  std::uniform_int_distribution<int> num_constraints_dist(1, 4);
  std::uniform_int_distribution<int> reg_pick(0, k - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const int nc = num_constraints_dist(rng);
  for (int c = 0; c < nc; ++c) {
    const RegisterPair regs{RegisterId(reg_pick(rng)),
                            RegisterId(reg_pick(rng))};
    EXPECT_TRUE(era.AddConstraintDfa(regs, /*is_equality=*/coin(rng) == 1,
                                     RandomConstraintDfa(rng, num_states))
                    .ok());
  }
  ControlAlphabet alphabet(era.automaton());
  // The closure does not require the word to follow the transition
  // relation, so any symbol sequence exercises it.
  std::uniform_int_distribution<int> symbol_dist(0, alphabet.size() - 1);
  LassoWord word;
  std::uniform_int_distribution<int> prefix_len(0, 3);
  std::uniform_int_distribution<int> cycle_len(1, 4);
  const int np = prefix_len(rng);
  const int nv = cycle_len(rng);
  for (int i = 0; i < np; ++i) word.prefix.push_back(symbol_dist(rng));
  for (int i = 0; i < nv; ++i) word.cycle.push_back(symbol_dist(rng));
  return RandomInstance{std::move(era), std::move(alphabet),
                        std::move(word)};
}

void ExpectSameClosure(const ConstraintClosure& got,
                       const oracle::ReferenceClosure& want) {
  ASSERT_EQ(got.window(), want.window());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.consistent(), want.consistent());
  ASSERT_EQ(got.num_classes(), want.num_classes());
  for (int v = 0; v < got.num_nodes(); ++v) {
    EXPECT_EQ(got.ClassOf(v), want.ClassOf(v)) << "node " << v;
  }
  for (int c = 0; c < got.num_classes(); ++c) {
    EXPECT_EQ(got.ClassInAdom(c), want.ClassInAdom(c)) << "class " << c;
  }
  EXPECT_EQ(got.InequalityEdges(), want.InequalityEdges());
  EXPECT_EQ(got.NumAdomClasses(), want.NumAdomClasses());
}

oracle::ReferenceClosure Oracle(const RandomInstance& inst, size_t window) {
  return oracle::ReferenceConstraintClosure(inst.era, inst.alphabet,
                                            inst.word, window);
}

TEST(ClosureDiffTest, KernelMatchesOracleOnRandomInstances) {
  std::mt19937 rng(20260806);
  ClosureScratch scratch;  // shared across iterations, like a search worker
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    std::uniform_int_distribution<size_t> window_dist(
        inst.word.prefix.size() + inst.word.cycle.size(), 40);
    const size_t window = window_dist(rng);
    ConstraintClosure closure(inst.era, inst.alphabet, inst.word, window,
                              &scratch);
    ExpectSameClosure(closure, Oracle(inst, window));
    // Without a scratch the closure owns its arrays; same answer.
    ConstraintClosure unpooled(inst.era, inst.alphabet, inst.word, window);
    ExpectSameClosure(unpooled, Oracle(inst, window));
  }
}

TEST(ClosureDiffTest, ExtendedByMatchesRebuild) {
  std::mt19937 rng(987654321);
  ClosureScratch scratch;
  for (int iteration = 0; iteration < 200; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    std::uniform_int_distribution<size_t> window_dist(
        inst.word.prefix.size() + inst.word.cycle.size(), 25);
    std::uniform_int_distribution<size_t> extra_dist(0, 4);
    const size_t window = window_dist(rng);
    const size_t extra_cycles = extra_dist(rng);
    const size_t wider_window =
        window + extra_cycles * inst.word.cycle.size();
    const oracle::ReferenceClosure want = Oracle(inst, wider_window);

    ConstraintClosure base(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    ConstraintClosure extended = base.ExtendedBy(extra_cycles, &scratch);
    ExpectSameClosure(extended, want);
    ConstraintClosure rebuilt(inst.era, inst.alphabet, inst.word,
                              wider_window, &scratch);
    ExpectSameClosure(rebuilt, want);
    // The copy left the base untouched, and growing the base in place
    // agrees with the copy.
    ExpectSameClosure(base, Oracle(inst, window));
    ConstraintClosure grown =
        std::move(base).ExtendedBy(extra_cycles, &scratch);
    ExpectSameClosure(grown, want);
  }
}

TEST(ClosureDiffTest, InconsistencyPersistsInWiderWindows) {
  // The emptiness search refutes a candidate on a short probe window
  // before the full pump: every equality and inequality of a window is
  // also in every wider window of the same word.
  std::mt19937 rng(20261017);
  ClosureScratch scratch;
  int refuted = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    std::uniform_int_distribution<size_t> window_dist(1, 30);
    const size_t narrow = window_dist(rng);
    const size_t wide = narrow + window_dist(rng);
    ConstraintClosure small(inst.era, inst.alphabet, inst.word, narrow,
                            &scratch);
    ConstraintClosure large(inst.era, inst.alphabet, inst.word, wide,
                            &scratch);
    if (!small.consistent()) {
      ++refuted;
      EXPECT_FALSE(large.consistent()) << "iteration " << iteration;
    }
  }
  EXPECT_GT(refuted, 0);
}

TEST(ClosureDiffTest, ExtendingTwiceMatchesExtendingOnce) {
  std::mt19937 rng(424242);
  ClosureScratch scratch;
  for (int iteration = 0; iteration < 50; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    const size_t window =
        inst.word.prefix.size() + 2 * inst.word.cycle.size();
    ConstraintClosure base(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    ConstraintClosure twice =
        base.ExtendedBy(1, &scratch).ExtendedBy(2, &scratch);
    ConstraintClosure once = base.ExtendedBy(3, &scratch);
    const oracle::ReferenceClosure want =
        Oracle(inst, window + 3 * inst.word.cycle.size());
    ExpectSameClosure(twice, want);
    ExpectSameClosure(once, want);
  }
}

// Extending a refuted closure keeps it refuted (the contradiction is in
// every wider window), and its canonical form, read after the extension,
// is that of a build at the wider window.
TEST(ClosureDiffTest, ExtendedRefutedClosureMatchesRebuild) {
  std::mt19937 rng(20261020);
  ClosureScratch scratch;
  int refuted = 0;
  for (int iteration = 0; iteration < 300; ++iteration) {
    RandomInstance inst = MakeInstance(rng);
    const size_t window = inst.word.prefix.size() + inst.word.cycle.size();
    ConstraintClosure base(inst.era, inst.alphabet, inst.word, window,
                           &scratch);
    if (base.consistent()) continue;
    ++refuted;
    ConstraintClosure extended = std::move(base).ExtendedBy(2, &scratch);
    EXPECT_FALSE(extended.consistent()) << "iteration " << iteration;
    ExpectSameClosure(extended,
                      Oracle(inst, window + 2 * inst.word.cycle.size()));
  }
  EXPECT_GT(refuted, 0);
}

// --- The emptiness search's drain, closure by closure ---------------------

// The shift rings of the serving benchmark's search_drain workload (and
// E6): k registers over n states, x_i = y_{i+1} on every ring edge, plus
// skip edges s -> s+2 that also assert x1 = y1. `contradictory` adds an
// equality and an inequality constraint over every s0 ... s0 factor;
// otherwise two inequality constraints cross the ring.
ExtendedAutomaton DrainRing(int k, int n, bool contradictory) {
  std::string shift;
  for (int i = 1; i < k; ++i) {
    shift += IndexedName("x", i) + " = " + IndexedName("y", i + 1) + "  ";
  }
  std::string t = "automaton {\n  registers " + std::to_string(k) + "\n";
  t += "  state s0 initial final\n";
  for (int s = 1; s < n; ++s) t += "  state " + IndexedName("s", s) + "\n";
  for (int s = 0; s < n; ++s) {
    t += "  transition " + IndexedName("s", s) + " -> " +
         IndexedName("s", (s + 1) % n) + " { " + shift + "}\n";
    t += "  transition " + IndexedName("s", s) + " -> " +
         IndexedName("s", (s + 2) % n) + " { " + shift + "x1 = y1 }\n";
  }
  if (contradictory) {
    t += "  constraint eq 1 1 \"s0 .* s0\"\n";
    t += "  constraint neq 1 1 \"s0 .* s0\"\n";
  } else {
    for (int a = 0; a < 2; ++a) {
      t += "  constraint neq 1 1 \"" + IndexedName("s", a) + " .* " +
           IndexedName("s", a + n / 2) + "\"\n";
    }
  }
  t += "}\n";
  Result<ExtendedAutomaton> era = ParseExtendedAutomaton(t);
  RAV_CHECK(era.ok());
  return std::move(*era);
}

// Every 8th of the first 320 accepting lassos of the ring's SControl, at
// every window from 1 to two cycles past the prefix (the probe window),
// then at every further cycle up to the full pump. Half the closures are
// read edges-first, half consistent()-first, so neither order can lean
// on the other having canonicalized. Returns how many were refuted.
int DiffDrain(const ExtendedAutomaton& era) {
  ControlAlphabet alphabet(era.automaton());
  const Nba scontrol = BuildSControlNba(era.automaton(), alphabet);
  const size_t pump = SuggestedPumpCount(era);
  LassoEnumerator enumerator(scontrol, 12, 320, 500000);
  ClosureScratch scratch;
  LassoWord lasso;
  size_t index = 0;
  int closures = 0;
  int refuted = 0;
  while (enumerator.Next(&lasso, &index)) {
    if (index % 8 != 0) continue;
    const size_t probe = lasso.prefix.size() + 2 * lasso.cycle.size();
    std::vector<size_t> windows;
    for (size_t w = 1; w <= probe; ++w) windows.push_back(w);
    for (size_t c = 3; c <= pump; ++c) {
      windows.push_back(lasso.prefix.size() + c * lasso.cycle.size());
    }
    for (size_t window : windows) {
      const oracle::ReferenceClosure want =
          oracle::ReferenceConstraintClosure(era, alphabet, lasso, window);
      ConstraintClosure got(era, alphabet, lasso, window, &scratch);
      if (closures++ % 2 == 0) {
        EXPECT_EQ(got.InequalityEdges(), want.InequalityEdges())
            << "lasso " << index << " window " << window;
      }
      EXPECT_EQ(got.consistent(), want.consistent())
          << "lasso " << index << " window " << window;
      refuted += !got.consistent();
      ExpectSameClosure(got, want);
    }
  }
  EXPECT_GT(closures, 0);
  return refuted;
}

TEST(ClosureDiffTest, ContradictoryDrainRingsMatchOracle) {
  for (int n = 3; n <= 6; ++n) {
    EXPECT_GT(DiffDrain(DrainRing(3, n, true)), 0) << n << " states";
  }
}

TEST(ClosureDiffTest, CrossNeqRingsMatchOracle) {
  for (int k = 2; k <= 4; ++k) DiffDrain(DrainRing(k, 3, false));
}

}  // namespace
}  // namespace rav

// Differential tests of the frontier-class SControl builder
// (BuildSControlNba) against the pairwise reference in
// tests/oracle/scontrol_oracle: the two NBAs must be identical — state
// count, initial set, accepting set, and every per-state transition list
// in order — under both guard engines, on random complete and incomplete
// automata (with schema constants and relations), on the refined
// automata VerifyLtlFo builds, and on completed shift rings.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/numbers.h"
#include "era/ltlfo.h"
#include "oracle/scontrol_oracle.h"
#include "ra/control.h"
#include "ra/random.h"
#include "ra/transform.h"
#include "test_util.h"

namespace rav {
namespace {

constexpr compile::GuardEngine kEngines[] = {
    compile::GuardEngine::kInterpreted, compile::GuardEngine::kCompiled};

void ExpectSameNba(const Nba& got, const Nba& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  EXPECT_EQ(got.alphabet_size(), want.alphabet_size());
  EXPECT_EQ(got.initial(), want.initial());
  for (int s = 0; s < want.num_states(); ++s) {
    SCOPED_TRACE(::testing::Message() << "nba state " << s);
    EXPECT_EQ(got.IsAccepting(s), want.IsAccepting(s));
    EXPECT_EQ(got.TransitionsFrom(s), want.TransitionsFrom(s));
  }
}

// Production against the oracle under both engines; returns the number
// of NBA transitions (so callers can check the instances are not
// trivial).
int ExpectMatchesOracle(const RegisterAutomaton& a) {
  int transitions = 0;
  for (compile::GuardEngine engine : kEngines) {
    SCOPED_TRACE(compile::GuardEngineName(engine));
    const ControlAlphabet alphabet(a, engine);
    EXPECT_EQ(alphabet.guard_engine(), engine);
    const Nba want = oracle::ReferenceBuildSControlNba(a, alphabet);
    ExpectSameNba(BuildSControlNba(a, alphabet), want);
    transitions = want.num_transitions();
  }
  return transitions;
}

// Binary relations make completion explode, so completed subjects draw
// without them.
Schema RandomSchema(std::mt19937& rng, bool binary_relation) {
  Schema schema;
  std::uniform_int_distribution<int> coin(0, 1);
  if (coin(rng) == 1) schema.AddConstant("c0");
  if (coin(rng) == 1) schema.AddConstant("c1");
  if (coin(rng) == 1) schema.AddRelation("R", 1);
  if (binary_relation && coin(rng) == 1) schema.AddRelation("E", 2);
  return schema;
}

RegisterAutomaton RandomSubject(std::mt19937& rng, int max_registers,
                                bool binary_relation = true) {
  RandomAutomatonOptions options;
  options.num_registers =
      std::uniform_int_distribution<int>(1, max_registers)(rng);
  options.num_states = std::uniform_int_distribution<int>(1, 5)(rng);
  options.num_transitions =
      options.num_states * std::uniform_int_distribution<int>(1, 4)(rng);
  options.literal_attempts = std::uniform_int_distribution<int>(0, 5)(rng);
  options.schema = RandomSchema(rng, binary_relation);
  return RandomAutomaton(rng, options);
}

TEST(SControlDiffTest, IncompleteRandomAutomata) {
  std::mt19937 rng(20261017);
  int nontrivial = 0;
  for (int iteration = 0; iteration < 600; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    const RegisterAutomaton a = RandomSubject(rng, 4);
    if (ExpectMatchesOracle(a) > a.num_transitions()) ++nontrivial;
  }
  // Most instances have some previous-symbol edges beyond the initial
  // ones — the compatibility test actually ran.
  EXPECT_GT(nontrivial, 300);
}

TEST(SControlDiffTest, CompletedRandomAutomata) {
  std::mt19937 rng(7);
  int completed = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    const RegisterAutomaton a =
        RandomSubject(rng, 2, /*binary_relation=*/false);
    Result<RegisterAutomaton> complete = Completed(a, 256);
    if (!complete.ok()) continue;  // too rich to complete cheaply
    ASSERT_TRUE(complete->IsComplete());
    ExpectMatchesOracle(*complete);
    ++completed;
  }
  EXPECT_GT(completed, 120);
}

TEST(SControlDiffTest, RefinedAutomataOfLtlFo) {
  std::mt19937 rng(42);
  int refined_count = 0;
  for (int iteration = 0; iteration < 200; ++iteration) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration);
    RegisterAutomaton a = RandomSubject(rng, 3);
    const int two_k = 2 * a.num_registers();
    std::uniform_int_distribution<int> var(0, two_k - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    std::vector<Formula> propositions;
    const int num_props = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int p = 0; p < num_props; ++p) {
      const Term lhs = Term::Var(var(rng));
      const Term rhs = Term::Var(var(rng));
      propositions.push_back(coin(rng) == 1 ? Formula::Eq(lhs, rhs)
                                            : Formula::Neq(lhs, rhs));
    }
    const ExtendedAutomaton era(std::move(a));
    Result<ExtendedAutomaton> refined =
        RefineForPropositions(era, propositions, nullptr);
    ASSERT_TRUE(refined.ok()) << refined.status().ToString();
    ExpectMatchesOracle(refined->automaton());
    ++refined_count;
  }
  EXPECT_EQ(refined_count, 200);
}

// A k-register shift ring over n states (x_i = y_{i+1} on every edge),
// the spec family the decision service serves.
RegisterAutomaton ShiftRing(int k, int n) {
  RegisterAutomaton a(k, Schema());
  for (int s = 0; s < n; ++s) a.AddState(IndexedName("s", s));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int s = 0; s < n; ++s) {
    TypeBuilder b = a.NewGuardBuilder();
    for (int i = 0; i + 1 < k; ++i) b.AddEq(b.X(i), b.Y(i + 1));
    a.AddTransition(StateId(s), b.Build().value(), StateId((s + 1) % n));
  }
  return a;
}

TEST(SControlDiffTest, CompletedShiftRings) {
  for (int k = 1; k <= 4; ++k) {
    for (int n = 1; n <= 3; ++n) {
      SCOPED_TRACE(::testing::Message() << "ring k=" << k << " n=" << n);
      Result<RegisterAutomaton> ring = Completed(ShiftRing(k, n));
      ASSERT_TRUE(ring.ok()) << ring.status().ToString();
      EXPECT_GT(ExpectMatchesOracle(*ring), ring->num_transitions());
    }
  }
}

TEST(SControlDiffTest, HandBuiltAutomata) {
  // Example 1 (complete after completion) and an automaton with no
  // transitions at all: no symbols, so no frontier classes.
  ExpectMatchesOracle(Completed(testing::MakeExample1()).value());
  RegisterAutomaton bare(2, Schema());
  bare.AddState("q");
  bare.SetInitial(StateId(0));
  bare.SetFinal(StateId(0));
  EXPECT_EQ(ExpectMatchesOracle(bare), 0);
}

TEST(SControlDiffTest, TablesCountFrontierClasses) {
  // The frontier class tables are part of the governor-charged bytes.
  const RegisterAutomaton ring = Completed(ShiftRing(4, 3)).value();
  const ControlAlphabet alphabet(ring, compile::GuardEngine::kCompiled);
  const compile::GuardTableSet& tables = *alphabet.tables();
  const compile::FrontierClasses& classes = tables.frontier();
  EXPECT_LT(classes.num_x_classes(), tables.num_guards());
  EXPECT_LT(classes.num_y_classes(), tables.num_guards());
  EXPECT_GE(classes.bytes(), static_cast<size_t>(classes.num_x_classes()) *
                                classes.num_y_classes());
  EXPECT_GT(tables.table_bytes(), classes.bytes());
  EXPECT_EQ(alphabet.guard_table_bytes(), tables.table_bytes());
  for (GuardId before : tables.GuardIds()) {
    for (GuardId after : tables.GuardIds()) {
      EXPECT_EQ(tables.Compatible(before, after),
                tables.y_restricted_as_x(before)
                    .Conjoin(tables.x_restricted(after))
                    .ok());
    }
  }
}

}  // namespace
}  // namespace rav

// E13 — Theorem 24: hiding the database.
// Claim: the enhanced-automaton construction (equality + tuple-inequality
// + finiteness constraints) is polynomial in the state-driven automaton
// for a fixed schema. Counters: constraint counts and sizes on Example 23
// and on growing chain variants.

#include <benchmark/benchmark.h>

#include "base/numbers.h"
#include "bench_common.h"

#include "enhanced/theorem24.h"
#include "ra/register_automaton.h"

namespace rav {
namespace {

RegisterAutomaton MakeExample23() {
  Schema s;
  RelationId e = s.AddRelation("E", 2);
  RelationId u = s.AddRelation("U", 1);
  RegisterAutomaton a(2, s);
  StateId p = a.AddState("p");
  StateId q = a.AddState("q");
  a.SetInitial(p);
  a.SetFinal(p);
  TypeBuilder d1 = a.NewGuardBuilder();
  d1.AddEq(d1.X(1), d1.Y(1));
  d1.AddAtom(u, {d1.X(0)}, true);
  d1.AddAtom(e, {d1.X(1), d1.X(0)}, true);
  a.AddTransition(p, d1.Build().value(), q);
  TypeBuilder d2 = a.NewGuardBuilder();
  d2.AddEq(d2.X(1), d2.Y(1));
  d2.AddAtom(u, {d2.X(0)}, true);
  d2.AddAtom(e, {d2.X(1), d2.X(0)}, false);
  a.AddTransition(q, d2.Build().value(), p);
  return a;
}

// A cycle of `phases` states alternating E-assertions and denials.
RegisterAutomaton MakePhaseCycle(int phases) {
  Schema s;
  RelationId e = s.AddRelation("E", 2);
  RegisterAutomaton a(2, s);
  for (int i = 0; i < phases; ++i) a.AddState(IndexedName("s", i));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  for (int i = 0; i < phases; ++i) {
    TypeBuilder d = a.NewGuardBuilder();
    d.AddEq(d.X(1), d.Y(1));
    d.AddAtom(e, {d.X(1), d.X(0)}, i % 2 == 0);
    a.AddTransition(StateId(i), d.Build().value(), StateId((i + 1) % phases));
  }
  return a;
}

void BM_Theorem24Example23(benchmark::State& state) {
  RegisterAutomaton a = MakeExample23();
  Theorem24Stats stats;
  for (auto _ : state) {
    auto enhanced = ProjectWithHiddenDatabase(a, 1, &stats);
    RAV_CHECK(enhanced.ok());
    benchmark::DoNotOptimize(enhanced);
  }
  state.counters["equality"] = stats.num_equality_constraints;
  state.counters["inequality"] = stats.num_inequality_constraints;
  state.counters["tuple"] = stats.num_tuple_constraints;
  state.counters["finiteness"] = stats.num_finiteness_constraints;
  state.counters["skipped"] = stats.skipped_literal_pairs;
}
BENCHMARK(BM_Theorem24Example23);

void BM_Theorem24PhaseCycle(benchmark::State& state) {
  const int phases = static_cast<int>(state.range(0));
  RegisterAutomaton a = MakePhaseCycle(phases);
  Theorem24Stats stats;
  for (auto _ : state) {
    auto enhanced = ProjectWithHiddenDatabase(a, 1, &stats);
    RAV_CHECK(enhanced.ok());
    benchmark::DoNotOptimize(enhanced);
  }
  state.counters["phases"] = phases;
  state.counters["tuple"] = stats.num_tuple_constraints;
  state.counters["sd_states"] = stats.state_driven_states;
}
BENCHMARK(BM_Theorem24PhaseCycle)->DenseRange(2, 8, 2);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E13", "Theorem 24: with the database hidden, enhanced automata (equality + tuple inequality + finiteness constraints) capture the projection views.")

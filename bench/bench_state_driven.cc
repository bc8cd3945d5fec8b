// E2 — State-driven conversion blow-up (Section 2, Example 3).
// Claim: the conversion multiplies states by the number of distinct
// guards (quadratic in the automaton size in the worst case).
// Counters: states_in, states_out, transitions_out.

#include <benchmark/benchmark.h>

#include "base/numbers.h"
#include "bench_common.h"
#include "ra/transform.h"

namespace rav {
namespace {

// An automaton with `s` states and `g` distinct guards usable everywhere.
RegisterAutomaton MakeDenseAutomaton(int s, int g) {
  RegisterAutomaton a(2, Schema());
  for (int i = 0; i < s; ++i) a.AddState(IndexedName("s", i));
  a.SetInitial(StateId(0));
  a.SetFinal(StateId(0));
  std::vector<Type> guards;
  for (int i = 0; i < g; ++i) {
    TypeBuilder b = a.NewGuardBuilder();
    // Distinct guards: vary which pair is equated.
    switch (i % 4) {
      case 0: b.AddEq(b.X(0), b.Y(0)); break;
      case 1: b.AddEq(b.X(1), b.Y(1)); break;
      case 2: b.AddEq(b.X(0), b.Y(1)); break;
      case 3: b.AddEq(b.X(1), b.Y(0)); break;
    }
    if (i >= 4) b.AddNeq(b.X(0), b.X(1));
    guards.push_back(b.Build().value());
  }
  for (int i = 0; i < s; ++i) {
    for (int j = 0; j < g; ++j) {
      a.AddTransition(StateId(i), guards[j], StateId((i + 1 + j) % s));
    }
  }
  return a;
}

void BM_MakeStateDriven(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  const int g = static_cast<int>(state.range(1));
  RegisterAutomaton a = MakeDenseAutomaton(s, g);
  int states_out = 0, transitions_out = 0;
  for (auto _ : state) {
    RegisterAutomaton sd = MakeStateDriven(a);
    states_out = sd.num_states();
    transitions_out = sd.num_transitions();
    benchmark::DoNotOptimize(sd);
  }
  state.counters["states_in"] = s;
  state.counters["guards"] = g;
  state.counters["states_out"] = states_out;
  state.counters["transitions_out"] = transitions_out;
}
BENCHMARK(BM_MakeStateDriven)
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Args({16, 8});

void BM_CompletedExample1(benchmark::State& state) {
  RegisterAutomaton a = bench::MakeExample1();
  int transitions_out = 0;
  for (auto _ : state) {
    auto completed = Completed(a);
    transitions_out = completed->num_transitions();
    benchmark::DoNotOptimize(completed);
  }
  state.counters["transitions_in"] = a.num_transitions();
  state.counters["transitions_out"] = transitions_out;
}
BENCHMARK(BM_CompletedExample1);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E2", "State-driven conversion (Example 3): quadratic blow-up, states become (state, guard) pairs and transitions grow with guards squared.")

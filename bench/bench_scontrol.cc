// E3 — Control = SControl ([19], re-proved in Theorem 9 stage one).
// Claim: for complete automata the symbolic control traces coincide with
// the control traces of real runs; the SControl NBA size scales with
// |Q| x |control symbols|.
// Counters: symbols, nba_states, nba_transitions, agreement (sampled
// control words of real lasso runs accepted by the NBA).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ra/control.h"
#include "ra/simulate.h"
#include "ra/transform.h"

namespace rav {
namespace {

// Args: {registers k, ring states n, state-driven}. The state-driven
// rungs scale the NBA (|Q| grows by the symbols per state); the
// 4-register rungs are the plain completed rings the decision service
// compiles as its emptiness subject, where frontier compatibility is the
// cost the classes remove (52 distinct guards, 15 x̄- and 15 ȳ-classes).
void BM_BuildSControl(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  RegisterAutomaton a = Completed(bench::MakeShiftRing(k, s)).value();
  if (state.range(2) != 0) a = MakeStateDriven(a);
  ControlAlphabet alphabet(a);
  int nba_states = 0, nba_transitions = 0;
  for (auto _ : state) {
    Nba nba = BuildSControlNba(a, alphabet);
    nba_states = nba.num_states();
    nba_transitions = nba.num_transitions();
    benchmark::DoNotOptimize(nba);
  }
  state.counters["symbols"] = alphabet.size();
  state.counters["nba_states"] = nba_states;
  state.counters["nba_transitions"] = nba_transitions;
  if (const compile::GuardTableSet* tables = alphabet.tables()) {
    state.counters["guards"] = tables->num_guards();
    state.counters["x_classes"] = tables->frontier().num_x_classes();
    state.counters["y_classes"] = tables->frontier().num_y_classes();
  }
}
BENCHMARK(BM_BuildSControl)
    ->Args({1, 2, 1})
    ->Args({2, 2, 1})
    ->Args({2, 4, 1})
    ->Args({3, 4, 1})
    ->Args({4, 2, 0})
    ->Args({4, 3, 0});

void BM_ControlWordsAccepted(benchmark::State& state) {
  // Every control word of a real lasso run lies in SControl (the easy
  // inclusion); `agreement` counts validated words per iteration.
  RegisterAutomaton a =
      MakeStateDriven(Completed(bench::MakeExample1()).value());
  ControlAlphabet alphabet(a);
  Nba scontrol = BuildSControlNba(a, alphabet);
  Database db{Schema()};
  int checked = 0;
  int accepted = 0;
  for (auto _ : state) {
    checked = 0;
    accepted = 0;
    EnumerateRuns(a, db, 4, {0, 1}, [&](const FiniteRun& run) {
      for (int ti : a.TransitionsFrom(run.states.back())) {
        const RaTransition& t = a.transition(ti);
        if (t.to != run.states[0]) continue;
        LassoRun lasso{run, 0, ti};
        if (!ValidateLassoRun(a, db, lasso).ok()) continue;
        ++checked;
        LassoWord w = ControlWordOfLassoRun(a, alphabet, lasso);
        accepted += scontrol.AcceptsLasso(w);
      }
      return true;
    });
    benchmark::DoNotOptimize(accepted);
  }
  state.counters["lassos_checked"] = checked;
  state.counters["lassos_accepted"] = accepted;
}
BENCHMARK(BM_ControlWordsAccepted);

}  // namespace
}  // namespace rav

RAV_BENCH_EXPERIMENT("E3", "Control = SControl ([19] / Theorem 9 stage one): symbolic control traces are exactly the control traces; SControl is omega-regular.")

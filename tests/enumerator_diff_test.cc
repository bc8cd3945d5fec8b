// Differential test of the production LassoEnumerator (automata/nba.h),
// whose node entry is O(1) from per-state occurrence records, against the
// path-scanning reference in tests/oracle/lasso_enumerator_oracle.h: on
// random NBAs, under every kind of clipping, both must deliver the same
// lassos in the same order with the same ranks, spend the same steps and
// stop for the same reason.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "automata/nba.h"
#include "base/numbers.h"
#include "oracle/lasso_enumerator_oracle.h"

namespace rav {
namespace {

Nba RandomNba(std::mt19937& rng) {
  const int alphabet = std::uniform_int_distribution<int>(1, 3)(rng);
  const int states = std::uniform_int_distribution<int>(1, 6)(rng);
  Nba nba(alphabet);
  for (int s = 0; s < states; ++s) nba.AddState();
  std::uniform_int_distribution<int> state(0, states - 1);
  std::uniform_int_distribution<int> symbol(0, alphabet - 1);
  std::bernoulli_distribution coin(0.4);
  for (int s = 0; s < states; ++s) nba.SetAccepting(s, coin(rng));
  nba.SetInitial(0);
  if (states > 1 && coin(rng)) nba.SetInitial(state(rng));
  const int edges = std::uniform_int_distribution<int>(states, 3 * states)(rng);
  for (int e = 0; e < edges; ++e) {
    nba.AddTransition(state(rng), symbol(rng), state(rng));
  }
  return nba;
}

// Drains both enumerators side by side.
void ExpectSameEnumeration(const Nba& nba, size_t max_length,
                           size_t max_count, size_t max_steps) {
  LassoEnumerator production(nba, max_length, max_count, max_steps);
  oracle::ReferenceLassoEnumerator reference(nba, max_length, max_count,
                                             max_steps);
  LassoWord got;
  LassoWord want;
  size_t got_index = 0;
  size_t want_index = 0;
  size_t rank = 0;
  for (;; ++rank) {
    const bool got_more = production.Next(&got, &got_index);
    const bool want_more = reference.Next(&want, &want_index);
    ASSERT_EQ(got_more, want_more) << "lasso " << rank;
    if (!got_more) break;
    ASSERT_EQ(got_index, want_index) << "lasso " << rank;
    ASSERT_EQ(got.prefix, want.prefix) << "lasso " << rank;
    ASSERT_EQ(got.cycle, want.cycle) << "lasso " << rank;
  }
  EXPECT_EQ(production.delivered(), reference.delivered());
  EXPECT_EQ(production.steps(), reference.steps());
  EXPECT_EQ(production.stop(), reference.stop());
}

TEST(EnumeratorDiff, MatchesReferenceOnRandomNbas) {
  std::mt19937 rng(20261020);
  constexpr size_t kUnbounded = 1000000;
  const size_t counts[] = {1, 7, 60, kUnbounded};
  const size_t steps[] = {1, 25, 400, kUnbounded};
  for (int iteration = 0; iteration < 300; ++iteration) {
    const Nba nba = RandomNba(rng);
    const size_t max_length = std::uniform_int_distribution<size_t>(1, 10)(rng);
    SCOPED_TRACE(IndexedName("iteration ", iteration));
    // Length clipping alone, then each other bound on top of it.
    ExpectSameEnumeration(nba, max_length, kUnbounded, kUnbounded);
    ExpectSameEnumeration(nba, max_length, counts[iteration % 4], kUnbounded);
    ExpectSameEnumeration(nba, max_length, kUnbounded, steps[iteration % 4]);
    ExpectSameEnumeration(nba, max_length, counts[(iteration / 4) % 4],
                          steps[iteration % 4]);
  }
}

// A dense automaton where every node entry closes several lassos at once:
// the closings' order inside one node is what the ranks pin down.
TEST(EnumeratorDiff, MatchesReferenceOnManyClosingsPerNode) {
  Nba nba(2);
  for (int s = 0; s < 3; ++s) {
    nba.AddState();
    nba.SetAccepting(s, s != 1);
  }
  nba.SetInitial(0);
  for (int s = 0; s < 3; ++s) {
    for (int t = 0; t < 3; ++t) {
      nba.AddTransition(s, (s + t) % 2, t);
    }
  }
  ExpectSameEnumeration(nba, 9, 1000000, 1000000);
  ExpectSameEnumeration(nba, 12, 5000, 500000);
}

}  // namespace
}  // namespace rav

// Tests of the shared-memory search mode (docs/search.md): the pooled
// state store and sharded interning set it is built on, the canonical
// lasso decomposition used as the interning key, the randomized
// differential against the partitioned reference engine (verdict, stop
// reason, witness validity), shared-mode determinism across worker
// counts, dedup effectiveness, and a governor memory-budget trip charged
// through the visited set.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "automata/lasso.h"
#include "base/concurrent_set.h"
#include "base/governor.h"
#include "base/numbers.h"
#include "base/state_pool.h"
#include "era/emptiness.h"
#include "ra/random.h"
#include "ra/transform.h"

namespace rav {
namespace {

// --- LassoWord::Canonicalized ---

TEST(LassoCanonicalTest, PrimitiveRootIsExtracted) {
  LassoWord word{.prefix = {}, .cycle = {1, 2, 1, 2, 1, 2}};
  LassoWord canonical = word.Canonicalized();
  EXPECT_TRUE(canonical.prefix.empty());
  EXPECT_EQ(canonical.cycle, (std::vector<int>{1, 2}));
}

TEST(LassoCanonicalTest, BoundaryRollsLeftIntoTheCycle) {
  // 0·(1 0)^ω spells 0 1 0 1 0 ... = (0 1)^ω.
  LassoWord word{.prefix = {0}, .cycle = {1, 0}};
  LassoWord canonical = word.Canonicalized();
  EXPECT_TRUE(canonical.prefix.empty());
  EXPECT_EQ(canonical.cycle, (std::vector<int>{0, 1}));
}

TEST(LassoCanonicalTest, CanonicalFormIsAFixedPoint) {
  LassoWord word{.prefix = {3, 1}, .cycle = {2, 2, 1}};
  LassoWord canonical = word.Canonicalized();
  EXPECT_EQ(canonical.Canonicalized(), canonical);
}

TEST(LassoCanonicalTest, EveryDecompositionOfAWordCanonicalizesEqually) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> symbol(0, 2);
  std::uniform_int_distribution<size_t> length(1, 4);
  for (int iteration = 0; iteration < 500; ++iteration) {
    LassoWord base;
    for (size_t i = length(rng); i > 0; --i) base.prefix.push_back(symbol(rng));
    for (size_t i = length(rng); i > 0; --i) base.cycle.push_back(symbol(rng));
    // Alternative decompositions of the same ω-word: pump the cycle
    // and/or unroll cycles into the prefix.
    LassoWord pumped = base.PumpCycle(1 + iteration % 3);
    LassoWord unrolled = base;
    for (int unroll = 0; unroll <= iteration % 3; ++unroll) {
      unrolled.prefix.insert(unrolled.prefix.end(), base.cycle.begin(),
                             base.cycle.end());
    }
    const LassoWord canonical = base.Canonicalized();
    EXPECT_EQ(pumped.Canonicalized(), canonical) << base.ToString();
    EXPECT_EQ(unrolled.Canonicalized(), canonical) << base.ToString();
    // The canonical form spells the same ω-word.
    EXPECT_EQ(canonical.Unroll(24), base.Unroll(24)) << base.ToString();
  }
}

// --- StatePool ---

TEST(StatePoolTest, StoresAndRetrievesRecords) {
  StatePool pool;
  StatePool::ThreadCache cache;
  const std::string a = "hello";
  const std::string b;  // empty records are legal
  StatePool::Handle ha = pool.Store(
      cache, reinterpret_cast<const uint8_t*>(a.data()), a.size());
  StatePool::Handle hb = pool.Store(cache, nullptr, 0);
  ASSERT_EQ(pool.Size(ha), a.size());
  EXPECT_EQ(std::memcmp(pool.Data(ha), a.data(), a.size()), 0);
  EXPECT_EQ(pool.Size(hb), b.size());
  EXPECT_EQ(pool.records(), 2u);
  // The payload word starts pending and round-trips a published value.
  EXPECT_EQ(pool.Payload(ha).load(), 0u);
  pool.Payload(ha).store(42);
  EXPECT_EQ(pool.Payload(ha).load(), 42u);
  EXPECT_EQ(pool.Payload(hb).load(), 0u);
}

TEST(StatePoolTest, OversizeRecordsGetDedicatedChunks) {
  StatePool pool(nullptr, /*chunk_bytes=*/256);
  StatePool::ThreadCache cache;
  std::vector<uint8_t> big(4096);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  StatePool::Handle small = pool.Store(cache, big.data(), 16);
  StatePool::Handle huge = pool.Store(cache, big.data(), big.size());
  ASSERT_EQ(pool.Size(huge), big.size());
  EXPECT_EQ(std::memcmp(pool.Data(huge), big.data(), big.size()), 0);
  ASSERT_EQ(pool.Size(small), 16u);
  EXPECT_EQ(std::memcmp(pool.Data(small), big.data(), 16), 0);
}

TEST(StatePoolTest, ChargesAndReleasesTheGovernor) {
  ExecutionGovernor governor;
  {
    StatePool pool(&governor);
    StatePool::ThreadCache cache;
    const uint8_t byte = 1;
    pool.Store(cache, &byte, 1);
    EXPECT_EQ(governor.live_bytes(), pool.bytes_reserved());
    EXPECT_GE(pool.bytes_reserved(), StatePool::kDefaultChunkBytes);
  }
  // Destroying the pool returns every charged byte.
  EXPECT_EQ(governor.live_bytes(), 0u);
}

TEST(StatePoolTest, ConcurrentStoresStayAddressable) {
  StatePool pool(nullptr, /*chunk_bytes=*/512);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<StatePool::Handle>> handles(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &pool, &handles] {
      StatePool::ThreadCache cache;
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct, recomputable payload per (thread, i).
        uint32_t value = static_cast<uint32_t>(t * kPerThread + i);
        handles[t].push_back(pool.Store(
            cache, reinterpret_cast<const uint8_t*>(&value), sizeof(value)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pool.records(), static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      uint32_t expected = static_cast<uint32_t>(t * kPerThread + i);
      ASSERT_EQ(pool.Size(handles[t][i]), sizeof(expected));
      uint32_t actual;
      std::memcpy(&actual, pool.Data(handles[t][i]), sizeof(actual));
      EXPECT_EQ(actual, expected);
    }
  }
}

// --- ConcurrentSet ---

TEST(ConcurrentSetTest, InternsDeduplicate) {
  StatePool pool;
  ConcurrentSet set(&pool);
  StatePool::ThreadCache cache;
  const std::string key = "configuration";
  auto first = set.Intern(
      cache, reinterpret_cast<const uint8_t*>(key.data()), key.size());
  auto second = set.Intern(
      cache, reinterpret_cast<const uint8_t*>(key.data()), key.size());
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.handle, second.handle);
  EXPECT_EQ(set.size(), 1u);
}

TEST(ConcurrentSetTest, GrowthKeepsEveryKeyFindable) {
  StatePool pool;
  ExecutionGovernor governor;
  ConcurrentSet set(&pool, &governor, /*num_shards=*/2);
  StatePool::ThreadCache cache;
  std::vector<StatePool::Handle> handles;
  for (uint32_t i = 0; i < 5000; ++i) {
    auto r = set.Intern(cache, reinterpret_cast<const uint8_t*>(&i),
                        sizeof(i));
    EXPECT_TRUE(r.inserted);
    handles.push_back(r.handle);
  }
  EXPECT_EQ(set.size(), 5000u);
  // Growth happened (2 shards × 64 initial slots << 5000 keys) and was
  // charged to the governor along with the pool's chunks.
  EXPECT_EQ(governor.live_bytes(), set.bytes_reserved());
  for (uint32_t i = 0; i < 5000; ++i) {
    auto r = set.Intern(cache, reinterpret_cast<const uint8_t*>(&i),
                        sizeof(i));
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.handle, handles[i]);
  }
}

TEST(ConcurrentSetTest, ConcurrentInternsAgreeOnHandles) {
  StatePool pool;
  ConcurrentSet set(&pool);
  constexpr int kThreads = 4;
  constexpr uint32_t kKeys = 3000;
  // Every thread interns every key; all threads must see one handle per
  // key and exactly kKeys distinct entries survive.
  std::vector<std::vector<StatePool::Handle>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &set, &seen] {
      StatePool::ThreadCache cache;
      for (uint32_t i = 0; i < kKeys; ++i) {
        seen[t].push_back(
            set.Intern(cache, reinterpret_cast<const uint8_t*>(&i), sizeof(i))
                .handle);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(set.size(), static_cast<size_t>(kKeys));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

// --- Shared vs partitioned differential on random ERAs ---

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

// Schema-free (no relational signature): the emptiness verdict of such
// an automaton is a function of the ω-word alone — exactly the contract
// kSharedVisited relies on when it reuses a verdict across
// decompositions.
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

TEST(SharedSearchDifferentialTest, AgreesWithThePartitionedEngine) {
  std::mt19937 rng(20260809);
  size_t nonempty_seen = 0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    ExtendedAutomaton era = RandomCompleteEra(rng);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions partitioned;
    partitioned.max_lassos = 200;
    partitioned.max_search_steps = 20000;
    auto baseline = CheckEraEmptiness(era, alphabet, partitioned);
    ASSERT_TRUE(baseline.ok());

    EraEmptinessOptions shared = partitioned;
    shared.search_mode = SearchMode::kSharedVisited;
    shared.num_workers = 1 + iteration % 4;
    auto result = CheckEraEmptiness(era, alphabet, shared);
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(result->nonempty, baseline->nonempty) << "iter " << iteration;
    EXPECT_EQ(result->stats.stop_reason, baseline->stats.stop_reason)
        << "iter " << iteration;
    EXPECT_EQ(result->search_truncated, baseline->search_truncated)
        << "iter " << iteration;
    if (baseline->nonempty) {
      ++nonempty_seen;
      // The shared witness may be spelled canonically; it must denote
      // the same realizable language membership — validate it outright.
      const LassoWord& word = result->control_word;
      const size_t window =
          word.prefix.size() + word.cycle.size() * SuggestedPumpCount(era);
      auto witness = RealizeEraWitness(era, alphabet, word, window);
      EXPECT_TRUE(witness.ok())
          << "iter " << iteration << ": " << witness.status().ToString();
      // And it is the canonical spelling of the partitioned witness.
      EXPECT_EQ(word.ToString(),
                baseline->control_word.Canonicalized().ToString())
          << "iter " << iteration;
    }
  }
  // The generator must exercise both verdicts for the diff to mean much.
  EXPECT_GT(nonempty_seen, 10u);
  EXPECT_LT(nonempty_seen, 90u);
}

TEST(SharedSearchDifferentialTest, SharedModeIsDeterministicAcrossWorkers) {
  std::mt19937 rng(42);
  for (int iteration = 0; iteration < 25; ++iteration) {
    ExtendedAutomaton era = RandomCompleteEra(rng);
    ControlAlphabet alphabet(era.automaton());
    EraEmptinessOptions options;
    options.max_lassos = 200;
    options.max_search_steps = 20000;
    options.search_mode = SearchMode::kSharedVisited;
    options.num_workers = 1;
    auto serial = CheckEraEmptiness(era, alphabet, options);
    ASSERT_TRUE(serial.ok());
    for (int workers : {2, 4}) {
      options.num_workers = workers;
      auto parallel = CheckEraEmptiness(era, alphabet, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(parallel->nonempty, serial->nonempty)
          << "iter " << iteration << " workers " << workers;
      EXPECT_EQ(parallel->stats.stop_reason, serial->stats.stop_reason)
          << "iter " << iteration << " workers " << workers;
      if (serial->nonempty) {
        EXPECT_EQ(parallel->control_word.ToString(),
                  serial->control_word.ToString())
            << "iter " << iteration << " workers " << workers;
      }
    }
  }
}

// --- Dedup effectiveness and metrics surface ---

// The bench family's shift ring (see search_test.cc): a k-register ring
// with skip transitions, so the accepting-lasso space is rich in
// duplicate decompositions of the same ω-words; with the contradictory
// constraint pair every closure is inconsistent and the search drains
// its entire bounded space.
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

// An all-rejecting drain reaches the visited set with every duplicate
// decomposition, so shared mode evaluates each distinct ω-word once —
// with a closure or a refuted-prefix memo hit — while agreeing on the
// verdict with the partitioned reference.
TEST(SharedSearchTest, FullDrainDedupsAcrossDecompositions) {
  ExtendedAutomaton era = MakeShiftRingSearchEra(3, 4, /*contradictory=*/true);
  ControlAlphabet alphabet(era.automaton());
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);

  EraEmptinessOptions partitioned;
  partitioned.max_lassos = 2000;
  partitioned.max_lasso_length = 10;
  EraEmptinessResult baseline =
      SearchConsistentLasso(era, alphabet, scontrol, partitioned);
  EXPECT_FALSE(baseline.nonempty);

  EraEmptinessOptions shared = partitioned;
  shared.search_mode = SearchMode::kSharedVisited;
  EraEmptinessResult result =
      SearchConsistentLasso(era, alphabet, scontrol, shared);
  EXPECT_FALSE(result.nonempty);
  EXPECT_EQ(result.stats.stop_reason, baseline.stats.stop_reason);
  EXPECT_EQ(result.stats.mode, SearchMode::kSharedVisited);
  EXPECT_GT(result.stats.pool_bytes, 0u);
  // Dedup did real work: some candidates were answered from the set, and
  // closures were built only for the distinct ω-words (one worker, so no
  // two workers race on a fresh entry).
  EXPECT_GT(result.stats.visited_hits, 0u);
  EXPECT_EQ(result.stats.visited_entries + result.stats.visited_hits,
            result.stats.lassos_checked);
  EXPECT_EQ(result.stats.closures_built + result.stats.prefix_refutations,
            result.stats.visited_entries);
}

// --- Governor memory budget through the visited set ---

TEST(SharedSearchGovernorTest, MemoryBudgetTripsOnTheVisitedSet) {
  std::mt19937 rng(9);
  ExtendedAutomaton era = RandomCompleteEra(rng);
  ControlAlphabet alphabet(era.automaton());
  ExecutionGovernor governor;
  // Smaller than one pool chunk: the very first intern trips the budget.
  governor.set_memory_budget(16 * 1024);
  EraEmptinessOptions options;
  options.search_mode = SearchMode::kSharedVisited;
  options.max_lassos = 2000;
  options.governor = &governor;
  auto result = CheckEraEmptiness(era, alphabet, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(governor.trip(), GovernorTrip::kMemoryBudget);
  if (!result->nonempty) {
    EXPECT_EQ(result->stats.stop_reason, SearchStopReason::kMemoryBudget);
    EXPECT_TRUE(result->search_truncated);
  }
  // The search released the visited set's bytes when it finished.
  EXPECT_EQ(governor.live_bytes(), 0u);
}

}  // namespace
}  // namespace rav

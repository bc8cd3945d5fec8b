// Differential tests of the symbol-class regex compiler (Regex::ToDfa)
// against the dense reference in tests/oracle/regex_oracle: the two DFAs
// must be identical — alphabet, state count, initial state, accepting
// bits and every transition — and so must their coreachable sets, on
// seeded random regexes (every operator, alphabets with and without an
// unnamed symbol class, large alphabets with few named symbols) and on
// every constraint of the committed specs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/regex.h"
#include "era/extended_automaton.h"
#include "io/text_format.h"
#include "oracle/regex_oracle.h"

namespace rav {
namespace {

void ExpectSameDfa(const Dfa& got, const Dfa& want) {
  ASSERT_EQ(got.alphabet_size(), want.alphabet_size());
  ASSERT_EQ(got.num_states(), want.num_states());
  EXPECT_EQ(got.initial(), want.initial());
  for (int s = 0; s < want.num_states(); ++s) {
    SCOPED_TRACE(::testing::Message() << "dfa state " << s);
    EXPECT_EQ(got.IsAccepting(s), want.IsAccepting(s));
    for (int symbol = 0; symbol < want.alphabet_size(); ++symbol) {
      ASSERT_EQ(got.Next(s, symbol), want.Next(s, symbol))
          << "symbol " << symbol;
    }
  }
}

// Production against the oracle: the compiled DFA, its coreachable set,
// and the coreachable set of its complement (which flips which states
// are dead, so both halves of the stamp-deduplicated BFS are exercised).
void ExpectMatchesOracle(const Regex& regex, int alphabet_size) {
  SCOPED_TRACE(regex.ToString([](int s) { return std::to_string(s); }));
  const Dfa got = regex.ToDfa(alphabet_size);
  ExpectSameDfa(got, oracle::ReferenceRegexToDfa(regex, alphabet_size));
  EXPECT_EQ(got.CoreachableStates(),
            oracle::ReferenceCoreachableStates(got));
  const Dfa complement = got.Complement();
  EXPECT_EQ(complement.CoreachableStates(),
            oracle::ReferenceCoreachableStates(complement));
}

// A random regex over `symbols` (drawn uniformly) using every operator.
Regex RandomRegex(std::mt19937& rng, const std::vector<int>& symbols,
                  int depth) {
  std::uniform_int_distribution<size_t> pick(0, symbols.size() - 1);
  std::uniform_int_distribution<int> leaf(0, 9);
  if (depth == 0) {
    const int kind = leaf(rng);
    if (kind == 0) return Regex::AnySymbol();
    if (kind == 1) return Regex::Epsilon();
    if (kind == 2) return Regex::EmptySet();
    return Regex::Symbol(symbols[pick(rng)]);
  }
  std::uniform_int_distribution<int> op(0, 6);
  switch (op(rng)) {
    case 0:
      return Regex::Concat(RandomRegex(rng, symbols, depth - 1),
                           RandomRegex(rng, symbols, depth - 1));
    case 1:
      return Regex::Union(RandomRegex(rng, symbols, depth - 1),
                          RandomRegex(rng, symbols, depth - 1));
    case 2:
      return Regex::Star(RandomRegex(rng, symbols, depth - 1));
    case 3:
      return Regex::Plus(RandomRegex(rng, symbols, depth - 1));
    case 4:
      return Regex::Optional(RandomRegex(rng, symbols, depth - 1));
    default:
      return RandomRegex(rng, symbols, 0);
  }
}

std::vector<int> AllSymbols(int alphabet_size) {
  std::vector<int> out(alphabet_size);
  for (int s = 0; s < alphabet_size; ++s) out[s] = s;
  return out;
}

TEST(RegexDfaDiff, RandomRegexesOverSmallAlphabets) {
  std::mt19937 rng(20241);
  std::uniform_int_distribution<int> size(1, 12);
  std::uniform_int_distribution<int> depth(0, 4);
  for (int i = 0; i < 3000; ++i) {
    const int n = size(rng);
    ExpectMatchesOracle(RandomRegex(rng, AllSymbols(n), depth(rng)), n);
    if (HasFatalFailure()) return;
  }
}

// The serving shape: a large alphabet of which the regex names a few
// scattered symbols, so one unnamed class stands for most of Q and sits
// between named letters in least-member order.
TEST(RegexDfaDiff, FewNamedSymbolsOverLargeAlphabets) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> size(20, 300);
  std::uniform_int_distribution<int> named_count(1, 4);
  std::uniform_int_distribution<int> depth(0, 4);
  for (int i = 0; i < 400; ++i) {
    const int n = size(rng);
    std::uniform_int_distribution<int> symbol(0, n - 1);
    std::vector<int> named;
    for (int k = named_count(rng); k > 0; --k) named.push_back(symbol(rng));
    ExpectMatchesOracle(RandomRegex(rng, named, depth(rng)), n);
    if (HasFatalFailure()) return;
  }
}

// Every symbol named: there is no unnamed class, and `.` ranges over
// named letters only.
TEST(RegexDfaDiff, RegexesNamingEverySymbol) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> size(1, 10);
  for (int i = 0; i < 500; ++i) {
    const int n = size(rng);
    const std::vector<int> all = AllSymbols(n);
    std::vector<int> order = all;
    std::shuffle(order.begin(), order.end(), rng);
    Regex every = Regex::Symbol(order[0]);
    for (int k = 1; k < n; ++k) {
      every = (i % 2 == 0) ? Regex::Union(std::move(every),
                                          Regex::Symbol(order[k]))
                           : Regex::Concat(std::move(every),
                                           Regex::Symbol(order[k]));
    }
    ExpectMatchesOracle(
        Regex::Concat(std::move(every), RandomRegex(rng, all, 3)), n);
    if (HasFatalFailure()) return;
  }
}

TEST(RegexDfaDiff, EdgeAlphabetsAndSymbols) {
  std::mt19937 rng(3);
  // Alphabet of one symbol, named or reached only through `.`.
  ExpectMatchesOracle(Regex::Symbol(0), 1);
  ExpectMatchesOracle(Regex::Star(Regex::AnySymbol()), 1);
  ExpectMatchesOracle(Regex::Epsilon(), 1);
  ExpectMatchesOracle(Regex::EmptySet(), 1);
  for (int i = 0; i < 200; ++i) {
    ExpectMatchesOracle(RandomRegex(rng, {0}, 4), 1);
  }
  // The highest symbol named, alone and next to its neighbour.
  for (int n = 1; n <= 64; ++n) {
    ExpectMatchesOracle(Regex::Symbol(n - 1), n);
    ExpectMatchesOracle(
        Regex::Concat(Regex::Plus(Regex::Symbol(n - 1)), Regex::AnySymbol()),
        n);
    std::vector<int> top = {n - 1};
    if (n >= 2) top.push_back(n - 2);
    ExpectMatchesOracle(RandomRegex(rng, top, 3), n);
  }
  // Nothing named at all: one class for the whole alphabet.
  ExpectMatchesOracle(Regex::Plus(Regex::AnySymbol()), 50);
  ExpectMatchesOracle(Regex::Optional(Regex::Epsilon()), 50);
}

// Nested '+' chains. Plus is a node of its own, compiled as one copy of
// its operand plus a loop-back ε edge; the old construction expanded it
// to a (a)* with `a` shared. Both denote the same language, so the
// minimal DFA must be the same one, state for state, and so must the
// rendering.
TEST(RegexDfaDiff, PlusChainsMatchTheirExpansion) {
  std::mt19937 rng(2026);
  std::uniform_int_distribution<int> size(1, 6);
  for (int i = 0; i < 60; ++i) {
    const int n = size(rng);
    Regex chain = RandomRegex(rng, AllSymbols(n), i % 3);
    Regex expanded = chain;
    for (int depth = 1; depth <= 6; ++depth) {
      chain = Regex::Plus(chain);
      expanded = Regex::Concat(expanded, Regex::Star(expanded));
      ExpectMatchesOracle(chain, n);
      ExpectSameDfa(chain.ToDfa(n), expanded.ToDfa(n));
      const auto name = [](int s) { return std::to_string(s); };
      EXPECT_EQ(chain.ToString(name), expanded.ToString(name));
      if (HasFatalFailure()) return;
    }
  }
}

// A constraint written "s0" followed by 40 '+' compiles with an NFA
// linear in the nesting depth (the shared-operand expansion doubled it
// per level: 2^40 copies), to the DFA of "s0+".
TEST(RegexDfaDiff, DeepPlusNestingCompilesLinearly) {
  const int depth = 40;
  const std::string text = "s0" + std::string(depth, '+');
  const auto resolve = [](const std::string& name) {
    return name == "s0" ? 0 : -1;
  };
  Result<Regex> regex = Regex::Parse(text, resolve);
  ASSERT_TRUE(regex.ok()) << regex.status().message();
  EXPECT_LE(regex->ToNfa(3).num_states(), 2 * (depth + 1));
  // (Not through ExpectMatchesOracle: the rendering in its trace is the
  // expansion, exponential in the depth.)
  ExpectSameDfa(regex->ToDfa(3), Regex::Plus(Regex::Symbol(0)).ToDfa(3));
  ExpectSameDfa(regex->ToDfa(3), oracle::ReferenceRegexToDfa(*regex, 3));
  // End to end through the spec parser, as a served request compiles it.
  Result<ExtendedAutomaton> era = ParseExtendedAutomaton(
      "automaton {\n  registers 1\n  state s0 initial final\n"
      "  transition s0 -> s0 { }\n  constraint eq 1 1 \"" +
      text + "\"\n}\n");
  ASSERT_TRUE(era.ok()) << era.status().message();
  ASSERT_EQ(era->constraints().size(), 1u);
  EXPECT_EQ(era->constraints()[0].dfa.num_states(),
            Regex::Plus(Regex::Symbol(0)).ToDfa(1).num_states());
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every constraint of every committed spec, as ParseExtendedAutomaton
// compiled it: the stored DFA and coreachable set against the oracle run
// on the same regex text.
TEST(RegexDfaDiff, CommittedSpecConstraints) {
  int constraints = 0;
  for (const char* sub : {"tests/data", "examples/data"}) {
    const std::filesystem::path dir =
        std::filesystem::path(RAV_SOURCE_DIR) / sub;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".rav") continue;
      SCOPED_TRACE(entry.path().string());
      auto era = ParseExtendedAutomaton(ReadFile(entry.path()));
      ASSERT_TRUE(era.ok()) << era.status().message();
      const RegisterAutomaton& a = era->automaton();
      for (const GlobalConstraint& c : era->constraints()) {
        SCOPED_TRACE(c.description);
        auto regex = Regex::Parse(c.description, [&](const std::string& n) {
          return a.FindState(n).value();
        });
        ASSERT_TRUE(regex.ok()) << regex.status().message();
        const Dfa want = oracle::ReferenceRegexToDfa(*regex, a.num_states());
        ExpectSameDfa(c.dfa, want);
        EXPECT_EQ(c.coreachable, oracle::ReferenceCoreachableStates(want));
        ++constraints;
      }
    }
  }
  EXPECT_GE(constraints, 4);
}

}  // namespace
}  // namespace rav

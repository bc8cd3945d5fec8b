// Deterministic fuzz smoke for the io/text_format parser — the
// ctest-wired half of the fuzz frontier (the libFuzzer target
// tests/fuzz_text_format.cc enforces the same invariants under coverage
// guidance; it needs Clang, so CI on GCC relies on this runner).
//
// Strategy: start from the committed seed specs in tests/data/, then
// drive a fixed-seed PRNG through several mutation families — byte
// flips, truncations, splices of two seeds, token-level insertions of
// grammar keywords, digit-run inflation (register terms x<i>/y<i> and
// numbers grown past int range or given a letter tail), and pure
// garbage — for at least 10k inputs
// (override with RAV_FUZZ_SMOKE_INPUTS). Every input must satisfy:
//
//   1. ParseExtendedAutomaton never crashes, hangs, or throws;
//   2. accepted inputs round-trip stably: print → parse → print is a
//      fixed point (so the text format is a faithful serialization).
//
// See docs/robustness.md for the frontier's scope and how to run the
// coverage-guided variant.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/text_format.h"

namespace rav {
namespace {

std::vector<std::string> LoadSeeds() {
  std::vector<std::string> seeds;
  const std::filesystem::path dir =
      std::filesystem::path(RAV_SOURCE_DIR) / "tests" / "data";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".rav") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic order
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    seeds.push_back(buffer.str());
  }
  // A couple of synthetic seeds widen the grammar coverage beyond the
  // committed specs (schema relations, multi-literal guards).
  seeds.push_back(
      "automaton {\n"
      "  registers 2\n"
      "  schema { relation E/2 relation U/1 constant c }\n"
      "  state q1 initial final\n"
      "  state q2\n"
      "  transition q1 -> q2 { x1 = x2  x2 = y2  E(x2, x1)  !U(y1) }\n"
      "  transition q2 -> q2 { x2 = y2  x1 != c }\n"
      "  constraint eq 1 1 \"q1 q2* q1\"\n"
      "  constraint neq 1 2 \"q1 q1\"\n"
      "}\n");
  seeds.push_back("automaton { registers 1 state q initial final }\n");
  return seeds;
}

// Grammar tokens spliced into inputs so mutations stay near the
// interesting part of the input space instead of being rejected by the
// tokenizer immediately.
const char* const kTokens[] = {
    "automaton", "registers",  "schema",   "relation", "constant",
    "state",     "initial",    "final",    "transition", "->",
    "constraint", "eq",        "neq",      "{",        "}",
    "(",         ")",          "\"",       "=",        "!=",
    "x1",        "y1",         "x999",     "y0",       "E/2",
    "-1",        "999999999999999999999", "\n",       "#",
};

class FuzzDriver {
 public:
  FuzzDriver() : seeds_(LoadSeeds()), rng_(42) {}

  std::string Next() {
    switch (rng_() % 7) {
      case 0:
        return FlipBytes(Pick());
      case 1:
        return Truncate(Pick());
      case 2:
        return Splice(Pick(), Pick());
      case 3:
        return InsertTokens(Pick());
      case 4:
        return Garbage();
      case 5:
        return InflateDigits(Pick());
      default:
        return Pick();  // unmutated seeds keep the accepted path hot
    }
  }

 private:
  const std::string& Pick() { return seeds_[rng_() % seeds_.size()]; }

  std::string FlipBytes(std::string s) {
    if (s.empty()) return s;
    const int flips = 1 + static_cast<int>(rng_() % 8);
    for (int i = 0; i < flips; ++i) {
      s[rng_() % s.size()] = static_cast<char>(rng_() % 256);
    }
    return s;
  }

  std::string Truncate(const std::string& s) {
    if (s.empty()) return s;
    return s.substr(0, rng_() % s.size());
  }

  std::string Splice(const std::string& a, const std::string& b) {
    if (a.empty() || b.empty()) return a + b;
    return a.substr(0, rng_() % a.size()) + b.substr(rng_() % b.size());
  }

  std::string InsertTokens(std::string s) {
    const int inserts = 1 + static_cast<int>(rng_() % 4);
    for (int i = 0; i < inserts; ++i) {
      const char* token = kTokens[rng_() % std::size(kTokens)];
      const size_t at = s.empty() ? 0 : rng_() % s.size();
      s.insert(at, std::string(" ") + token + " ");
    }
    return s;
  }

  // Rewrites one digit run (the index of an x<i>/y<i> term, a register
  // count, a constraint register) into 10–24 digits, or gives it a
  // letter tail ("x1" → "x1abc"): both must be parse errors, never an
  // exception or a silently truncated index.
  std::string InflateDigits(std::string s) {
    std::vector<size_t> runs;
    for (size_t i = 0; i < s.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(s[i])) &&
          (i == 0 || !std::isdigit(static_cast<unsigned char>(s[i - 1])))) {
        runs.push_back(i);
      }
    }
    if (runs.empty()) return s;
    const size_t start = runs[rng_() % runs.size()];
    size_t end = start;
    while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end]))) {
      ++end;
    }
    std::string replacement;
    if (rng_() % 4 == 0) {
      replacement = s.substr(start, end - start) + "abc";
    } else {
      replacement.push_back(static_cast<char>('1' + rng_() % 9));
      for (int n = 9 + static_cast<int>(rng_() % 15); n > 0; --n) {
        replacement.push_back(static_cast<char>('0' + rng_() % 10));
      }
    }
    return s.replace(start, end - start, replacement);
  }

  std::string Garbage() {
    std::string s(rng_() % 256, '\0');
    for (char& c : s) c = static_cast<char>(rng_() % 256);
    return s;
  }

  std::vector<std::string> seeds_;
  std::mt19937 rng_;
};

TEST(FuzzSmoke, ParseNeverCrashesAndRoundTripsStably) {
  int num_inputs = 12000;
  if (const char* env = std::getenv("RAV_FUZZ_SMOKE_INPUTS")) {
    num_inputs = std::max(1, std::atoi(env));
  }
  FuzzDriver driver;
  int accepted = 0;
  for (int i = 0; i < num_inputs; ++i) {
    const std::string input = driver.Next();
    Result<ExtendedAutomaton> era = ParseExtendedAutomaton(input);
    if (!era.ok()) continue;  // invariant 1 is "no crash", already held
    ++accepted;
    const std::string printed = ToTextFormat(*era);
    Result<ExtendedAutomaton> again = ParseExtendedAutomaton(printed);
    ASSERT_TRUE(again.ok())
        << "accepted input failed to reparse after printing\n--- input\n"
        << input << "\n--- printed\n"
        << printed << "\n--- status\n"
        << again.status().ToString();
    ASSERT_EQ(ToTextFormat(*again), printed)
        << "print → parse → print is not a fixed point for\n"
        << input;
  }
  // The seed pass-through arm guarantees a healthy accepted fraction; if
  // this drops to ~0 the mutator (or the parser) broke and the round-trip
  // invariant is no longer being exercised.
  EXPECT_GT(accepted, num_inputs / 20)
      << "almost no generated inputs parsed — fuzz corpus degenerated";
}

// The parser's own fault-injection site must not leak into ordinary runs:
// with no RAV_FAILPOINTS armed, a seed spec parses fine.
TEST(FuzzSmoke, SeedsParseClean) {
  for (const std::string& seed : LoadSeeds()) {
    EXPECT_TRUE(ParseExtendedAutomaton(seed).ok());
  }
}

}  // namespace
}  // namespace rav

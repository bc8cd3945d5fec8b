#ifndef RAV_TESTS_ORACLE_REGEX_ORACLE_H_
#define RAV_TESTS_ORACLE_REGEX_ORACLE_H_

#include <vector>

#include "automata/dfa.h"
#include "automata/regex.h"

namespace rav::oracle {

// The dense reference regex compiler the production one (Regex::ToDfa,
// automata/regex.h) is checked against: Thompson construction over the
// whole alphabet, subset construction stepping every symbol, Moore
// minimization with one alphabet-wide signature per state —
// O(alphabet_size) per construction step. Test-only.
Dfa ReferenceRegexToDfa(const Regex& regex, int alphabet_size);

// The reference coreachability Dfa::CoreachableStates is checked
// against: reverse BFS over one reverse edge per (state, symbol) pair,
// duplicates included.
std::vector<bool> ReferenceCoreachableStates(const Dfa& dfa);

}  // namespace rav::oracle

#endif  // RAV_TESTS_ORACLE_REGEX_ORACLE_H_

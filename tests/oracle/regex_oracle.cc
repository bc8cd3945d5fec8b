#include "oracle/regex_oracle.h"

#include <queue>

namespace rav::oracle {

Dfa ReferenceRegexToDfa(const Regex& regex, int alphabet_size) {
  return regex.ToNfa(alphabet_size).Determinize().Minimize();
}

std::vector<bool> ReferenceCoreachableStates(const Dfa& dfa) {
  const int n = dfa.num_states();
  std::vector<std::vector<int>> reverse(n);
  for (int s = 0; s < n; ++s) {
    for (int symbol = 0; symbol < dfa.alphabet_size(); ++symbol) {
      reverse[dfa.Next(s, symbol)].push_back(s);
    }
  }
  std::vector<bool> coreachable(n, false);
  std::queue<int> q;
  for (int s = 0; s < n; ++s) {
    if (dfa.IsAccepting(s)) {
      coreachable[s] = true;
      q.push(s);
    }
  }
  while (!q.empty()) {
    int s = q.front();
    q.pop();
    for (int p : reverse[s]) {
      if (!coreachable[p]) {
        coreachable[p] = true;
        q.push(p);
      }
    }
  }
  return coreachable;
}

}  // namespace rav::oracle

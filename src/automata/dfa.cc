#include "automata/dfa.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <queue>

namespace rav {

int Dfa::Run(const std::vector<int>& word) const {
  int state = initial_;
  for (int symbol : word) state = Next(state, symbol);
  return state;
}

Dfa Dfa::Complement() const {
  Dfa out = *this;
  for (int s = 0; s < num_states(); ++s) out.accepting_[s] = !accepting_[s];
  return out;
}

Dfa Dfa::Intersect(const Dfa& other) const {
  RAV_CHECK_EQ(alphabet_size_, other.alphabet_size_);
  // Product over reachable pairs only.
  std::map<std::pair<int, int>, int> ids;
  std::vector<std::pair<int, int>> pairs;
  auto intern = [&](int a, int b) {
    auto key = std::make_pair(a, b);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    int id = static_cast<int>(pairs.size());
    ids.emplace(key, id);
    pairs.push_back(key);
    return id;
  };
  intern(initial_, other.initial_);
  std::vector<std::vector<int>> table;
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [a, b] = pairs[i];
    std::vector<int> row(alphabet_size_);
    for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
      row[symbol] = intern(Next(a, symbol), other.Next(b, symbol));
    }
    table.push_back(std::move(row));
  }
  Dfa out(alphabet_size_, static_cast<int>(pairs.size()), 0);
  for (size_t s = 0; s < pairs.size(); ++s) {
    for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
      out.SetTransition(static_cast<int>(s), symbol, table[s][symbol]);
    }
    out.SetAccepting(static_cast<int>(s), accepting_[pairs[s].first] &&
                                              other.accepting_[pairs[s].second]);
  }
  return out;
}

Dfa Dfa::Minimize() const {
  const int n = num_states();
  // Restrict to reachable states first.
  std::vector<int> reach_id(n, -1);
  std::vector<int> order;
  {
    std::queue<int> q;
    q.push(initial_);
    reach_id[initial_] = 0;
    order.push_back(initial_);
    while (!q.empty()) {
      int s = q.front();
      q.pop();
      for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
        int t = next_[s][symbol];
        if (reach_id[t] < 0) {
          reach_id[t] = static_cast<int>(order.size());
          order.push_back(t);
          q.push(t);
        }
      }
    }
  }
  const int m = static_cast<int>(order.size());

  // Moore partition refinement on the reachable sub-automaton.
  std::vector<int> block(m);
  for (int i = 0; i < m; ++i) block[i] = accepting_[order[i]] ? 1 : 0;
  int num_blocks = 2;
  // Degenerate case: all states same acceptance.
  {
    bool any_acc = false, any_rej = false;
    for (int i = 0; i < m; ++i) {
      (accepting_[order[i]] ? any_acc : any_rej) = true;
    }
    if (!any_acc || !any_rej) {
      std::fill(block.begin(), block.end(), 0);
      num_blocks = 1;
    }
  }
  while (true) {
    // Signature of each state: (block, successor blocks).
    std::map<std::vector<int>, int> sig_ids;
    std::vector<int> new_block(m);
    for (int i = 0; i < m; ++i) {
      std::vector<int> sig;
      sig.reserve(alphabet_size_ + 1);
      sig.push_back(block[i]);
      for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
        sig.push_back(block[reach_id[next_[order[i]][symbol]]]);
      }
      auto it =
          sig_ids.emplace(std::move(sig), static_cast<int>(sig_ids.size()))
              .first;
      new_block[i] = it->second;
    }
    if (static_cast<int>(sig_ids.size()) == num_blocks) break;
    num_blocks = static_cast<int>(sig_ids.size());
    block = std::move(new_block);
  }

  Dfa out(alphabet_size_, num_blocks, block[0]);
  for (int i = 0; i < m; ++i) {
    int b = block[i];
    for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
      out.SetTransition(b, symbol, block[reach_id[next_[order[i]][symbol]]]);
    }
    out.SetAccepting(b, accepting_[order[i]]);
  }
  return out;
}

Dfa Dfa::ExpandLetters(int alphabet_size,
                       const std::vector<std::pair<int, int>>& symbol_letters,
                       int other_letter) const {
  RAV_CHECK_GE(other_letter, 0);
  RAV_CHECK_LT(other_letter, alphabet_size_);
  for (const auto& [symbol, letter] : symbol_letters) {
    RAV_CHECK_GE(symbol, 0);
    RAV_CHECK_LT(symbol, alphabet_size);
    RAV_CHECK_GE(letter, 0);
    RAV_CHECK_LT(letter, alphabet_size_);
  }
  std::vector<std::vector<int>> next;
  next.reserve(next_.size());
  for (const std::vector<int>& from : next_) {
    std::vector<int>& row =
        next.emplace_back(alphabet_size, from[other_letter]);
    for (const auto& [symbol, letter] : symbol_letters) {
      row[symbol] = from[letter];
    }
  }
  return Dfa(alphabet_size, initial_, std::move(next), accepting_);
}

bool Dfa::IsEmptyLanguage() const {
  std::vector<bool> visited(num_states(), false);
  std::queue<int> q;
  q.push(initial_);
  visited[initial_] = true;
  while (!q.empty()) {
    int s = q.front();
    q.pop();
    if (accepting_[s]) return false;
    for (int symbol = 0; symbol < alphabet_size_; ++symbol) {
      int t = next_[s][symbol];
      if (!visited[t]) {
        visited[t] = true;
        q.push(t);
      }
    }
  }
  return true;
}

std::vector<bool> Dfa::CoreachableStates() const {
  // Reverse BFS from the accepting states over the distinct reverse
  // edges. A row repeats a few successors in long runs across the
  // alphabet: a block of it that is one run (each entry equals the next:
  // one memcmp of the block against itself shifted by one) marks one
  // successor, a mixed block marks entry by entry, and each marked
  // (state, successor) pair becomes one reverse edge.
  constexpr int kBlock = 64;
  const int n = num_states();
  std::vector<std::vector<int>> reverse(n);
  std::vector<char> successor(n, 0);
  for (int s = 0; s < n; ++s) {
    const int* row = next_[s].data();
    for (int base = 0; base < alphabet_size_; base += kBlock) {
      const int len = std::min(kBlock, alphabet_size_ - base);
      if (std::memcmp(row + base, row + base + 1,
                      (len - 1) * sizeof(int)) == 0) {
        successor[row[base]] = 1;
        continue;
      }
      for (int k = 0; k < len; ++k) successor[row[base + k]] = 1;
    }
    for (int t = 0; t < n; ++t) {
      if (successor[t]) reverse[t].push_back(s);
      successor[t] = 0;
    }
  }
  std::vector<bool> coreachable(num_states(), false);
  std::queue<int> q;
  for (int s = 0; s < num_states(); ++s) {
    if (accepting_[s]) {
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

bool Dfa::EquivalentTo(const Dfa& other) const {
  RAV_CHECK_EQ(alphabet_size_, other.alphabet_size_);
  // L1 \ L2 and L2 \ L1 both empty.
  return Intersect(other.Complement()).IsEmptyLanguage() &&
         other.Intersect(Complement()).IsEmptyLanguage();
}

}  // namespace rav

#include "automata/nba.h"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>

#include "base/metrics.h"

namespace rav {

int Nba::num_transitions() const {
  int n = 0;
  for (const auto& row : transitions_) n += static_cast<int>(row.size());
  return n;
}

int Nba::AddState() {
  transitions_.emplace_back();
  accepting_.push_back(false);
  return num_states() - 1;
}

void Nba::AddTransition(int from, int symbol, int to) {
  RAV_CHECK_GE(from, 0);
  RAV_CHECK_LT(from, num_states());
  RAV_CHECK_GE(to, 0);
  RAV_CHECK_LT(to, num_states());
  RAV_CHECK_GE(symbol, 0);
  RAV_CHECK_LT(symbol, alphabet_size_);
  transitions_[from].emplace_back(symbol, to);
}

void Nba::SetInitial(int state) {
  RAV_CHECK_GE(state, 0);
  RAV_CHECK_LT(state, num_states());
  initial_.push_back(state);
}

void Nba::SetAccepting(int state, bool accepting) {
  RAV_CHECK_GE(state, 0);
  RAV_CHECK_LT(state, num_states());
  accepting_[state] = accepting;
}

namespace {

// BFS from `sources`; fills parent (state -> (pred state, symbol)) and
// returns the visited flags.
struct BfsResult {
  std::vector<bool> visited;
  std::vector<std::pair<int, int>> parent;  // (pred, symbol), (-1,-1) at roots
};

BfsResult Bfs(const Nba& nba, const std::vector<int>& sources) {
  BfsResult r;
  r.visited.assign(nba.num_states(), false);
  r.parent.assign(nba.num_states(), {-1, -1});
  std::queue<int> q;
  for (int s : sources) {
    if (!r.visited[s]) {
      r.visited[s] = true;
      q.push(s);
    }
  }
  while (!q.empty()) {
    int s = q.front();
    q.pop();
    for (const auto& [symbol, to] : nba.TransitionsFrom(s)) {
      if (!r.visited[to]) {
        r.visited[to] = true;
        r.parent[to] = {s, symbol};
        q.push(to);
      }
    }
  }
  return r;
}

// Reconstructs the symbol path from a BFS root to `target`.
std::vector<int> PathTo(const BfsResult& bfs, int target) {
  std::vector<int> symbols;
  int s = target;
  while (bfs.parent[s].first >= 0) {
    symbols.push_back(bfs.parent[s].second);
    s = bfs.parent[s].first;
  }
  std::reverse(symbols.begin(), symbols.end());
  return symbols;
}

}  // namespace

std::optional<LassoWord> Nba::FindAcceptingLasso() const {
  BfsResult from_init = Bfs(*this, initial_);
  for (int f = 0; f < num_states(); ++f) {
    if (!accepting_[f] || !from_init.visited[f]) continue;
    // Is f on a nontrivial cycle? BFS from the successors of f.
    // Track the first symbol separately so the cycle has length >= 1.
    for (const auto& [symbol, to] : transitions_[f]) {
      if (to == f) {
        // Self-loop.
        LassoWord w;
        w.prefix = PathTo(from_init, f);
        w.cycle = {symbol};
        return w;
      }
    }
    std::vector<int> successors;
    std::vector<int> first_symbol(num_states(), -1);
    for (const auto& [symbol, to] : transitions_[f]) {
      if (first_symbol[to] < 0) {
        first_symbol[to] = symbol;
        successors.push_back(to);
      }
    }
    BfsResult from_succ = Bfs(*this, successors);
    if (from_succ.visited[f]) {
      LassoWord w;
      w.prefix = PathTo(from_init, f);
      std::vector<int> back = PathTo(from_succ, f);
      // Identify which successor the path started from: walk parents.
      int root = f;
      {
        int s = f;
        while (from_succ.parent[s].first >= 0) s = from_succ.parent[s].first;
        root = s;
      }
      w.cycle.push_back(first_symbol[root]);
      w.cycle.insert(w.cycle.end(), back.begin(), back.end());
      return w;
    }
  }
  return std::nullopt;
}

bool Nba::AcceptsLasso(const LassoWord& word) const {
  RAV_CHECK(!word.cycle.empty());
  Nba word_nba = FromLassoWord(alphabet_size_, word);
  return !Intersect(word_nba).IsEmpty();
}

Nba Nba::FromLassoWord(int alphabet_size, const LassoWord& word) {
  Nba nba(alphabet_size);
  int n = static_cast<int>(word.prefix.size() + word.cycle.size());
  for (int i = 0; i < n; ++i) nba.AddState();
  for (int i = 0; i < n; ++i) {
    int symbol = i < static_cast<int>(word.prefix.size())
                     ? word.prefix[i]
                     : word.cycle[i - word.prefix.size()];
    int to = (i + 1 == n) ? static_cast<int>(word.prefix.size()) : i + 1;
    nba.AddTransition(i, symbol, to);
    if (i >= static_cast<int>(word.prefix.size())) nba.SetAccepting(i);
  }
  // If the prefix is empty, position 0 is the cycle start.
  nba.SetInitial(0);
  return nba;
}

const char* LassoEnumStopName(LassoEnumStop stop) {
  switch (stop) {
    case LassoEnumStop::kExhausted:
      return "exhausted";
    case LassoEnumStop::kLengthClipped:
      return "length-clipped";
    case LassoEnumStop::kMaxCount:
      return "lasso-budget";
    case LassoEnumStop::kMaxSteps:
      return "step-budget";
    case LassoEnumStop::kCallbackStopped:
      return "callback-stopped";
  }
  return "unknown";
}

LassoEnumerator::LassoEnumerator(const Nba& nba, size_t max_length,
                                 size_t max_count, size_t max_steps)
    : nba_(nba),
      max_length_(max_length),
      max_count_(max_count),
      max_steps_(max_steps),
      occurrences_(4 * static_cast<size_t>(nba.num_states()), 0) {}

bool LassoEnumerator::EnterNode(int state) {
  if (++steps_ > max_steps_) {
    steps_capped_ = true;
    done_ = true;
    return false;
  }
  // Close the lasso at every earlier occurrence t of `state` that has an
  // accepting state inside the cycle (path positions t ...), in ascending
  // t. The occurrences are recorded in ascending order, and the cycle
  // from t holds an accepting state iff the path's last accepting
  // position is at or after t, so the closings are a prefix of them. A
  // closing at t has cycle path_symbols_[t, end), nonempty since the path
  // holds one more symbol than states before this node is pushed.
  int* record = &occurrences_[4 * static_cast<size_t>(state)];
  const int seen = record[0];
  if (seen > 0) {
    const int last_accepting = stack_.back().last_accepting;
    const size_t first_closing = pending_.size();
    for (int i = 1; i <= seen && record[i] <= last_accepting; ++i) {
      pending_.push_back(static_cast<size_t>(record[i]));
    }
    if (pending_.size() > first_closing) {
      pending_path_.assign(path_symbols_.begin(), path_symbols_.end());
    }
  }
  if (path_symbols_.size() >= max_length_) {
    // Paths cut here could have closed longer lassos: the enumeration is
    // no longer exhaustive (unless the node is a dead end anyway).
    if (!nba_.TransitionsFrom(state).empty()) length_clipped_ = true;
    return false;
  }
  // Prune: a state needs at most 3 visits on a path to expose every
  // lasso shape up to the length bound (prefix pass + two cycle passes).
  if (seen >= 3) return false;
  const int depth = static_cast<int>(stack_.size());
  record[++record[0]] = depth;
  const int last_accepting = nba_.IsAccepting(state) ? depth
                             : depth > 0 ? stack_.back().last_accepting
                                         : -1;
  stack_.push_back(Frame{state, last_accepting, 0});
  return true;
}

void LassoEnumerator::Step() {
  if (!stack_.empty()) {
    Frame& frame = stack_.back();
    const auto& edges = nba_.TransitionsFrom(frame.state);
    if (frame.next_edge < edges.size()) {
      auto [symbol, to] = edges[frame.next_edge++];
      path_symbols_.push_back(symbol);
      if (!EnterNode(to)) {
        if (done_) return;  // step budget: freeze everything as-is
        path_symbols_.pop_back();
      }
      return;
    }
    --occurrences_[4 * static_cast<size_t>(frame.state)];
    stack_.pop_back();
    // Pop the symbol of the edge that led here (roots have none).
    if (!stack_.empty()) path_symbols_.pop_back();
    return;
  }
  if (init_index_ < nba_.initial().size()) {
    EnterNode(nba_.initial()[init_index_++]);
    return;
  }
  done_ = true;
}

bool LassoEnumerator::Next(LassoWord* out, size_t* index) {
  if (delivered_ >= max_count_) return false;
  while (pending_head_ >= pending_.size() && !done_) Step();
  if (pending_head_ >= pending_.size()) return false;
  const size_t split = pending_[pending_head_++];
  out->prefix.assign(pending_path_.begin(), pending_path_.begin() + split);
  out->cycle.assign(pending_path_.begin() + split, pending_path_.end());
  *index = delivered_++;
  if (pending_head_ >= pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  }
  if (delivered_ >= max_count_) {
    // Count cap reached; unless the DFS had already finished cleanly with
    // nothing left pending, more candidates may exist.
    if (!(done_ && !steps_capped_ && pending_.empty())) count_capped_ = true;
    done_ = true;
  }
  return true;
}

LassoEnumStop LassoEnumerator::stop() const {
  if (steps_capped_) return LassoEnumStop::kMaxSteps;
  if (count_capped_) return LassoEnumStop::kMaxCount;
  if (length_clipped_) return LassoEnumStop::kLengthClipped;
  return LassoEnumStop::kExhausted;
}

size_t Nba::EnumerateAcceptingLassos(
    size_t max_length, size_t max_count,
    const std::function<bool(const LassoWord&)>& callback,
    size_t max_steps) const {
  return EnumerateAcceptingLassosEx(max_length, max_count, callback,
                                    max_steps)
      .delivered;
}

Nba::EnumerationStats Nba::EnumerateAcceptingLassosEx(
    size_t max_length, size_t max_count,
    const std::function<bool(const LassoWord&)>& callback,
    size_t max_steps) const {
  LassoEnumerator enumerator(*this, max_length, max_count, max_steps);
  EnumerationStats stats;
  LassoWord word;
  size_t index = 0;
  bool callback_stopped = false;
  while (enumerator.Next(&word, &index)) {
    if (!callback(word)) {
      callback_stopped = true;
      break;
    }
  }
  stats.delivered = enumerator.delivered();
  stats.steps = enumerator.steps();
  stats.stop =
      callback_stopped ? LassoEnumStop::kCallbackStopped : enumerator.stop();
  return stats;
}

Nba Nba::Intersect(const Nba& other) const {
  RAV_CHECK_EQ(alphabet_size_, other.alphabet_size_);
  GeneralizedNba product(alphabet_size_, 2);
  std::map<std::pair<int, int>, int> ids;
  std::vector<std::pair<int, int>> pairs;
  std::queue<int> work;
  auto intern = [&](int a, int b) {
    auto key = std::make_pair(a, b);
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    int id = product.AddState();
    ids.emplace(key, id);
    pairs.push_back(key);
    if (accepting_[a]) product.AddToAcceptSet(0, id);
    if (other.accepting_[b]) product.AddToAcceptSet(1, id);
    work.push(id);
    return id;
  };
  for (int a : initial_) {
    for (int b : other.initial_) {
      product.SetInitial(intern(a, b));
    }
  }
  while (!work.empty()) {
    int id = work.front();
    work.pop();
    auto [a, b] = pairs[id];
    for (const auto& [symbol, ta] : transitions_[a]) {
      for (const auto& [symbol_b, tb] : other.transitions_[b]) {
        if (symbol_b != symbol) continue;
        int to = intern(ta, tb);
        product.AddTransition(id, symbol, to);
      }
    }
  }
  RAV_METRIC_COUNT("automata/intersect/products", 1);
  RAV_METRIC_RECORD("automata/intersect/product_states", product.num_states());
  return product.Degeneralize();
}

Nba Nba::Union(const Nba& other) const {
  RAV_CHECK_EQ(alphabet_size_, other.alphabet_size_);
  Nba out(alphabet_size_);
  for (int s = 0; s < num_states(); ++s) {
    out.AddState();
    out.SetAccepting(s, accepting_[s]);
  }
  int offset = num_states();
  for (int s = 0; s < other.num_states(); ++s) {
    out.AddState();
    out.SetAccepting(offset + s, other.accepting_[s]);
  }
  for (int s = 0; s < num_states(); ++s) {
    for (const auto& [symbol, to] : transitions_[s]) {
      out.AddTransition(s, symbol, to);
    }
  }
  for (int s = 0; s < other.num_states(); ++s) {
    for (const auto& [symbol, to] : other.transitions_[s]) {
      out.AddTransition(offset + s, symbol, offset + to);
    }
  }
  for (int s : initial_) out.SetInitial(s);
  for (int s : other.initial_) out.SetInitial(offset + s);
  return out;
}

// ---------------------------------------------------------------------------
// GeneralizedNba

int GeneralizedNba::AddState() {
  transitions_.emplace_back();
  for (auto& set : in_accept_set_) set.push_back(false);
  return num_states() - 1;
}

void GeneralizedNba::AddTransition(int from, int symbol, int to) {
  RAV_CHECK_GE(from, 0);
  RAV_CHECK_LT(from, num_states());
  RAV_CHECK_GE(to, 0);
  RAV_CHECK_LT(to, num_states());
  RAV_CHECK_GE(symbol, 0);
  RAV_CHECK_LT(symbol, alphabet_size_);
  transitions_[from].emplace_back(symbol, to);
}

void GeneralizedNba::AddToAcceptSet(int set_index, int state) {
  RAV_CHECK_GE(set_index, 0);
  RAV_CHECK_LT(set_index, num_accept_sets_);
  in_accept_set_[set_index][state] = true;
}

Nba GeneralizedNba::Degeneralize() const {
  const int k = std::max(num_accept_sets_, 1);
  // With zero accept sets every run accepts: treat as one set containing
  // every state.
  auto in_set = [&](int set, int state) {
    if (num_accept_sets_ == 0) return true;
    return static_cast<bool>(in_accept_set_[set][state]);
  };

  Nba out(alphabet_size_);
  const int n = num_states();
  // State (q, i) has id q * k + i.
  for (int q = 0; q < n; ++q) {
    for (int i = 0; i < k; ++i) {
      int id = out.AddState();
      RAV_CHECK_EQ(id, q * k + i);
      if (i == 0 && in_set(0, q)) out.SetAccepting(id);
    }
  }
  for (int q = 0; q < n; ++q) {
    for (int i = 0; i < k; ++i) {
      int next_i = in_set(i, q) ? (i + 1) % k : i;
      for (const auto& [symbol, to] : transitions_[q]) {
        out.AddTransition(q * k + i, symbol, to * k + next_i);
      }
    }
  }
  for (int q : initial_) out.SetInitial(q * k + 0);
  RAV_METRIC_COUNT("automata/degeneralize/constructions", 1);
  RAV_METRIC_RECORD("automata/degeneralize/states", out.num_states());
  return out;
}

}  // namespace rav

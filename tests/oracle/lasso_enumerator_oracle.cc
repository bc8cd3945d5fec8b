#include "oracle/lasso_enumerator_oracle.h"

#include <algorithm>

namespace rav::oracle {

ReferenceLassoEnumerator::ReferenceLassoEnumerator(const Nba& nba,
                                                   size_t max_length,
                                                   size_t max_count,
                                                   size_t max_steps)
    : nba_(nba),
      max_length_(max_length),
      max_count_(max_count),
      max_steps_(max_steps) {}

bool ReferenceLassoEnumerator::EnterNode(int state) {
  if (++steps_ > max_steps_) {
    steps_capped_ = true;
    done_ = true;
    return false;
  }
  // Close the lasso at every earlier occurrence t of `state` that has an
  // accepting state inside the cycle (path positions t ...), in ascending
  // t: a backward scan finds them while accumulating acceptance, and the
  // found run is then reversed in place.
  const size_t first_closing = pending_.size();
  bool accepting_in_cycle = false;
  for (size_t t = path_states_.size(); t-- > 0;) {
    accepting_in_cycle =
        accepting_in_cycle || nba_.IsAccepting(path_states_[t]);
    if (path_states_[t] == state && accepting_in_cycle &&
        t < path_symbols_.size()) {
      pending_.push_back(t);
    }
  }
  if (pending_.size() > first_closing) {
    std::reverse(pending_.begin() + first_closing, pending_.end());
    pending_path_.assign(path_symbols_.begin(), path_symbols_.end());
  }
  if (path_symbols_.size() >= max_length_) {
    if (!nba_.TransitionsFrom(state).empty()) length_clipped_ = true;
    return false;
  }
  // A state needs at most 3 visits on a path.
  int occurrences = 0;
  for (int s : path_states_) occurrences += (s == state);
  if (occurrences >= 3) return false;
  path_states_.push_back(state);
  stack_.push_back(Frame{state, 0});
  return true;
}

void ReferenceLassoEnumerator::Step() {
  if (!stack_.empty()) {
    Frame& frame = stack_.back();
    const auto& edges = nba_.TransitionsFrom(frame.state);
    if (frame.next_edge < edges.size()) {
      auto [symbol, to] = edges[frame.next_edge++];
      path_symbols_.push_back(symbol);
      if (!EnterNode(to)) {
        if (done_) return;
        path_symbols_.pop_back();
      }
      return;
    }
    stack_.pop_back();
    path_states_.pop_back();
    if (!stack_.empty()) path_symbols_.pop_back();
    return;
  }
  if (init_index_ < nba_.initial().size()) {
    EnterNode(nba_.initial()[init_index_++]);
    return;
  }
  done_ = true;
}

bool ReferenceLassoEnumerator::Next(LassoWord* out, size_t* index) {
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
    if (!(done_ && !steps_capped_ && pending_.empty())) count_capped_ = true;
    done_ = true;
  }
  return true;
}

LassoEnumStop ReferenceLassoEnumerator::stop() const {
  if (steps_capped_) return LassoEnumStop::kMaxSteps;
  if (count_capped_) return LassoEnumStop::kMaxCount;
  if (length_clipped_) return LassoEnumStop::kLengthClipped;
  return LassoEnumStop::kExhausted;
}

}  // namespace rav::oracle

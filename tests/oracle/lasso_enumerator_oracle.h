#ifndef RAV_TESTS_ORACLE_LASSO_ENUMERATOR_ORACLE_H_
#define RAV_TESTS_ORACLE_LASSO_ENUMERATOR_ORACLE_H_

#include <cstddef>
#include <vector>

#include "automata/lasso.h"
#include "automata/nba.h"

namespace rav::oracle {

// The reference bounded lasso DFS the production LassoEnumerator
// (automata/nba.h) is checked against. Node entry scans the whole path
// twice — once backwards for the closings (earlier occurrences of the
// entered state with an accepting state in the cycle), once to count the
// state's occurrences for the three-visit prune — so entering a node
// costs O(path). Same bounds, same delivery order, same ranks, steps and
// stop reason as the production enumerator. Test-only.
class ReferenceLassoEnumerator {
 public:
  ReferenceLassoEnumerator(const Nba& nba, size_t max_length,
                           size_t max_count, size_t max_steps);

  bool Next(LassoWord* out, size_t* index);
  LassoEnumStop stop() const;
  size_t delivered() const { return delivered_; }
  size_t steps() const { return steps_; }

 private:
  struct Frame {
    int state;
    size_t next_edge;
  };

  void Step();
  bool EnterNode(int state);

  const Nba& nba_;
  size_t max_length_;
  size_t max_count_;
  size_t max_steps_;
  std::vector<Frame> stack_;
  std::vector<int> path_states_;
  std::vector<int> path_symbols_;
  std::vector<size_t> pending_;
  std::vector<int> pending_path_;
  size_t pending_head_ = 0;
  size_t init_index_ = 0;
  size_t delivered_ = 0;
  size_t steps_ = 0;
  bool done_ = false;
  bool steps_capped_ = false;
  bool count_capped_ = false;
  bool length_clipped_ = false;
};

}  // namespace rav::oracle

#endif  // RAV_TESTS_ORACLE_LASSO_ENUMERATOR_ORACLE_H_

#include "oracle/cover_oracle.h"

#include <algorithm>
#include <map>

namespace rav::oracle {

namespace {

// Kuhn's augmenting paths over adjacency lists.
class BipartiteMatcher {
 public:
  BipartiteMatcher(int n_left, int n_right)
      : adj_(n_left), match_right_(n_right, -1) {}

  void AddEdge(int l, int r) { adj_[l].push_back(r); }

  int MaxMatching() {
    int matching = 0;
    for (int l = 0; l < static_cast<int>(adj_.size()); ++l) {
      visited_.assign(match_right_.size(), false);
      if (TryAugment(l)) ++matching;
    }
    return matching;
  }

 private:
  bool TryAugment(int l) {
    for (int r : adj_[l]) {
      if (visited_[r]) continue;
      visited_[r] = true;
      if (match_right_[r] < 0 || TryAugment(match_right_[r])) {
        match_right_[r] = l;
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<int>> adj_;
  std::vector<int> match_right_;
  std::vector<bool> visited_;
};

}  // namespace

int BipartiteMinVertexCover(int n_left, int n_right,
                            const std::vector<std::pair<int, int>>& edges) {
  BipartiteMatcher matcher(n_left, n_right);
  for (const auto& [l, r] : edges) matcher.AddEdge(l, r);
  // König: in bipartite graphs, min vertex cover = max matching.
  return matcher.MaxMatching();
}

int MaxCutVertexCoverOfClosure(const ConstraintClosure& closure) {
  const int k = closure.num_registers();
  const size_t window = closure.window();
  if (!closure.consistent()) return -1;

  // Span of each class: [min position, max position].
  const int num_classes = closure.num_classes();
  std::vector<int> min_pos(num_classes, static_cast<int>(window));
  std::vector<int> max_pos(num_classes, -1);
  for (size_t n = 0; n < window; ++n) {
    for (int i = 0; i < k; ++i) {
      int c = closure.ClassOf(closure.NodeOf(n, i));
      min_pos[c] = std::min(min_pos[c], static_cast<int>(n));
      max_pos[c] = std::max(max_pos[c], static_cast<int>(n));
    }
  }
  // Constant classes span everything; treat them as straddling every cut
  // (they never participate in G^w_h edges).
  for (int c = 0; c < closure.num_constants(); ++c) {
    int cls = closure.ClassOf(closure.ConstantNode(c));
    min_pos[cls] = 0;
    max_pos[cls] = static_cast<int>(window) - 1;
  }

  int best = 0;
  for (size_t h = 0; h + 1 < window; ++h) {
    // Classes entirely in L(h) = positions <= h, entirely in R(h) = > h.
    // Compact ids per side.
    std::map<int, int> left_id, right_id;
    std::vector<std::pair<int, int>> edges;
    for (const auto& [c1, c2] : closure.InequalityEdges()) {
      int left = -1, right = -1;
      auto classify = [&](int c) {
        if (max_pos[c] < 0) return 0;  // class with no register occurrence
        if (max_pos[c] <= static_cast<int>(h)) return -1;  // left
        if (min_pos[c] > static_cast<int>(h)) return 1;    // right
        return 0;  // straddles
      };
      int k1 = classify(c1);
      int k2 = classify(c2);
      if (k1 == -1 && k2 == 1) {
        left = c1;
        right = c2;
      } else if (k1 == 1 && k2 == -1) {
        left = c2;
        right = c1;
      } else {
        continue;
      }
      auto lid = left_id.emplace(left, static_cast<int>(left_id.size())).first;
      auto rid =
          right_id.emplace(right, static_cast<int>(right_id.size())).first;
      edges.emplace_back(lid->second, rid->second);
    }
    best = std::max(
        best, BipartiteMinVertexCover(static_cast<int>(left_id.size()),
                                      static_cast<int>(right_id.size()),
                                      edges));
  }
  return best;
}

}  // namespace rav::oracle

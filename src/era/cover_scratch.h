#ifndef RAV_ERA_COVER_SCRATCH_H_
#define RAV_ERA_COVER_SCRATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace rav {

// Reusable per-thread scratch for the G^w_h cover sweep behind
// MaxCutVertexCoverOfClosure (projection/lr_bounded.h). One instance per
// search worker (it lives inside LassoWorkerCounters, beside the
// ClosureScratch) so a warmed-up worker measures covers without
// allocating: every buffer keeps its capacity across closures. Not
// thread-safe: each worker owns its own.
class CoverScratch {
 public:
  CoverScratch() = default;

 private:
  friend class CoverSweep;

  // Ints grouped by a dense key: the items keyed k are
  // items[begin[k], begin[k + 1]).
  struct Csr {
    std::vector<int> begin;
    std::vector<int> items;
  };

  // Per class: first and last window position holding one of its
  // register occurrences (max_pos_ = -1: no occurrence).
  std::vector<int> min_pos_;
  std::vector<int> max_pos_;
  // Per class: bit 0 = tail of some arc, bit 1 = head of some arc.
  std::vector<uint8_t> role_;
  // Inequality edges oriented left -> right, then grouped by left class.
  std::vector<std::pair<int, int>> arcs_;
  Csr adj_;
  // Per cut h, the classes that join the left side at h (their last
  // occurrence) and those that leave the right side at h (their first).
  Csr joins_;
  Csr departures_;
  // The maximum matching carried across cuts (right class -> its left
  // partner, -1 = free), the cut being swept, and the left classes to
  // augment from at that cut.
  std::vector<int> match_of_right_;
  int cut_ = 0;
  std::vector<int> pending_;
  // Epoch-stamped visit marks of the augmenting-path search: right class
  // r is visited in the current search iff seen_[r] == epoch_.
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
};

}  // namespace rav

#endif  // RAV_ERA_COVER_SCRATCH_H_

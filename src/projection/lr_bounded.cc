#include "projection/lr_bounded.h"

#include <algorithm>
#include <atomic>

#include "analysis/lint.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace rav {

// The G^w_h cover sweep. A class is a left vertex of G^w_h iff its last
// register occurrence is at or before h, a right vertex iff its first is
// after h, so an inequality edge {a, b} is live exactly on the cuts
// [max_pos(a), min_pos(b)) for its one orientation with
// max_pos(a) < min_pos(b) (or on none). Sweeping h upward, left vertices
// only join and right vertices only leave, and a maximum matching of the
// previous cut minus the pairs of departed right vertices leaves no
// augmenting path except from the left vertices that joined or were freed
// at this cut (Berge). So one matching is carried across all cuts, with
// at most one Kuhn augmentation per join and per freeing: at most
// 2 · |classes| searches of O(|edges|) each per closure.
class CoverSweep {
 public:
  static int Run(const ConstraintClosure& closure, CoverScratch& s);

 private:
  // Kuhn's augmenting-path search from left class l over the right
  // classes still right of cut s.cut_, visit marks stamped with s.epoch_.
  // Each adjacency list is sorted by departure cut, latest first, so the
  // live rights form a prefix; a free live right is taken before any path
  // is followed through a matched one.
  static bool TryAugment(CoverScratch& s, int l) {
    const int begin = s.adj_.begin[l];
    int end = begin;
    while (end < s.adj_.begin[l + 1] &&
           s.min_pos_[s.adj_.items[end]] > s.cut_) {
      ++end;
    }
    for (int i = begin; i < end; ++i) {
      const int r = s.adj_.items[i];
      if (s.match_of_right_[r] < 0) {
        s.match_of_right_[r] = l;
        return true;
      }
    }
    for (int i = begin; i < end; ++i) {
      const int r = s.adj_.items[i];
      if (s.seen_[r] == s.epoch_) continue;
      s.seen_[r] = s.epoch_;
      if (TryAugment(s, s.match_of_right_[r])) {
        s.match_of_right_[r] = l;
        return true;
      }
    }
    return false;
  }

  static void NextEpoch(CoverScratch& s) {
    if (++s.epoch_ == 0) {  // wrapped: clear stale marks once
      std::fill(s.seen_.begin(), s.seen_.end(), 0);
      s.epoch_ = 1;
    }
  }

  // Counting sort: groups value_of(i) for i in [0, n) by key_of(i),
  // skipping keys outside [0, num_keys).
  template <typename KeyOf, typename ValueOf>
  static void GroupByKey(int n, KeyOf key_of, ValueOf value_of, int num_keys,
                         CoverScratch::Csr& out) {
    std::vector<int>& begin = out.begin;
    begin.assign(num_keys + 1, 0);
    for (int i = 0; i < n; ++i) {
      const int key = key_of(i);
      if (key >= 0 && key < num_keys) ++begin[key + 1];
    }
    for (int key = 0; key < num_keys; ++key) begin[key + 1] += begin[key];
    out.items.resize(begin[num_keys]);
    for (int i = 0; i < n; ++i) {
      const int key = key_of(i);
      if (key >= 0 && key < num_keys) out.items[begin[key]++] = value_of(i);
    }
    for (int key = num_keys; key > 0; --key) begin[key] = begin[key - 1];
    begin[0] = 0;
  }
};

int CoverSweep::Run(const ConstraintClosure& closure, CoverScratch& s) {
  const int k = closure.num_registers();
  const int window = static_cast<int>(closure.window());
  const int num_classes = closure.num_classes();
  const int num_cuts = window - 1;  // h = 0 .. window - 2
  if (num_cuts <= 0) return 0;

  // Span of each class. Constant classes span the whole window, so they
  // straddle every cut and never carry a G^w_h edge.
  s.min_pos_.assign(num_classes, window);
  s.max_pos_.assign(num_classes, -1);
  for (int n = 0; n < window; ++n) {
    for (int i = 0; i < k; ++i) {
      const int c = closure.ClassOf(closure.NodeOf(n, i));
      s.min_pos_[c] = std::min(s.min_pos_[c], n);
      s.max_pos_[c] = std::max(s.max_pos_[c], n);
    }
  }
  for (int c = 0; c < closure.num_constants(); ++c) {
    const int cls = closure.ClassOf(closure.ConstantNode(c));
    s.min_pos_[cls] = 0;
    s.max_pos_[cls] = window - 1;
  }

  // Orient every edge that is live on some cut, left -> right.
  s.arcs_.clear();
  s.role_.assign(num_classes, 0);
  for (const auto& [a, b] : closure.InequalityEdges()) {
    if (s.max_pos_[a] < 0 || s.max_pos_[b] < 0) continue;  // no occurrence
    int l = a, r = b;
    if (s.max_pos_[b] < s.min_pos_[a]) std::swap(l, r);
    if (s.max_pos_[l] >= s.min_pos_[r]) continue;  // straddles every cut
    s.arcs_.emplace_back(l, r);
    s.role_[l] |= 1;
    s.role_[r] |= 2;
  }
  if (s.arcs_.empty()) return 0;

  // Adjacency, left class -> right classes, latest-departing rights
  // first: they are the ones a match keeps longest, and the live rights
  // at any cut become a prefix.
  GroupByKey(
      static_cast<int>(s.arcs_.size()),
      [&](int i) { return s.arcs_[i].first; },
      [&](int i) { return s.arcs_[i].second; }, num_classes, s.adj_);
  for (int c = 0; c < num_classes; ++c) {
    std::sort(s.adj_.items.begin() + s.adj_.begin[c],
              s.adj_.items.begin() + s.adj_.begin[c + 1],
              [&](int a, int b) { return s.min_pos_[a] > s.min_pos_[b]; });
  }

  // Arc tails join the left side at h = max_pos (<= window - 2); arc
  // heads leave the right side at h = min_pos (those at h = window - 1
  // are past the last cut and never leave).
  const auto identity = [](int c) { return c; };
  GroupByKey(
      num_classes,
      [&](int c) { return (s.role_[c] & 1) != 0 ? s.max_pos_[c] : -1; },
      identity, num_cuts, s.joins_);
  GroupByKey(
      num_classes,
      [&](int c) { return (s.role_[c] & 2) != 0 ? s.min_pos_[c] : -1; },
      identity, num_cuts, s.departures_);

  s.match_of_right_.assign(num_classes, -1);
  if (s.seen_.size() < static_cast<size_t>(num_classes)) {
    s.seen_.resize(num_classes, 0);
  }
  // Arc heads still right of the cut; once all are matched no augmenting
  // path can end anywhere, so the cut's searches are skipped.
  int live_rights = 0;
  for (int c = 0; c < num_classes; ++c) live_rights += (s.role_[c] >> 1) & 1;
  int matched = 0;
  int best = 0;
  for (int h = 0; h < num_cuts; ++h) {
    s.cut_ = h;
    s.pending_.clear();
    const CoverScratch::Csr& departures = s.departures_;
    for (int i = departures.begin[h]; i < departures.begin[h + 1]; ++i) {
      --live_rights;
      int& partner = s.match_of_right_[departures.items[i]];
      if (partner < 0) continue;
      s.pending_.push_back(partner);
      partner = -1;
      --matched;
    }
    s.pending_.insert(s.pending_.end(),
                      s.joins_.items.begin() + s.joins_.begin[h],
                      s.joins_.items.begin() + s.joins_.begin[h + 1]);
    for (int l : s.pending_) {
      if (matched == live_rights) break;
      NextEpoch(s);
      if (TryAugment(s, l)) ++matched;
    }
    // König: in bipartite graphs, min vertex cover = max matching.
    best = std::max(best, matched);
  }
  return best;
}

namespace {

// Callers that don't thread a CoverScratch (one-off measurements) fall
// back to a per-thread instance, as the closure does for its scratch.
CoverScratch& ThreadLocalCoverScratch() {
  thread_local CoverScratch scratch;
  return scratch;
}

}  // namespace

int MaxCutVertexCover(const ExtendedAutomaton& era,
                      const ControlAlphabet& alphabet, const LassoWord& lasso,
                      size_t window) {
  ConstraintClosure closure(era, alphabet, lasso, window);
  return MaxCutVertexCoverOfClosure(closure);
}

int MaxCutVertexCoverOfClosure(const ConstraintClosure& closure,
                               CoverScratch* scratch) {
  RAV_METRIC_COUNT("projection/lr_bounded/cover_computations", 1);
  if (!closure.consistent()) return -1;
  return CoverSweep::Run(
      closure, scratch != nullptr ? *scratch : ThreadLocalCoverScratch());
}

Result<LrBoundResult> EstimateLrBound(const ExtendedAutomaton& era,
                                      const ControlAlphabet& alphabet,
                                      const LrBoundOptions& options) {
  RAV_TRACE_SPAN("projection/lr_bounded");
  RAV_METRIC_COUNT("projection/lr_bounded/estimations", 1);
  if (era.automaton().schema().num_relations() > 0) {
    return Status::InvalidArgument(
        "EstimateLrBound: LR-boundedness is defined for automata without a "
        "database (Section 5)");
  }
  if (options.analyze_and_strip) {
    const analysis::StripEffort effort =
        era.automaton().num_transitions() >= options.min_flow_strip_transitions
            ? analysis::StripEffort::kFlow
            : analysis::StripEffort::kFast;
    analysis::StripResult stripped =
        analysis::AnalyzeAndStrip(era, effort, options.governor);
    if (stripped.changed()) {
      RAV_METRIC_COUNT("projection/lr_bounded/strips", 1);
      ControlAlphabet stripped_alphabet(stripped.era->automaton());
      LrBoundOptions inner = options;
      inner.analyze_and_strip = false;
      // Pin the automatic window sizes to the original constraint list
      // (stripping may drop its largest DFA, and the estimate must be
      // identical with and without stripping).
      if (inner.pump_small == 0) {
        inner.pump_small =
            2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
      }
      if (inner.pump_large == 0) inner.pump_large = 2 * inner.pump_small;
      return EstimateLrBound(*stripped.era, stripped_alphabet, inner);
    }
  }
  Nba scontrol = BuildSControlNba(era.automaton(), alphabet);

  // Auto-scale the windows so that every constraint's span fits into the
  // smaller one (otherwise truncated edges masquerade as growth).
  size_t pump_small = options.pump_small;
  size_t pump_large = options.pump_large;
  if (pump_small == 0) {
    pump_small = 2 * static_cast<size_t>(era.MaxConstraintDfaStates()) + 2;
  }
  if (pump_large == 0) pump_large = 2 * pump_small;
  // Growth detection compares a window against a larger one; a smaller
  // "large" pump would measure nothing.
  if (pump_large < pump_small) pump_large = pump_small;

  // Per-lasso cover measurement, run on the engine's workers. The
  // aggregation (max over covers, or over growth flags) is commutative and
  // associative, so the verdict is identical for any worker count; it is
  // folded with relaxed atomics (the pool's join publishes the result).
  std::atomic<int> max_cover{0};
  std::atomic<bool> growth_detected{false};
  auto evaluate = [&](const LassoCandidate& candidate,
                      LassoWorkerCounters& counters) -> LassoVerdict {
    const LassoWord& lasso = candidate.word;
    size_t w_small = lasso.prefix.size() + lasso.cycle.size() * pump_small;
    // An inconsistent small window contributes nothing to the fold, and
    // the worker's memo can prove one without a closure.
    if (counters.prefix_memo.Refutes(era, alphabet, lasso, w_small,
                                     &counters.scratch, options.governor)) {
      return LassoVerdict::kInconsistent;
    }
    ++counters.closures_built;
    ConstraintClosure small(era, alphabet, lasso, w_small,
                            &counters.scratch);
    ScopedMemoryCharge closure_charge(options.governor, small.ApproxBytes());
    int cover_small =
        MaxCutVertexCoverOfClosure(small, &counters.cover_scratch);
    if (cover_small < 0) {
      counters.prefix_memo.Learn(lasso, 0, small);
      return LassoVerdict::kInconsistent;
    }
    // The large window shares the small one's prefix: grow the closure by
    // the extra cycle pumps instead of rebuilding from position 0.
    ++counters.closures_extended;
    ConstraintClosure large = std::move(small).ExtendedBy(
        pump_large - pump_small, &counters.scratch);
    closure_charge.Add(large.ApproxBytes());
    int cover_large =
        MaxCutVertexCoverOfClosure(large, &counters.cover_scratch);
    int seen = max_cover.load(std::memory_order_relaxed);
    while (cover_small > seen &&
           !max_cover.compare_exchange_weak(seen, cover_small,
                                            std::memory_order_relaxed)) {
    }
    if (cover_large > cover_small) {
      growth_detected.store(true, std::memory_order_relaxed);
    }
    return LassoVerdict::kReject;  // aggregate-only: never a witness
  };

  LassoSearchOptions search_options;
  search_options.max_lasso_length = options.max_lasso_length;
  search_options.max_lassos = options.max_lassos;
  search_options.max_search_steps = options.max_search_steps;
  search_options.num_workers = options.num_workers;
  search_options.batch_size = options.batch_size;
  search_options.mode = options.search_mode;
  search_options.governor = options.governor;
  LassoSearchOutcome outcome =
      SearchLassos(scontrol, search_options, evaluate);

  LrBoundResult result;
  result.max_cover = max_cover.load(std::memory_order_relaxed);
  result.growth_detected = growth_detected.load(std::memory_order_relaxed);
  RAV_METRIC_RECORD("projection/lr_bounded/max_cover", result.max_cover);
  if (result.growth_detected) {
    RAV_METRIC_COUNT("projection/lr_bounded/growth_detected", 1);
  }
  result.lassos_examined = outcome.stats.lassos_checked;
  result.stats = outcome.stats;
  result.stats.guard_table_bytes = alphabet.guard_table_bytes();
  if (result.stats.guard_table_bytes > 0) {
    RAV_METRIC_SET("era/guard/table_bytes", result.stats.guard_table_bytes);
  }
  result.search_truncated = outcome.stats.truncated();
  return result;
}

}  // namespace rav

#pragma once

#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/frontier.hpp"
#include "core/frontier_kernels.hpp"
#include "core/frontier_stream.hpp"
#include "support/budget.hpp"

namespace treeplace {

/// The backpointer-arena store of the frontier kernels (see
/// core/frontier_kernels for the interface): frontiers are spans of one
/// BasicFrontierArena, merged by FrontierConvolver (2-D) or QosFrontierSweep
/// (QoS) with full backpointers. The batch solvers, IncrementalSolver's memo
/// and the subtree relaxations all fold through it.
template <typename Entry>
class ArenaStore {
  static constexpr bool kQos = std::is_same_v<Entry, QosFrontierEntry>;
  using Merger = std::conditional_t<kQos, QosFrontierSweep, FrontierConvolver>;

 public:
  using Handle = FrontierSpan;

  explicit ArenaStore(BasicFrontierArena<Entry>& arena) : arena_(&arena), merger_(arena) {}

  std::size_t size(FrontierSpan h) const { return h.size; }
  Entry at(FrontierSpan h, std::size_t k) const { return arena_->at(h, k); }

  FrontierSpan seed(const Entry& entry) {
    const std::uint32_t begin = arena_->beginSpan();
    arena_->push(entry);
    return arena_->endSpan(begin);
  }

  FrontierSpan unit() {
    Entry neutral;
    if constexpr (kQos) neutral.slack = std::numeric_limits<double>::infinity();
    return seed(neutral);
  }

  FrontierSpan convolve(FrontierSpan acc, FrontierSpan child, std::int32_t cap)
    requires(!kQos)
  {
    return merger_.convolve(acc, child, cap);
  }

  /// QoS child merge: the child first pays `uplink` on every live (flow > 0)
  /// state, dead pairs are dropped, slacks combine by min. Candidates go
  /// straight into the count-bucketed sweep — no cross-product vector, no
  /// sort. Every pair may die, leaving an empty span.
  FrontierSpan convolve(FrontierSpan acc, FrontierSpan child, std::int32_t cap,
                        double uplink)
    requires kQos
  {
    merger_.begin(cap);
    for (std::size_t p = 0; p < acc.size; ++p) {
      const Entry a = arena_->at(acc, p);
      for (std::size_t c = 0; c < child.size; ++c) {
        const Entry& b = arena_->at(child, c);
        const double slack =
            b.flow > 0 ? b.slack - uplink : std::numeric_limits<double>::infinity();
        if (slack < -kSlackTolerance) continue;  // dead: client unreachable in time
        merger_.add({a.count + b.count, a.flow + b.flow, std::min(a.slack, slack),
                     static_cast<std::int32_t>(p), static_cast<std::int32_t>(c)});
      }
    }
    return merger_.emit();
  }

  /// Copies acc[0, keep) with skip backpointers into a fresh span (entries
  /// are re-read through the arena: the pushes may grow the slab).
  FrontierSpan keepPrefix(FrontierSpan acc, std::size_t keep, const Entry& place)
    requires(!kQos)
  {
    const std::uint32_t begin = arena_->beginSpan();
    for (std::size_t k = 0; k < keep; ++k) {
      const Entry e = arena_->at(acc, k);
      arena_->push({e.count, e.flow, static_cast<std::int32_t>(k), 0});
    }
    if (place.count >= 0) arena_->push(place);
    const FrontierSpan out = arena_->endSpan(begin);
    merger_.noteWidth(out.size);  // hand-built: bypasses the bucket sweep
    return out;
  }

  void beginCandidates(std::int32_t cap) {
    if constexpr (kQos) {
      merger_.begin(cap);
    } else {
      candidates_.clear();
      candidateCap_ = cap;
    }
  }

  void candidate(const Entry& entry) {
    if constexpr (kQos)
      merger_.add(entry);
    else
      candidates_.push_back(entry);
  }

  FrontierSpan commitCandidates(FrontierSpan) {
    if constexpr (kQos)
      return merger_.emit();
    else
      return merger_.pruneCandidates(candidates_, candidateCap_);
  }

  /// Merge telemetry so far, with the arena high-water mark.
  FrontierStats stats() {
    merger_.noteArenaUsage();
    return merger_.stats();
  }

 private:
  BasicFrontierArena<Entry>* arena_;
  Merger merger_;
  std::vector<FrontierEntry> candidates_;  ///< 2-D candidate batch
  std::int32_t candidateCap_ = 0;
};

/// The stack-slab store of the frontier kernels: frontiers live on a
/// FrontierStreamer / QosFrontierStreamer slab, a Handle is the begin index
/// of a frontier that runs to the top of the slab, and merges and folds
/// rewrite the top frontiers in place. No backpointers, width-capped.
template <typename Entry>
class StreamStore {
  static constexpr bool kQos = std::is_same_v<Entry, QosFrontierEntry>;
  using Streamer = std::conditional_t<kQos, QosFrontierStreamer, FrontierStreamer>;

 public:
  using Handle = std::size_t;

  explicit StreamStore(const FrontierStreamOptions& options) : streamer_(options) {}

  std::size_t size(std::size_t h) const { return streamer_.top() - h; }
  Entry at(std::size_t h, std::size_t k) const {
    Entry e;
    e.count = streamer_.countAt(h + k);
    e.flow = streamer_.flowAt(h + k);
    if constexpr (kQos) e.slack = streamer_.slackAt(h + k);
    return e;
  }

  std::size_t seed(const Entry& entry) {
    const std::size_t begin = streamer_.top();
    if constexpr (kQos)
      streamer_.pushEntry(entry.count, entry.flow, entry.slack);
    else
      streamer_.pushEntry(entry.count, entry.flow);
    return begin;
  }

  std::size_t unit() { return streamer_.pushUnit(); }

  std::size_t convolve(std::size_t acc, std::size_t child, std::int32_t cap)
    requires(!kQos)
  {
    streamer_.foldChild(acc, child, cap);
    return acc;
  }

  std::size_t convolve(std::size_t acc, std::size_t child, std::int32_t cap,
                       double uplink)
    requires kQos
  {
    streamer_.foldChild(acc, child, cap, uplink);
    return acc;
  }

  std::size_t keepPrefix(std::size_t acc, std::size_t keep, const Entry& place)
    requires(!kQos)
  {
    streamer_.resize(acc + keep);
    if (place.count >= 0) streamer_.pushEntry(place.count, place.flow);
    return acc;
  }

  void beginCandidates(std::int32_t cap) {
    streamer_.clearCandidates();
    candidateCap_ = cap;
  }

  void candidate(const Entry& entry) {
    if constexpr (kQos)
      streamer_.addCandidate(entry.count, entry.flow, entry.slack);
    else
      streamer_.addCandidate(entry.count, entry.flow);
  }

  std::size_t commitCandidates(std::size_t acc) {
    streamer_.commitPruned(acc, candidateCap_);
    return acc;
  }

  const FrontierStreamStats& stats() const { return streamer_.stats(); }

 private:
  Streamer streamer_;
  std::int32_t candidateCap_ = 0;
};

/// Batch driver: one bottom-up pass of `kernel` over the merge-bag schedule
/// into a backpointer arena — canonical merge order, every prefix
/// convolution kept — then the top-down reconstruction walk, which calls
/// onReplica(v) for every replica of the optimal placement. Returns false
/// (no walk) when the instance is infeasible; a fold that kills every state
/// ends the pass early. `stats`, when non-null, receives the merge
/// telemetry; `guard`, when non-null, is ticked once per bag and throws
/// SolveInterrupted on a trip.
template <typename Kernel>
bool solveFrontierBatch(const Kernel& kernel, const Tree& tree, FrontierStats* stats,
                        BudgetGuard* guard,
                        const std::function<void(VertexId)>& onReplica) {
  using Entry = typename Kernel::Entry;
  BasicFrontierArena<Entry> arena;
  arena.reset(4 * tree.vertexCount());
  ArenaStore<Entry> store(arena);
  const TreeDecomposition decomp(tree);
  BasicFrontierDp<Entry> dp(decomp, arena);

  const bool alive = [&] {
    for (const BagId b : decomp.schedule()) {
      if (guard != nullptr) guard->checkpoint();
      if (decomp.anchorIsClient(b)) {
        dp.seedClient(b, kernel.seed(decomp, b));
        continue;
      }
      const std::int32_t cap = Kernel::chainCap(decomp, b);
      FrontierSpan acc = store.unit();
      const auto children = decomp.mergeChildren(b);
      for (std::size_t ci = 0; ci < children.size(); ++ci) {
        acc = kernel.merge(store, acc, dp.frontier(children[ci]), decomp, children[ci], cap);
        if (acc.empty()) return false;  // some child has no live state
        dp.setCombo(b, ci, acc);
      }
      dp.setFrontier(b, kernel.fold(store, acc, decomp, b, cap));
    }
    return true;
  }();
  if (stats != nullptr) *stats = store.stats();
  if (!alive) return false;
  const std::int32_t root = rootEntry(store, dp.frontier(decomp.rootBag()));
  if (root < 0) return false;
  dp.reconstruct(root, onReplica);
  return true;
}

/// Streaming driver: the same recurrence in O(widthCap * depth) memory. An
/// iterative walk over the raw child order keeps one accumulator per bag of
/// the current root path on the stack slab; a closed bag's frontier is folded
/// into its parent's accumulator at once. Count only, no placement. A fold
/// that kills every state reports the instance infeasible.
template <typename Kernel>
StreamCountResult countFrontierStreaming(const Kernel& kernel, const Tree& tree,
                                         const FrontierStreamOptions& options) {
  StreamCountResult result;
  const TreeDecomposition decomp(tree);
  const BagId root = decomp.rootBag();
  if (decomp.anchorIsClient(root)) {
    // Degenerate single-vertex tree: feasible only with nothing to serve.
    result.feasible = kernel.seed(decomp, root).flow == 0;
    return result;
  }

  StreamStore<typename Kernel::Entry> store(options);
  struct Frame {
    BagId bag;
    std::uint32_t nextChild;
    std::size_t acc;
    std::int32_t cap;
  };
  std::vector<Frame> stack;
  stack.reserve(64);
  const auto open = [&](BagId b) {
    stack.push_back({b, 0, store.unit(), Kernel::chainCap(decomp, b)});
  };
  // Fold the frontier at the top of the slab into the innermost open bag;
  // false when the merge left that accumulator empty.
  const auto foldIntoParent = [&](std::size_t child, BagId childBag) {
    const Frame& parent = stack.back();
    kernel.merge(store, parent.acc, child, decomp, childBag, parent.cap);
    return store.size(parent.acc) > 0;
  };

  bool alive = true;
  open(root);
  while (!stack.empty() && alive) {
    if (options.guard != nullptr) options.guard->checkpoint();
    Frame& f = stack.back();  // open() reallocates: never touch f after it
    const auto kids = decomp.children(f.bag);
    if (f.nextChild < kids.size()) {
      const BagId c = kids[f.nextChild++];
      if (decomp.anchorIsClient(c))
        alive = foldIntoParent(store.seed(kernel.seed(decomp, c)), c);
      else
        open(c);
      continue;
    }
    kernel.fold(store, f.acc, decomp, f.bag, f.cap);
    const Frame done = f;
    stack.pop_back();
    if (!stack.empty()) alive = foldIntoParent(done.acc, done.bag);
  }

  // The root frontier now occupies the whole slab.
  result.stats = store.stats();
  const std::int32_t best = alive ? rootEntry(store, std::size_t{0}) : -1;
  if (best >= 0) {
    result.feasible = true;
    result.replicas = store.at(0, static_cast<std::size_t>(best)).count;
  }
  return result;
}

}  // namespace treeplace

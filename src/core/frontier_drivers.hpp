#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
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
/// (QoS) with full backpointers. The batch solvers, FrontierMemo and the
/// subtree relaxations all fold through it.
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

/// Memo driver: the epoch-stamped store under IncrementalSolver,
/// IncrementalBounds and the multitree search. Every bag's frontier (and,
/// with combos, the prefix convolutions of its child chain) persists in one
/// arena across re-folds. stamp() opens a new epoch and marks the touched
/// vertices and their root paths dirty; refold() then recomputes exactly the
/// dirty bags, children first, through the batch driver's kernel, arena
/// store, canonical merge order and caps, so every recomputed frontier is
/// bit-identical to a scratch pass. The dirty set is closed under parents:
/// a clean bag implies a clean cone.
///
/// Spans are indices, so they survive arena growth, and compactIfBloated()
/// recycles the slab by copying the live spans once dead generations
/// dominate — it recomputes nothing.
template <typename Entry>
class FrontierMemo {
 public:
  /// A fresh memo over `decomp`, every bag dirty. `withCombos` keeps each
  /// bag's child-prefix chain: prefix reuse in refold() and the backpointer
  /// walk of a reconstruction both read it.
  void init(const TreeDecomposition& decomp, bool withCombos) {
    *this = FrontierMemo{};
    withCombos_ = withCombos;
    lastDirty_.assign(decomp.bagCount(), 1);
    // Reserve past the 16n compaction gate (compactIfBloated): the slab then
    // reaches the compaction decision before its first doubling reallocation,
    // so steady-state pushes never pay a multi-MiB slab copy inside a timed
    // re-fold. The combo-less bounds memo sees no latency bar and keeps the
    // modest reserve instead.
    arena.reset((withCombos ? 17 : 4) * decomp.bagCount());
    grow(decomp);
  }

  /// Structural growth: extend per-bag tables, remap the flat combo table
  /// onto the new schedule's layout (old bags keep their spans; the attach
  /// target is dirty anyway). The next stamp() marks the new bags dirty.
  void grow(const TreeDecomposition& decomp) {
    const std::size_t n = decomp.bagCount();
    const std::size_t oldN = frontier.size();
    frontier.resize(n);
    computedEpoch.resize(n, 0);
    comboCap.resize(n, -1);
    postPos_.resize(n);
    const std::span<const BagId> schedule = decomp.schedule();
    for (std::size_t i = 0; i < schedule.size(); ++i)
      postPos_[static_cast<std::size_t>(schedule[i])] = static_cast<std::int32_t>(i);
    if (!withCombos_) return;
    std::vector<std::int32_t> newOffset(n, 0);
    std::vector<std::int32_t> newCount(n, 0);
    std::int32_t running = 0;
    for (const BagId v : schedule) {
      const auto vi = static_cast<std::size_t>(v);
      newOffset[vi] = running;
      newCount[vi] = static_cast<std::int32_t>(decomp.mergeChildren(v).size());
      running += newCount[vi];
    }
    std::vector<FrontierSpan> newSpans(static_cast<std::size_t>(running));
    std::vector<VertexId> newChild(static_cast<std::size_t>(running), kNoVertex);
    // Old bags keep their prefix-convolution spans together with the child
    // each slot folded in; the prefix-reuse scan revalidates the recorded
    // children against the rebuilt merge order, so a reshuffle (the grown
    // subtree got heavier) degrades to a partial or full re-convolve instead
    // of silently pairing spans with the wrong child.
    for (std::size_t vi = 0; vi < oldN; ++vi) {
      const auto keep = static_cast<std::size_t>(std::min(comboCount[vi], newCount[vi]));
      for (std::size_t ci = 0; ci < keep; ++ci) {
        newSpans[static_cast<std::size_t>(newOffset[vi]) + ci] =
            comboSpans[static_cast<std::size_t>(comboOffset[vi]) + ci];
        newChild[static_cast<std::size_t>(newOffset[vi]) + ci] =
            comboChild[static_cast<std::size_t>(comboOffset[vi]) + ci];
      }
    }
    comboSpans = std::move(newSpans);
    comboChild = std::move(newChild);
    comboOffset = std::move(newOffset);
    comboCount = std::move(newCount);
  }

  /// Open a new epoch: bags of `tree` the memo has not seen yet (structural
  /// growth) start dirty, and `touched` plus their root paths are stamped —
  /// or every bag, when `global`. Returns the number of stamps
  /// (invalidation telemetry; a global stamp counts every vertex).
  std::size_t stamp(const Tree& tree, std::span<const VertexId> touched,
                    bool global = false) {
    ++epoch_;
    const std::size_t oldSize = lastDirty_.size();
    lastDirty_.resize(tree.vertexCount(), epoch_);
    for (std::size_t v = oldSize; v < lastDirty_.size(); ++v)
      pending_.push_back(static_cast<VertexId>(v));
    if (global) {
      globalDirty_ = epoch_;
      pendingGlobal_ = true;
      return tree.vertexCount();
    }
    std::size_t stamped = 0;
    for (const VertexId t : touched) {
      // The touched vertex itself may already carry the current epoch — new
      // vertices are born dirty at this epoch by the resize above — but its
      // ancestors still need stamping, so the already-stamped short-circuit
      // only applies from the parent upward.
      bool first = true;
      for (VertexId v = t; v != kNoVertex; v = tree.parent(v), first = false) {
        auto& mark = lastDirty_[static_cast<std::size_t>(v)];
        if (mark == epoch_) {
          if (!first) break;  // the rest of the path is already stamped
          continue;
        }
        mark = epoch_;
        pending_.push_back(v);
        ++stamped;
      }
    }
    return stamped;
  }

  /// The current epoch; a refold stamps the bags it recomputes with it.
  std::uint64_t epoch() const { return epoch_; }

  /// A bag's memoized frontier is valid iff computedEpoch >= this.
  std::uint64_t dirtySince(BagId b) const {
    const std::uint64_t local = lastDirty_[static_cast<std::size_t>(b)];
    return local > globalDirty_ ? local : globalDirty_;
  }

  /// Whether a refold has anything to recompute.
  bool dirty() const { return pendingGlobal_ || !pending_.empty(); }

  /// Copy-compact the arena once dead generations dominate: stage every
  /// clean bag's spans, reset the slab, re-push. Within-span backpointers
  /// are span-relative, so relocation preserves a reconstruction walk; dirty
  /// bags are recomputed by the next refold, so their stale spans are simply
  /// dropped. Returns whether it compacted.
  bool compactIfBloated() {
    const std::size_t n = frontier.size();
    const std::size_t total = arena.entryCount();
    if (total <= 16 * n) return false;  // smaller than a few scratch generations
    // The live-scan below is O(n); once the slab passes the floor, rerun it
    // only after another ~n entries of churn, not on every refold.
    if (total < nextCompactCheck_) return false;

    const auto isClean = [&](std::size_t vi) {
      return computedEpoch[vi] >= dirtySince(static_cast<BagId>(vi));
    };
    std::size_t live = 0;
    for (std::size_t vi = 0; vi < n; ++vi) {
      if (!isClean(vi)) continue;
      live += frontier[vi].size;
      if (withCombos_) {
        const auto base = static_cast<std::size_t>(comboOffset[vi]);
        for (std::int32_t ci = 0; ci < comboCount[vi]; ++ci)
          live += comboSpans[base + static_cast<std::size_t>(ci)].size;
      }
    }
    // Prefix reuse keeps per-refold churn small, so a generous dead:live
    // ratio trades a few MiB of slab for compaction spikes rare enough to
    // stay out of the p99 re-solve latency.
    if (total <= 6 * live + 8 * n) {
      nextCompactCheck_ = total + n;
      return false;
    }

    std::vector<Entry> stage;
    stage.reserve(live);
    const auto copySpan = [&](FrontierSpan& span) {
      const auto begin = static_cast<std::uint32_t>(stage.size());
      const auto view = arena.view(span);
      stage.insert(stage.end(), view.begin(), view.end());
      span = FrontierSpan{begin, span.size};
    };
    for (std::size_t vi = 0; vi < n; ++vi) {
      if (!isClean(vi)) {
        // The dirty bag's spans are dropped wholesale, so its combo chain
        // must not be prefix-reused by the upcoming recompute.
        frontier[vi] = FrontierSpan{};
        comboCap[vi] = -1;
        continue;
      }
      copySpan(frontier[vi]);
      if (withCombos_) {
        const auto base = static_cast<std::size_t>(comboOffset[vi]);
        for (std::int32_t ci = 0; ci < comboCount[vi]; ++ci)
          copySpan(comboSpans[base + static_cast<std::size_t>(ci)]);
      }
    }
    arena.reset(std::max(2 * stage.size(), 4 * n));
    for (const Entry& e : stage) arena.push(e);
    nextCompactCheck_ = 0;
    return true;
  }

  /// Recompute every dirty bag, children first: `step(b, prevEpoch)` returns
  /// the bag's new frontier, given the epoch of its previous computation
  /// (0 when never computed). The first refold, or one after a global stamp,
  /// sweeps the whole schedule; any other visits exactly the stamped bags,
  /// sorted into postorder, and never looks at the clean rest. Returns the
  /// number of bags recomputed.
  ///
  /// `guard`, when non-null, is ticked once per recomputed bag and throws
  /// SolveInterrupted on a trip. The checkpoint fires BEFORE the bag is
  /// stamped, so an interrupted refold leaves every memoized frontier exact
  /// and the pending dirty set intact; the next refold continues from there.
  template <typename Step>
  std::size_t refoldWith(const TreeDecomposition& decomp, BudgetGuard* guard, Step&& step) {
    if (!pendingGlobal_) orderPendingDirty();
    const std::span<const BagId> bags =
        pendingGlobal_ ? decomp.schedule() : std::span<const BagId>(pending_);
    std::size_t recomputed = 0;
    for (const BagId b : bags) {
      const auto bi = static_cast<std::size_t>(b);
      const std::uint64_t prevEpoch = computedEpoch[bi];
      if (prevEpoch >= dirtySince(b)) continue;
      if (guard != nullptr) guard->checkpoint();
      ++recomputed;
      computedEpoch[bi] = epoch_;
      frontier[bi] = step(b, prevEpoch);
    }
    pending_.clear();
    pendingGlobal_ = false;
    return recomputed;
  }

  /// refoldWith() through `kernel` on the arena store, with combo-chain
  /// prefix reuse: a dirty bag re-convolves only from its first child whose
  /// frontier changed (or whose merge slot was reshuffled). Needs combos.
  template <typename Kernel>
  std::size_t refold(const Kernel& kernel, const TreeDecomposition& decomp,
                     BudgetGuard* guard = nullptr) {
    ArenaStore<Entry> store(arena);
    return refoldWith(decomp, guard, [&](BagId b, std::uint64_t prevEpoch) {
      if (decomp.anchorIsClient(b)) return store.seed(kernel.seed(decomp, b));
      const auto bi = static_cast<std::size_t>(b);
      const std::int32_t cap = Kernel::chainCap(decomp, b);
      const auto base = static_cast<std::size_t>(comboOffset[bi]);
      const std::span<const BagId> children = decomp.mergeChildren(b);
      // The cached chain is exact up to the first slot whose recorded child
      // diverges from the current merge order or whose child frontier was
      // recomputed after the chain was built (children run first, so their
      // stamps are current). Everything a kernel reads besides the child
      // frontiers — capacities, constraints, QoS budgets — enters only the
      // fold (uplinks are immutable), so a capacity change re-folds every
      // bag without re-convolving anything.
      std::size_t f = 0;
      if (prevEpoch > 0 && comboCap[bi] == cap) {
        while (f < children.size() && comboChild[base + f] == children[f] &&
               computedEpoch[static_cast<std::size_t>(children[f])] <= prevEpoch)
          ++f;
      }
      FrontierSpan acc = f == 0 ? store.unit() : comboSpans[base + f - 1];
      for (std::size_t ci = f; ci < children.size(); ++ci) {
        acc = kernel.merge(store, acc, frontier[static_cast<std::size_t>(children[ci])],
                           decomp, children[ci], cap);
        comboSpans[base + ci] = acc;
        comboChild[base + ci] = children[ci];
      }
      comboCap[bi] = cap;
      return kernel.fold(store, acc, decomp, b, cap);
    });
  }

  BasicFrontierArena<Entry> arena;
  std::vector<FrontierSpan> frontier;      ///< per bag
  std::vector<FrontierSpan> comboSpans;    ///< flat, comboOffset-indexed
  /// Child convolved into each combo slot when the chain was built. Prefix
  /// reuse compares this against the current merge order.
  std::vector<VertexId> comboChild;
  std::vector<std::int32_t> comboOffset;   ///< per bag
  std::vector<std::int32_t> comboCount;    ///< children count at layout time
  std::vector<std::uint64_t> computedEpoch;  ///< 0 = never computed
  /// Count cap the bag's combo chain was built with (-1: chain invalid).
  std::vector<std::int32_t> comboCap;

 private:
  /// Sort the pending dirty list into postorder and drop duplicates (the
  /// same bag stamped across several epochs).
  void orderPendingDirty() {
    std::sort(pending_.begin(), pending_.end(), [this](VertexId a, VertexId b) {
      return postPos_[static_cast<std::size_t>(a)] < postPos_[static_cast<std::size_t>(b)];
    });
    pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
  }

  bool withCombos_ = false;
  std::uint64_t epoch_ = 1;        ///< bumped per stamp()
  std::uint64_t globalDirty_ = 1;  ///< set to epoch_ on a global stamp
  std::vector<std::uint64_t> lastDirty_;  ///< per-bag last dirty epoch
  /// Bags stamped since the last refold; a global stamp (or the first
  /// refold) sweeps the schedule instead.
  std::vector<VertexId> pending_;
  bool pendingGlobal_ = true;
  std::vector<std::int32_t> postPos_;  ///< schedule position per bag
  /// Arena size below which the compaction live-scan is skipped entirely;
  /// bumped after every scan so the O(n) walk amortizes over arena growth
  /// instead of running on every refold.
  std::size_t nextCompactCheck_ = 0;
};

}  // namespace treeplace

#include "exact/multitree_closest.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>

#include "core/frontier.hpp"
#include "core/frontier_kernels.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr std::int32_t kInfeasibleCost = std::numeric_limits<std::int32_t>::max();

/// Per-vertex placement constraint of the conditional Closest DP. The count
/// dimension of the frontier is *cost-weighted*: a private replica costs 1,
/// a shared gateway costs 0 inside the per-tree DP (gateways are counted
/// once, globally, by the branch-and-bound driver).
enum class NodeState : std::uint8_t {
  Free,        ///< private internal: optional replica at cost 1
  FreeZero,    ///< undecided gateway: optional replica at cost 0 (relaxation)
  Forced,      ///< lexico-accepted private internal: mandatory, cost 1
  ForcedZero,  ///< gateway decided in: mandatory, cost 0
  Forbidden,   ///< gateway decided out: may not place
};

/// Persistent constrained Closest frontier DP over one member tree. Between
/// resolves only the vertices on the root paths of re-constrained vertices
/// are recomputed (the Closest frontier of a subtree depends on nothing
/// outside it), so a branch-and-bound probe costs O(depth * width) instead
/// of a full O(n) pass. Frontiers carry no backpointers and no combo chains:
/// the solver never reconstructs — the final replica set is exactly the
/// forced set, so the DP only ever answers "what is the cheapest completion".
///
/// Recomputation appends to the arena and abandons the stale spans; once the
/// slab outgrows 16x the footprint of a from-scratch pass, everything is
/// marked dirty and the arena rebuilt (copy-compaction, same policy as the
/// incremental engine's caches).
class ConstrainedTreeDp {
 public:
  ConstrainedTreeDp(const ProblemInstance& instance, MultitreeSolveStats& stats)
      : instance_(&instance),
        decomp_(instance.tree),
        conv_(arena_),
        stats_(&stats),
        capacity_(instance.homogeneousCapacity()) {
    const std::size_t n = instance.tree.vertexCount();
    state_.assign(n, NodeState::Free);
    frontier_.assign(n, FrontierSpan{});
    dirty_.assign(n, 1);
    postIndex_.assign(n, 0);
    const auto& post = instance.tree.postorder();
    for (std::size_t i = 0; i < post.size(); ++i)
      postIndex_[static_cast<std::size_t>(post[i])] = static_cast<std::int32_t>(i);
    dirtyList_.assign(post.begin(), post.end());
    arena_.reset(4 * n);
  }

  NodeState state(VertexId v) const { return state_[static_cast<std::size_t>(v)]; }

  void setState(VertexId v, NodeState next) {
    auto& current = state_[static_cast<std::size_t>(v)];
    if (current == next) return;
    current = next;
    markDirty(v);
  }

  /// Cheapest cost-weighted replica count serving every client of the tree
  /// under the current constraints, or kInfeasibleCost.
  std::int32_t resolve() {
    if (!dirtyList_.empty()) {
      ++stats_->dpResolves;
      if (compactThreshold_ > 0 && arena_.entryCount() > compactThreshold_)
        scheduleRebuild();
      std::sort(dirtyList_.begin(), dirtyList_.end(),
                [this](VertexId a, VertexId b) {
                  return postIndex_[static_cast<std::size_t>(a)] <
                         postIndex_[static_cast<std::size_t>(b)];
                });
      for (const VertexId v : dirtyList_) {
        recompute(v);
        dirty_[static_cast<std::size_t>(v)] = 0;
      }
      dirtyList_.clear();
      if (compactThreshold_ == 0)
        compactThreshold_ = 16 * arena_.entryCount() + 1024;
      cached_ = rootAnswer();
    }
    return cached_;
  }

 private:
  void markDirty(VertexId v) {
    const Tree& tree = decomp_.tree();
    for (VertexId u = v; u != kNoVertex; u = tree.parent(u)) {
      auto& flag = dirty_[static_cast<std::size_t>(u)];
      if (flag) break;  // everything above is already dirty
      flag = 1;
      dirtyList_.push_back(u);
    }
  }

  void scheduleRebuild() {
    ++stats_->fullRebuilds;
    arena_.reset(compactThreshold_ / 16);
    const auto& post = decomp_.tree().postorder();
    dirtyList_.assign(post.begin(), post.end());
    std::fill(dirty_.begin(), dirty_.end(), 1);
    compactThreshold_ = 0;  // re-measured after the full pass
  }

  void recompute(VertexId v) {
    ++stats_->dirtyRecomputes;
    const auto vi = static_cast<std::size_t>(v);
    if (decomp_.anchorIsClient(v)) {
      const std::uint32_t begin = arena_.beginSpan();
      arena_.push({0, instance_->requests[vi], -1, -1});
      frontier_[vi] = arena_.endSpan(begin);
      return;
    }
    const auto cap = static_cast<std::int32_t>(decomp_.internalsInCone(v));
    FrontierSpan acc = conv_.unit();
    for (const BagId child : decomp_.mergeChildren(v)) {
      const FrontierSpan childFrontier = frontier_[static_cast<std::size_t>(child)];
      if (childFrontier.empty()) {  // dead subtree (unsatisfiable Forced below)
        frontier_[vi] = FrontierSpan{};
        return;
      }
      acc = conv_.convolve(acc, childFrontier, cap);
    }
    if (state_[vi] == NodeState::Forbidden) {
      frontier_[vi] = acc;  // skip-only: the child fold is the frontier
      return;
    }
    const std::span<const FrontierEntry> accView = arena_.view(acc);
    scratch_.assign(accView.begin(), accView.end());
    // First fold entry whose residual a replica at v may absorb (Closest:
    // a replica takes *all* subtree flow, so it needs flow <= W).
    const std::size_t k0 = ClosestKernel::placePoint(
        scratch_.size(), capacity_, [this](std::size_t i) { return scratch_[i].flow; });
    const std::uint32_t begin = arena_.beginSpan();
    switch (state_[vi]) {
      case NodeState::Free:
        // Keep the fold up to the place point; (count+1, 0) dominates every
        // later entry. Nothing to add when the fold already reaches flow 0.
        for (std::size_t i = 0; i < scratch_.size() && i <= k0; ++i)
          arena_.push(scratch_[i]);
        if (k0 < scratch_.size() && scratch_[k0].flow > 0)
          arena_.push({scratch_[k0].count + 1, 0, -1, -1});
        break;
      case NodeState::FreeZero:
        // A free replica absorbs at no cost: (count_k0, 0) dominates the
        // k0 entry itself and everything after it.
        for (std::size_t i = 0; i < k0; ++i) arena_.push(scratch_[i]);
        if (k0 < scratch_.size()) arena_.push({scratch_[k0].count, 0, -1, -1});
        break;
      case NodeState::Forced:
        if (k0 < scratch_.size())
          arena_.push({scratch_[k0].count + 1, 0, -1, -1});
        break;  // else: dead — no fold entry fits under W
      case NodeState::ForcedZero:
        if (k0 < scratch_.size()) arena_.push({scratch_[k0].count, 0, -1, -1});
        break;
      case NodeState::Forbidden:
        break;  // handled above
    }
    frontier_[vi] = arena_.endSpan(begin);
  }

  std::int32_t rootAnswer() const {
    const FrontierSpan span = frontier_[static_cast<std::size_t>(decomp_.rootBag())];
    if (span.empty()) return kInfeasibleCost;
    // Flows strictly decrease along a frontier: the fully-served point, if
    // any, is the last entry.
    const FrontierEntry& last = arena_.at(span, span.size - 1);
    return last.flow == 0 ? last.count : kInfeasibleCost;
  }

  const ProblemInstance* instance_;
  TreeDecomposition decomp_;
  FrontierArena arena_;
  FrontierConvolver conv_;
  MultitreeSolveStats* stats_;
  Requests capacity_;
  std::vector<NodeState> state_;
  std::vector<FrontierSpan> frontier_;
  std::vector<std::uint8_t> dirty_;
  std::vector<VertexId> dirtyList_;
  std::vector<std::int32_t> postIndex_;
  std::vector<FrontierEntry> scratch_;
  std::int32_t cached_ = kInfeasibleCost;
  std::size_t compactThreshold_ = 0;
};

}  // namespace

MultitreeSolveResult solveMultitreeClosest(const MultitreeInstance& instance,
                                           const MultitreeSolveOptions& options) {
  instance.validate();
  MultitreeSolveResult result;
  MultitreeSolveStats& stats = result.stats;
  const auto g = static_cast<int>(instance.sharedCount);
  const std::size_t treeCount = instance.treeCount();

  std::vector<std::unique_ptr<ConstrainedTreeDp>> dps;
  dps.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t)
    dps.push_back(std::make_unique<ConstrainedTreeDp>(instance.trees[t], stats));

  const auto setGateway = [&](VertexId gateway, NodeState state) {
    for (std::size_t t = 0; t < treeCount; ++t)
      if (instance.contains(t, gateway))
        dps[t]->setState(instance.localId(t, gateway), state);
  };
  for (VertexId gw = 0; gw < g; ++gw) setGateway(gw, NodeState::FreeZero);

  // inCount gateways are decided-in: total = inCount + per-tree private
  // optima. With undecided gateways relaxed to FreeZero this lower-bounds
  // every completion; with all gateways decided it is exact.
  const auto total = [&](std::int32_t inCount) -> std::int32_t {
    std::int64_t sum = inCount;
    for (auto& dp : dps) {
      const std::int32_t r = dp->resolve();
      if (r == kInfeasibleCost) return kInfeasibleCost;
      sum += r;
    }
    return static_cast<std::int32_t>(sum);
  };

  // Phase A: branch-and-bound over gateway in/out for the optimum size m*.
  std::int32_t best = kInfeasibleCost;
  std::vector<std::uint8_t> bestIn(static_cast<std::size_t>(g), 0);
  std::vector<std::uint8_t> currentIn(static_cast<std::size_t>(g), 0);
  const std::function<void(int, std::int32_t)> dfsOptimum =
      [&](int i, std::int32_t inCount) {
        if (stats.dfsNodes >= options.maxDfsNodes) {
          stats.exhausted = true;
          return;
        }
        ++stats.dfsNodes;
        const std::int32_t lb = total(inCount);
        if (lb >= best) return;  // covers infeasible subtrees too
        if (i == g) {
          best = lb;
          bestIn = currentIn;
          return;
        }
        currentIn[static_cast<std::size_t>(i)] = 0;
        setGateway(i, NodeState::Forbidden);
        dfsOptimum(i + 1, inCount);
        currentIn[static_cast<std::size_t>(i)] = 1;
        setGateway(i, NodeState::ForcedZero);
        dfsOptimum(i + 1, inCount + 1);
        setGateway(i, NodeState::FreeZero);
      };
  dfsOptimum(0, 0);
  if (best == kInfeasibleCost) return result;  // infeasible (or valve tripped dry)
  const std::int32_t target = best;

  // Phase B: gateway lexico scan. Accept the smallest ids first: gateway v
  // joins the forced set F iff some completion of F + {v} still reaches m*.
  // A rejected id can never re-enter a later conditional optimum (rejection
  // is monotone in F), so it is soundly Forbidden from here on.
  std::vector<std::uint8_t> accepted(static_cast<std::size_t>(g), 0);
  std::int32_t acceptedShared = 0;
  const auto adoptBestLeaf = [&]() {
    acceptedShared = 0;
    for (VertexId gw = 0; gw < g; ++gw) {
      accepted[static_cast<std::size_t>(gw)] = bestIn[static_cast<std::size_t>(gw)];
      setGateway(gw, bestIn[static_cast<std::size_t>(gw)] ? NodeState::ForcedZero
                                                          : NodeState::Forbidden);
      acceptedShared += bestIn[static_cast<std::size_t>(gw)];
    }
  };
  if (!options.lexico || stats.exhausted) {
    adoptBestLeaf();
  } else {
    const std::function<bool(int, std::int32_t)> achievesTarget =
        [&](int i, std::int32_t inCount) -> bool {
      if (stats.dfsNodes >= options.maxDfsNodes) {
        stats.exhausted = true;
        return false;
      }
      ++stats.dfsNodes;
      const std::int32_t lb = total(inCount);
      if (lb > target) return false;  // conditional minima never undershoot m*
      if (i == g) return lb == target;
      setGateway(i, NodeState::Forbidden);
      if (achievesTarget(i + 1, inCount)) {
        setGateway(i, NodeState::FreeZero);
        return true;
      }
      setGateway(i, NodeState::ForcedZero);
      const bool viaIn = achievesTarget(i + 1, inCount + 1);
      setGateway(i, NodeState::FreeZero);
      return viaIn;
    };
    for (VertexId gw = 0; gw < g && !stats.exhausted; ++gw) {
      ++stats.lexicoTests;
      setGateway(gw, NodeState::ForcedZero);
      if (achievesTarget(gw + 1, acceptedShared + 1)) {
        accepted[static_cast<std::size_t>(gw)] = 1;
        ++acceptedShared;
      } else {
        setGateway(gw, NodeState::Forbidden);
      }
    }
    if (stats.exhausted) adoptBestLeaf();
  }
  TREEPLACE_REQUIRE(total(acceptedShared) == target,
                    "gateway scan lost the multitree optimum");

  // Phase C: private lexico scan, ascending global id. All cross-tree
  // coupling is settled, so each probe touches exactly one member tree and
  // re-resolves only the root path of the probed vertex. Once |F| == m* the
  // remaining ids are provably rejectable — forcing any would overshoot.
  std::vector<VertexId> replicas;
  for (VertexId gw = 0; gw < g; ++gw)
    if (accepted[static_cast<std::size_t>(gw)]) replicas.push_back(gw);
  for (const VertexId v : instance.globalInternals()) {
    if (static_cast<std::int32_t>(replicas.size()) == target) break;
    if (instance.isShared(v)) continue;
    std::size_t owner = treeCount;
    for (std::size_t t = 0; t < treeCount; ++t)
      if (instance.contains(t, v)) {
        owner = t;
        break;
      }
    const VertexId local = instance.localId(owner, v);
    ++stats.lexicoTests;
    dps[owner]->setState(local, NodeState::Forced);
    if (total(acceptedShared) == target)
      replicas.push_back(v);
    else
      dps[owner]->setState(local, NodeState::Free);
  }
  TREEPLACE_REQUIRE(static_cast<std::int32_t>(replicas.size()) == target,
                    "lexicographic scan failed to reproduce the optimum");

  MultitreePlacement placement;
  placement.replicas = std::move(replicas);
  placement.perTree.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) {
    Placement p(instance.trees[t].tree.vertexCount());
    for (const VertexId r : placement.replicas)
      if (instance.contains(t, r)) p.addReplica(instance.localId(t, r));
    assignClientsToClosest(instance.trees[t], p);
    placement.perTree.push_back(std::move(p));
  }
  result.feasible = true;
  result.placement = std::move(placement);
  return result;
}

MultitreeBruteForceResult solveMultitreeClosestBruteForce(
    const MultitreeInstance& instance, std::size_t maxInternals) {
  MultitreeBruteForceResult result;
  const std::vector<VertexId> internals = instance.globalInternals();
  if (internals.size() > maxInternals || internals.size() >= 63) return result;
  result.solved = true;

  const std::size_t treeCount = instance.treeCount();
  std::vector<Requests> capacity(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t)
    capacity[t] = instance.trees[t].homogeneousCapacity();

  std::vector<char> inSet(static_cast<std::size_t>(instance.globalVertexCount), 0);
  std::vector<VertexId> candidate;
  std::vector<Requests> load;
  std::vector<VertexId> bestSet;
  bool haveBest = false;

  for (std::uint64_t mask = 0; mask < (1ull << internals.size()); ++mask) {
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if (haveBest && count > bestSet.size()) continue;
    candidate.clear();
    for (std::size_t i = 0; i < internals.size(); ++i)
      if ((mask >> i) & 1) candidate.push_back(internals[i]);
    if (haveBest && count == bestSet.size() && !(candidate < bestSet)) continue;

    for (const VertexId r : candidate) inSet[static_cast<std::size_t>(r)] = 1;
    bool feasible = true;
    for (std::size_t t = 0; t < treeCount && feasible; ++t) {
      const ProblemInstance& member = instance.trees[t];
      load.assign(member.tree.vertexCount(), 0);
      for (const VertexId c : member.tree.clients()) {
        VertexId server = kNoVertex;
        for (VertexId u = member.tree.parent(c); u != kNoVertex;
             u = member.tree.parent(u)) {
          if (inSet[static_cast<std::size_t>(instance.globalId(t, u))]) {
            server = u;
            break;
          }
        }
        if (server == kNoVertex) {
          feasible = false;
          break;
        }
        load[static_cast<std::size_t>(server)] +=
            member.requests[static_cast<std::size_t>(c)];
      }
      if (feasible)
        for (const VertexId j : member.tree.internals())
          if (load[static_cast<std::size_t>(j)] > capacity[t]) {
            feasible = false;
            break;
          }
    }
    for (const VertexId r : candidate) inSet[static_cast<std::size_t>(r)] = 0;
    if (feasible) {
      bestSet = candidate;
      haveBest = true;
    }
  }
  result.feasible = haveBest;
  result.replicas = std::move(bestSet);
  return result;
}

}  // namespace treeplace

#include "exact/multitree_closest.hpp"

#include <bit>
#include <functional>
#include <limits>

#include "core/frontier_drivers.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr std::int32_t kInfeasibleCost = std::numeric_limits<std::int32_t>::max();

/// One member tree's conditional Closest optimum under a VertexConstraint
/// per vertex, memoized in a FrontierMemo. Re-constraining a vertex stamps
/// its root path, so a branch-and-bound probe re-folds O(depth) bags instead
/// of the whole tree (the Closest frontier of a subtree depends on nothing
/// outside it). The search never reconstructs — the final replica set is
/// exactly the forced set — so the memo only answers "what is the cheapest
/// completion"; its combo chains serve prefix reuse alone.
class MemberTree {
 public:
  explicit MemberTree(const ProblemInstance& instance)
      : instance_(&instance),
        decomp_(instance.tree),
        constraint_(instance.tree.vertexCount(), VertexConstraint::Free) {
    memo_.init(decomp_, true);
  }

  void constrain(VertexId v, VertexConstraint next) {
    auto& current = constraint_[static_cast<std::size_t>(v)];
    if (current == next) return;
    current = next;
    memo_.stamp(instance_->tree, {&v, 1});
  }

  /// Cheapest cost-weighted replica count serving every client of the tree
  /// under the current constraints, or kInfeasibleCost.
  std::int32_t resolve(MultitreeSolveStats& stats) {
    if (memo_.dirty()) {
      ++stats.dpResolves;
      if (memo_.compactIfBloated()) ++stats.compactions;
      stats.dirtyRecomputes +=
          memo_.refold(ConstrainedClosestKernel(*instance_, constraint_), decomp_);
      const ArenaStore<FrontierEntry> store(memo_.arena);
      const FrontierSpan root = memo_.frontier[static_cast<std::size_t>(decomp_.rootBag())];
      const std::int32_t best = rootEntry(store, root);
      cached_ = best < 0 ? kInfeasibleCost : store.at(root, static_cast<std::size_t>(best)).count;
    }
    return cached_;
  }

 private:
  const ProblemInstance* instance_;
  TreeDecomposition decomp_;
  std::vector<VertexConstraint> constraint_;
  FrontierMemo<FrontierEntry> memo_;
  std::int32_t cached_ = kInfeasibleCost;
};

}  // namespace

MultitreeSolveResult solveMultitreeClosest(const MultitreeInstance& instance,
                                           const MultitreeSolveOptions& options) {
  instance.validate();
  MultitreeSolveResult result;
  MultitreeSolveStats& stats = result.stats;
  const auto g = static_cast<int>(instance.sharedCount);
  const std::size_t treeCount = instance.treeCount();

  std::vector<MemberTree> members;
  members.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) members.emplace_back(instance.trees[t]);

  const auto setGateway = [&](VertexId gateway, VertexConstraint rule) {
    for (std::size_t t = 0; t < treeCount; ++t)
      if (instance.contains(t, gateway))
        members[t].constrain(instance.localId(t, gateway), rule);
  };
  for (VertexId gw = 0; gw < g; ++gw) setGateway(gw, VertexConstraint::FreeZero);

  // inCount gateways are decided-in: total = inCount + per-tree private
  // optima. With undecided gateways relaxed to FreeZero this lower-bounds
  // every completion; with all gateways decided it is exact.
  const auto total = [&](std::int32_t inCount) -> std::int32_t {
    std::int64_t sum = inCount;
    for (MemberTree& member : members) {
      const std::int32_t r = member.resolve(stats);
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
        setGateway(i, VertexConstraint::Forbidden);
        dfsOptimum(i + 1, inCount);
        currentIn[static_cast<std::size_t>(i)] = 1;
        setGateway(i, VertexConstraint::ForcedZero);
        dfsOptimum(i + 1, inCount + 1);
        setGateway(i, VertexConstraint::FreeZero);
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
      setGateway(gw, bestIn[static_cast<std::size_t>(gw)] ? VertexConstraint::ForcedZero
                                                          : VertexConstraint::Forbidden);
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
      setGateway(i, VertexConstraint::Forbidden);
      if (achievesTarget(i + 1, inCount)) {
        setGateway(i, VertexConstraint::FreeZero);
        return true;
      }
      setGateway(i, VertexConstraint::ForcedZero);
      const bool viaIn = achievesTarget(i + 1, inCount + 1);
      setGateway(i, VertexConstraint::FreeZero);
      return viaIn;
    };
    for (VertexId gw = 0; gw < g && !stats.exhausted; ++gw) {
      ++stats.lexicoTests;
      setGateway(gw, VertexConstraint::ForcedZero);
      if (achievesTarget(gw + 1, acceptedShared + 1)) {
        accepted[static_cast<std::size_t>(gw)] = 1;
        ++acceptedShared;
      } else {
        setGateway(gw, VertexConstraint::Forbidden);
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
    members[owner].constrain(local, VertexConstraint::Forced);
    if (total(acceptedShared) == target)
      replicas.push_back(v);
    else
      members[owner].constrain(local, VertexConstraint::Free);
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

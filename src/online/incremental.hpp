#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/bounds.hpp"
#include "core/frontier.hpp"
#include "core/frontier_drivers.hpp"
#include "core/placement.hpp"
#include "online/delta.hpp"
#include "support/budget.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// The homogeneous exact solvers the incremental engine can mirror. Policy
/// (core/policy) names the paper's access policies; this names concrete DP
/// *solvers* — Closest+QoS is the same access policy as Closest with the
/// 3-D QoS frontier DP underneath, hence its own entry.
enum class OnlinePolicy : std::uint8_t {
  Closest,     ///< exact/closest_homogeneous frontier DP
  Multiple,    ///< exact/multiple_homogeneous frontier DP
  ClosestQos,  ///< exact/closest_qos 3-D frontier DP
};

constexpr std::string_view toString(OnlinePolicy policy) {
  switch (policy) {
    case OnlinePolicy::Closest: return "Closest";
    case OnlinePolicy::Multiple: return "Multiple";
    case OnlinePolicy::ClosestQos: return "ClosestQos";
  }
  return "?";
}

/// Telemetry of a memoized frontier cache (see experiments/report for
/// rendering). hits/misses count per-vertex subtree results across all
/// resolves; invalidations count dirty stamps applied by mutations.
struct FrontierCacheStats {
  std::size_t trackedVertices = 0;   ///< vertices under cache management
  std::size_t hits = 0;              ///< clean subtree frontiers reused
  std::size_t misses = 0;            ///< subtree frontiers recomputed
  std::size_t invalidations = 0;     ///< per-vertex dirty stamps applied
  std::size_t globalInvalidations = 0;  ///< whole-cache flushes (capacity W)
  std::size_t compactions = 0;       ///< arena copy-compaction passes
  std::size_t arenaEntries = 0;      ///< slab entries after the last resolve
  std::size_t arenaBytes = 0;        ///< slab footprint, bytes
  /// Resolves that failed mid-flight (allocation fault, repair invariant
  /// trip), dropped every cache, and re-solved from scratch — the resilience
  /// fallback, not a steady-state event.
  std::size_t scratchFallbacks = 0;

  double hitRate() const {
    const std::size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Incremental re-optimization engine for the polynomial homogeneous solvers
/// (Closest, Multiple via the frontier DP, Closest+QoS).
///
/// The subtree frontiers live in a FrontierMemo (core/frontier_drivers): a
/// mutation stamps only the touched vertices and their root paths, and a
/// re-solve re-folds those O(depth) bags through the policy's kernel
/// (core/frontier_kernels) with the batch solvers' merge order and caps,
/// reusing everything else. What the solver adds on top is its own:
/// translating deltas into stamps, the backpointer reconstruction (which
/// skips every subtree whose choice and stamps are unchanged) and the repair
/// of the incumbent assignment. The incremental placement is bit-identical to
/// a from-scratch solve after every step — the equivalence tests pin this
/// down per policy.
///
/// The instance is shared with the caller (scratch comparisons and the
/// mutation driver read it); it must outlive the solver and mutate only
/// through apply().
class IncrementalSolver {
 public:
  IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy);

  OnlinePolicy policy() const { return policy_; }

  /// Apply one mutation to the shared instance and invalidate the affected
  /// subtree caches (touched vertices + root paths, O(depth) stamps).
  DeltaApplication apply(const InstanceDelta& delta);

  /// TEST HOOK: apply the instance edit but skip cache invalidation. This
  /// deliberately breaks the dirty-closure invariant — the cache-poisoning
  /// test uses it to prove a too-small dirty set yields a stale answer.
  /// Structural deltas are invalidated normally (the grown tables need their
  /// stamps to stay in bounds); only value deltas skip the stamps.
  DeltaApplication applyWithoutInvalidation(const InstanceDelta& delta);

  /// Re-solve from the caches: recompute dirty subtree frontiers bottom-up,
  /// reuse clean ones, reconstruct the placement through the cached
  /// backpointers. nullopt when the mutated instance is infeasible.
  ///
  /// `guard`, when non-null, is ticked once per recomputed vertex and throws
  /// SolveInterrupted on a trip. The checkpoint fires BEFORE a vertex is
  /// stamped, so an interrupted resolve leaves every cache exact and the
  /// pending dirty set intact — a later resolve (with or without budget)
  /// simply continues from where the interrupted one stopped.
  ///
  /// Any other mid-resolve failure (an allocation fault inside arena growth,
  /// a repair invariant trip on a poisoned cache) is self-healing: the solver
  /// drops every cache and the incumbent assignment, re-solves the same
  /// instance from scratch once (counted in cacheStats().scratchFallbacks),
  /// and only rethrows if the scratch pass fails too — a fault costs latency,
  /// never a wrong placement.
  std::optional<Placement> resolve(BudgetGuard* guard = nullptr);

  const FrontierCacheStats& cacheStats() const { return stats_; }

 private:
  void noteDelta(const DeltaApplication& app);
  /// One resolve attempt through the policy's kernel on its memo.
  std::optional<Placement> resolveOnce(BudgetGuard* guard);
  template <typename Kernel>
  std::optional<Placement> resolveWith(const Kernel& kernel,
                                       FrontierMemo<typename Kernel::Entry>& memo,
                                       BudgetGuard* guard);
  /// Runs `f` on the policy's memo (2-D or QoS).
  template <typename F>
  void withMemo(F&& f) {
    if (policy_ == OnlinePolicy::ClosestQos)
      f(memoQos_);
    else
      f(memo2d_);
  }
  /// Drop every cache, the reconstruction memo, and the incumbent
  /// assignment — back to the just-constructed state against the current
  /// instance. The scratch-fallback path of resolve().
  void invalidateCaches();
  void rebuildPositions();
  template <typename Entry>
  void reconstruct(const FrontierMemo<Entry>& memo, std::int32_t rootEntryIndex);
  /// Persistent-assignment maintenance after a feasible reconstruct: either a
  /// full rebuild (first solve, structural growth, Multiple after a global W
  /// change) or an O(changed region) repair driven by the replica-bit flips
  /// the walk collected plus the clients whose rates mutated.
  void refreshClosestAssignment(const std::vector<char>& replicaBit);
  void refreshMultipleAssignment(const std::vector<char>& replicaBit);
  void repairClosestAssignment(const std::vector<char>& replicaBit);
  void repairMultipleAssignment(const std::vector<char>& replicaBit);

  ProblemInstance* instance_;
  OnlinePolicy policy_;
  FrontierCacheStats stats_;
  FrontierMemo<FrontierEntry> memo2d_;       ///< Closest/Multiple
  FrontierMemo<QosFrontierEntry> memoQos_;   ///< Closest + QoS

  /// Reconstruction memo, per vertex: the entry index the last backpointer
  /// walk chose, the memo epoch of that walk, and the resulting replica bit.
  /// A walk that reaches a vertex with the same entry index and no stamp in
  /// its subtree since (chosenEpoch >= dirtySince) skips the whole subtree —
  /// its bits are still exact.
  std::vector<std::int32_t> chosenEntry_;
  std::vector<std::uint64_t> chosenEpoch_;
  std::vector<char> replicaBit_;
  /// Clients whose request rate changed since the last *successful* repair
  /// (infeasible steps leave the incumbent assignment untouched, so their
  /// changes carry forward until a feasible step consumes them).
  std::vector<VertexId> pendingChangedClients_;
  std::vector<VertexId> flips_;  ///< replica bits flipped by the last walk

  /// The incumbent assignment, repaired in place step over step. resolve()
  /// hands out copies; the incumbent itself never leaves the solver.
  std::optional<Placement> placement_;
  bool assignRebuildNeeded_ = true;
  /// Per-server absorption lists of the incumbent Multiple assignment
  /// ((client, amount) per share, unordered): the undo side of the
  /// undo/replay repair. Maintained only for OnlinePolicy::Multiple.
  std::vector<std::vector<std::pair<VertexId, Requests>>> serverTakes_;
  /// Closest/Qos: clients currently served by each replica, sorted by their
  /// position in tree.clients(). A replica flip then touches exactly the
  /// clients whose nearest replica moved — the removed server's own list, or
  /// the subtree slice of the strict ancestors' lists — instead of every
  /// client under the flipped vertex.
  std::vector<std::vector<VertexId>> serverClients_;

  std::vector<std::int32_t> postPos_;      ///< postorder position per vertex
  std::vector<std::int32_t> clientIndex_;  ///< index in tree.clients(), -1 else
  std::vector<Requests> remainingScratch_;  ///< valid only for tracked clients
  std::vector<std::uint64_t> pathMark_;    ///< root-path walk dedup stamps
  std::vector<std::uint64_t> clientMark_;  ///< tracked-client dedup stamps
  std::uint64_t markGen_ = 0;
};

/// Memoized core/bounds FrontierSubtreeRelaxation: the per-subtree
/// relaxation frontiers (the Multiple kernel under W_v — valid for every
/// policy) are recomputed through the same relaxation step, but only for
/// the bags a FrontierMemo holds dirty, while the cheap derived passes
/// (ancestor capacities, per-subtree replica floors R_v, the additive
/// decomposition bound) are rerun per refresh. Feeds knownLowerBound into
/// the warm ILP re-solve path.
class IncrementalBounds {
 public:
  explicit IncrementalBounds(ProblemInstance& instance);

  /// Invalidate after a delta someone else already applied to the instance.
  void noteDelta(const DeltaApplication& app);

  /// Convenience for standalone use: applyDelta + noteDelta.
  DeltaApplication apply(const InstanceDelta& delta);

  /// Recompute dirty relaxation frontiers and the derived floors/bound.
  void refresh();

  bool feasible() const { return floors_.feasible; }
  double decompositionBound() const { return floors_.decompositionBound; }
  std::int32_t minReplicasIn(VertexId v) const {
    return floors_.minReplicas[static_cast<std::size_t>(v)];
  }
  std::int32_t minTotalReplicas() const {
    return minReplicasIn(instance_->tree.root());
  }
  const FrontierCacheStats& cacheStats() const { return stats_; }

 private:
  ProblemInstance* instance_;
  FrontierCacheStats stats_;
  FrontierMemo<FrontierEntry> memo_;
  detail::RelaxationFloors floors_;
};

}  // namespace treeplace

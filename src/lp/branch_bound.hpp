#pragma once

#include <vector>

#include "lp/simplex.hpp"
#include "lp/workspace.hpp"
#include "support/budget.hpp"

namespace treeplace::lp {

struct MipOptions {
  SimplexOptions lp;
  double integralityTol = 1e-6;
  long maxNodes = 100000;         ///< branch-and-bound node budget
  double initialUpperBound = kInfinity;  ///< objective of a known feasible point
  double absoluteGap = 1e-6;      ///< prune/stop tolerance on the objective
  /// When every feasible objective is known to be a multiple of this value
  /// (e.g. 1 for integral costs), node bounds are rounded up to the next
  /// multiple, which closes gaps dramatically faster. 0 disables rounding.
  double objectiveGranularity = 0.0;
  /// Externally proven lower bound on the optimum (e.g. a combinatorial
  /// relaxation). Folded into every node bound: the search stops as soon as
  /// the incumbent meets it. -infinity disables it.
  double knownLowerBound = -kInfinity;
  /// Run the warm worker-pool engine: node LPs re-solve with the dual
  /// simplex from the previous optimal basis inside per-worker persistent
  /// LpWorkspaces (no per-node model copies). Off runs the cold oracle, which
  /// builds and solves every node LP from scratch — the independent reference
  /// the equivalence tests compare against; `workers` and `workspace` are
  /// then ignored. A model with a free integer variable (under
  /// explicitBoundRows: one without a finite range) always runs cold.
  bool warmStart = true;
  /// Optional per-variable branching priority (size = variableCount, higher
  /// branches first): among fractional integer variables the highest
  /// priority class wins, most-fractional breaks ties. Empty keeps pure
  /// most-fractional branching. Facility-location models branch their
  /// placement indicators before the assignment variables this way.
  std::vector<int> branchPriority;
  /// A feasible point of the model (size == variableCount) seeding the
  /// incumbent: its objective becomes the initial upper bound AND the point
  /// is returned when the search finds nothing better. Feasibility is the
  /// caller's contract (integer entries must be integral within tolerance);
  /// the online layer seeds the previous placement here so a re-solve after
  /// a small mutation often closes at the root node. Empty disables seeding.
  std::vector<double> initialIncumbent;
  /// Caller-owned persistent workspace reused across solveMip calls on the
  /// SAME standard form (bounds/rhs may differ; the matrix may not). The
  /// engine re-syncs boxes and rhs from the model at entry and then re-solves
  /// the root LP with the dual simplex from the previous run's final basis —
  /// the cross-solve analogue of the per-node warm start. It becomes worker
  /// 0's workspace, which always solves the root; further workers clone it
  /// after the re-sync. Ignored when the cold oracle runs. The workspace must
  /// have been built from this model (or one sharing its standard form) with
  /// the same SimplexOptions.
  LpWorkspace* workspace = nullptr;
  /// Branch-and-bound worker threads of the warm engine. 0 and 1 both run
  /// one worker inline on the calling thread: a deterministic best-bound
  /// search (tests/test_parallel_bb.cpp pins its node counts, solve mix and
  /// budget use). N >= 2 runs N threads, each owning its own arena-backed
  /// LpWorkspace, that claim best-bound nodes from a sharded pool (one
  /// granularity-bucketed shard per worker, work stealing when a shard runs
  /// dry), share the incumbent through an atomic objective, and detect
  /// termination with an epoch-counted outstanding-node protocol; node
  /// counts then vary from run to run, the proven optimum does not.
  int workers = 0;
  /// Optional shared budget: every node pop ticks it, after the maxNodes
  /// check and only when a node is available (and, unless
  /// options.lp.guard is already set, node LP pivots tick the same guard).
  /// On a trip the search stops exactly like the node budget — the incumbent
  /// and the global dual bound stay valid, proven turns false, and
  /// MipResult::stopReason records why. Non-owning; must outlive the solve.
  BudgetGuard* guard = nullptr;
};

/// Outcome of a branch-and-bound run. `lowerBound` is a valid global dual
/// bound on the MIP optimum even when the node budget was exhausted — this is
/// what the Section 7 experiments use as the "refined lower bound" when the
/// tree is too large to solve to proven optimality.
struct MipResult {
  SolveStatus status = SolveStatus::Infeasible;
  bool proven = false;            ///< search space exhausted or gap closed
  double objective = kInfinity;   ///< best feasible objective known (may stem
                                  ///< from options.initialUpperBound)
  std::vector<double> values;     ///< incumbent point; empty if only the
                                  ///< external upper bound is known
  double lowerBound = -kInfinity;
  long nodesExplored = 0;
  WarmStartStats warm;            ///< LP re-solve telemetry (lp/workspace)
  double lpMillis = 0.0;          ///< wall time spent inside node LP solves
  /// Why the search stopped early (Ok = it ran to its natural end or only
  /// hit the classic maxNodes cap). The [lowerBound, objective] bracket is
  /// certified regardless of the verdict.
  BudgetVerdict stopReason = BudgetVerdict::Ok;

  bool hasIncumbent() const { return !values.empty(); }
  /// Average LP re-solve cost per explored node, in milliseconds.
  double resolveMillisPerNode() const {
    return nodesExplored > 0 ? lpMillis / static_cast<double>(nodesExplored) : 0.0;
  }
};

/// Best-bound branch-and-bound over the integer variables of `model`,
/// branching on the most fractional variable. Node LPs run inside one
/// arena-backed LpWorkspace: children re-solve with the dual simplex from the
/// parent-side basis (bound changes only move the rhs), falling back to a
/// cold two-phase primal on numerical trouble. Nodes store only their bound
/// delta-chain — no per-node bound vectors, no model copies. Minimisation.
MipResult solveMip(const Model& model, const MipOptions& options = {});

}  // namespace treeplace::lp

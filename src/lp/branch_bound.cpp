#include "lp/branch_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

#include "lp/bb_detail.hpp"
#include "lp/tolerances.hpp"
#include "support/require.hpp"

namespace treeplace::lp {

void detail::seedIncumbent(const Model& model, const MipOptions& options,
                           const std::vector<int>& integers, double& objective,
                           std::vector<double>& values) {
  if (options.initialIncumbent.empty()) return;
  TREEPLACE_REQUIRE(
      static_cast<int>(options.initialIncumbent.size()) == model.variableCount(),
      "initialIncumbent size must match the model's variable count");
  const double seeded = model.evaluateObjective(options.initialIncumbent);
  if (seeded >= objective) return;
  objective = seeded;
  values = options.initialIncumbent;
  for (const int j : integers)
    values[static_cast<std::size_t>(j)] = std::round(values[static_cast<std::size_t>(j)]);
}

namespace {

using detail::millisSince;
using detail::pickBranchVariable;
using detail::roundBound;

/// Cold oracle engine: every node LP is built and solved from scratch on a
/// model copy. Kept both as the fallback for models whose free integer
/// variables the workspace's fixed standard form cannot absorb and as the
/// independent reference the warm-vs-cold equivalence tests compare against.
MipResult solveMipCold(const Model& model, const MipOptions& options,
                       const std::vector<int>& integers) {
  struct Node {
    std::vector<double> lower;
    std::vector<double> upper;
    double bound;  ///< inherited dual bound (parent LP objective)

    bool operator<(const Node& other) const {
      return bound > other.bound;  // min-heap via priority_queue
    }
  };

  MipResult result;
  result.objective = options.initialUpperBound;
  detail::seedIncumbent(model, options, integers, result.objective, result.values);

  Model working = model;

  const auto solveNodeLp = [&](const Node& node) {
    for (int j = 0; j < working.variableCount(); ++j)
      working.setBounds(j, node.lower[static_cast<std::size_t>(j)],
                        node.upper[static_cast<std::size_t>(j)]);
    const auto t0 = std::chrono::steady_clock::now();
    LpSolution solution = solveLp(working, options.lp);
    result.lpMillis += millisSince(t0);
    ++result.warm.coldSolves;
    return solution;
  };

  Node root;
  root.lower.resize(static_cast<std::size_t>(model.variableCount()));
  root.upper.resize(static_cast<std::size_t>(model.variableCount()));
  for (int j = 0; j < model.variableCount(); ++j) {
    root.lower[static_cast<std::size_t>(j)] = model.lower(j);
    root.upper[static_cast<std::size_t>(j)] = model.upper(j);
  }
  root.bound = -kInfinity;

  std::priority_queue<Node> open;
  open.push(std::move(root));

  double minClosedBound = kInfinity;  // min final bound over closed leaves
  bool sawIterationLimit = false;
  bool hitNodeLimit = false;

  while (!open.empty()) {
    if (result.nodesExplored >= options.maxNodes) {
      // Open nodes remain: the budget genuinely truncated the search. A pool
      // that empties exactly at the budget is a completed (provable) search.
      hitNodeLimit = true;
      break;
    }
    if (options.guard != nullptr &&
        options.guard->tick() != BudgetVerdict::Ok) {
      // Shared budget tripped: stop like the node cap — incumbent and global
      // dual bound stay valid, the result just loses its optimality proof.
      hitNodeLimit = true;
      result.stopReason = options.guard->verdict();
      break;
    }
    Node node = open.top();
    open.pop();
    ++result.nodesExplored;

    if (std::max(node.bound, options.knownLowerBound) >=
        result.objective - options.absoluteGap) {
      // Best-first order: every remaining node is at least as bad.
      minClosedBound = std::min(minClosedBound, node.bound);
      while (!open.empty()) {
        minClosedBound = std::min(minClosedBound, open.top().bound);
        open.pop();
      }
      break;
    }

    const LpSolution relax = solveNodeLp(node);
    if (relax.status == SolveStatus::Infeasible) continue;  // closed: no solutions
    if (relax.status == SolveStatus::Unbounded) {
      result.status = SolveStatus::Unbounded;
      result.lowerBound = -kInfinity;
      return result;
    }
    if (relax.status == SolveStatus::IterationLimit) {
      // Numerical bail-out: the subtree keeps only its inherited bound.
      sawIterationLimit = true;
      minClosedBound = std::min(minClosedBound, node.bound);
      continue;
    }

    const double lpBound = roundBound(relax.objective, options.objectiveGranularity);
    const double nodeBound = std::max(node.bound, lpBound);
    if (std::max(nodeBound, options.knownLowerBound) >=
        result.objective - options.absoluteGap) {
      minClosedBound = std::min(minClosedBound, nodeBound);
      continue;
    }

    const int branchVar = pickBranchVariable(relax.values, integers,
                                             options.branchPriority,
                                             options.integralityTol);

    if (branchVar < 0) {
      // Integral: new incumbent.
      if (relax.objective < result.objective - options.absoluteGap) {
        result.objective = relax.objective;
        result.values = relax.values;
        // Round integer values exactly for downstream decoding.
        for (const int j : integers)
          result.values[static_cast<std::size_t>(j)] =
              std::round(result.values[static_cast<std::size_t>(j)]);
      }
      minClosedBound = std::min(minClosedBound, relax.objective);
      continue;
    }

    const double value = relax.values[static_cast<std::size_t>(branchVar)];
    Node down = node;
    down.upper[static_cast<std::size_t>(branchVar)] = std::floor(value);
    down.bound = nodeBound;
    if (down.lower[static_cast<std::size_t>(branchVar)] <=
        down.upper[static_cast<std::size_t>(branchVar)])
      open.push(std::move(down));

    Node up = std::move(node);
    up.lower[static_cast<std::size_t>(branchVar)] = std::ceil(value);
    up.bound = nodeBound;
    if (up.lower[static_cast<std::size_t>(branchVar)] <=
        up.upper[static_cast<std::size_t>(branchVar)])
      open.push(std::move(up));
  }

  // Global dual bound: open nodes still count.
  double bound = minClosedBound;
  while (!open.empty()) {
    bound = std::min(bound, open.top().bound);
    open.pop();
  }
  if (bound == kInfinity) {
    if (result.objective == kInfinity) {
      result.status = SolveStatus::Infeasible;
      result.proven = !sawIterationLimit;
      result.lowerBound = kInfinity;
      return result;
    }
    bound = result.objective;
  }
  bound = std::max(bound, options.knownLowerBound);
  result.lowerBound = std::min(bound, result.objective);
  result.proven = !hitNodeLimit && !sawIterationLimit &&
                  result.lowerBound >= result.objective - options.absoluteGap * 2;
  result.status = SolveStatus::Optimal;
  return result;
}

}  // namespace

MipResult solveMip(const Model& model, const MipOptions& optionsIn) {
  // Thread a caller-supplied budget down into the node LPs too, so pivots
  // and node pops charge the same shared guard.
  MipOptions options = optionsIn;
  if (options.guard != nullptr && options.lp.guard == nullptr)
    options.lp.guard = options.guard;

  const std::vector<int> integers = model.integerVariables();
  bool warmEligible = options.warmStart;
  for (const int j : integers) {
    // The workspace's column mapping is fixed by the root bounds. With
    // bounded-variable columns any non-free integer absorbs both branch
    // directions as box updates; the legacy explicit-row oracle additionally
    // needs the finite range that owns its upper-bound row.
    const bool freeVar =
        model.lower(j) == -kInfinity && model.upper(j) == kInfinity;
    const bool fullRange =
        model.lower(j) != -kInfinity && model.upper(j) != kInfinity;
    if (options.lp.explicitBoundRows ? !fullRange : freeVar)
      warmEligible = false;  // branching would change the standard-form shape
  }
  return warmEligible ? detail::solveMipParallel(model, options, integers)
                      : solveMipCold(model, options, integers);
}

}  // namespace treeplace::lp

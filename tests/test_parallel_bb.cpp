// Worker-pool branch-and-bound vs the cold oracle: a 100+ instance
// comparison (same proven optimum, valid incumbent, for 0, 1, 2, 4, 8
// workers) plus the determinism harness — the one-worker search (workers 0
// and 1) must reproduce pinned node counts, solve mixes, pivot counts,
// bounds and budget use. The pins were recorded from the single-threaded
// warm engine the pool replaced; a changed value means a changed search.
#include "lp/branch_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "experiments/mutation_driver.hpp"
#include "online/warm_ilp.hpp"
#include "support/budget.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// 0/1 knapsack + a side pairing row; the same family test_warm_bb uses for
/// the warm-vs-cold oracle.
Model randomKnapsackMip(Prng& rng, int n = 8) {
  Model m;
  for (int j = 0; j < n; ++j)
    m.addVariable(0.0, 1.0, -static_cast<double>(rng.uniformInt(1, 30)),
                  VarType::Integer);
  std::vector<Term> row;
  for (int j = 0; j < n; ++j)
    row.push_back(t(j, static_cast<double>(rng.uniformInt(1, 12))));
  m.addConstraint(Sense::LessEqual, static_cast<double>(rng.uniformInt(10, 40)),
                  row);
  std::vector<Term> pair{t(static_cast<int>(rng.uniformInt(0, n - 1)), 1.0),
                         t(static_cast<int>(rng.uniformInt(0, n - 1)), 1.0)};
  m.addConstraint(Sense::LessEqual, 1.0, pair);
  return m;
}

/// The incumbent must actually satisfy the model: every row within tolerance,
/// every variable inside its box, every integer variable integral.
::testing::AssertionResult incumbentFeasible(const Model& m,
                                             const std::vector<double>& x) {
  constexpr double kTol = 1e-6;
  if (x.size() != static_cast<std::size_t>(m.variableCount()))
    return ::testing::AssertionFailure() << "incumbent has wrong arity";
  for (int j = 0; j < m.variableCount(); ++j) {
    const double v = x[static_cast<std::size_t>(j)];
    if (v < m.lower(j) - kTol || v > m.upper(j) + kTol)
      return ::testing::AssertionFailure()
             << "x[" << j << "]=" << v << " outside [" << m.lower(j) << ", "
             << m.upper(j) << "]";
  }
  for (const int j : m.integerVariables()) {
    const double v = x[static_cast<std::size_t>(j)];
    if (std::abs(v - std::round(v)) > kTol)
      return ::testing::AssertionFailure() << "x[" << j << "]=" << v
                                           << " not integral";
  }
  for (int r = 0; r < m.constraintCount(); ++r) {
    double lhs = 0.0;
    for (const Term& term : m.rowTerms(r))
      lhs += term.coefficient * x[static_cast<std::size_t>(term.variable)];
    const double rhs = m.rowRhs(r);
    const bool ok = m.rowSense(r) == Sense::LessEqual      ? lhs <= rhs + kTol
                    : m.rowSense(r) == Sense::GreaterEqual ? lhs >= rhs - kTol
                                                           : std::abs(lhs - rhs) <= kTol;
    if (!ok)
      return ::testing::AssertionFailure()
             << "row " << r << " violated: lhs=" << lhs << " rhs=" << rhs;
  }
  return ::testing::AssertionSuccess();
}

/// 100-instance oracle: every worker count returns the cold oracle's
/// optimal objective, proof status, and a genuinely feasible incumbent.
TEST(ParallelBranchBound, MatchesSerialOnRandomMips) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Prng rng(seed);
    const Model m = randomKnapsackMip(rng);

    MipOptions coldOptions;
    coldOptions.warmStart = false;
    const MipResult cold = solveMip(m, coldOptions);
    ASSERT_EQ(cold.warm.warmSolves, 0) << "seed " << seed;
    ++compared;

    for (const int workers : {0, 1, 2, 4, 8}) {
      MipOptions po;
      po.workers = workers;
      const MipResult parallel = solveMip(m, po);
      ASSERT_EQ(parallel.status, cold.status)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.proven, cold.proven)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.hasIncumbent(), cold.hasIncumbent())
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(parallel.warm.workers, std::max(1, workers)) << "seed " << seed;
      if (!cold.hasIncumbent()) continue;
      EXPECT_NEAR(parallel.objective, cold.objective, 1e-9)
          << "seed " << seed << " workers " << workers;
      EXPECT_TRUE(incumbentFeasible(m, parallel.values))
          << "seed " << seed << " workers " << workers;
    }
  }
  EXPECT_EQ(compared, 100);
}

/// End to end on the Section 5 ILP (granularity rounding, frontier cuts,
/// known lower bound, branch priorities all active): parallel workers return
/// the cold oracle's optimum and a policy-valid placement.
TEST(ParallelBranchBound, MatchesSerialOnIlpInstances) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const bool hetero = seed % 2 == 0;
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 1301 + (hetero ? 7 : 0), 0.6, hetero, /*unit=*/!hetero,
        /*minSize=*/6, /*maxSize=*/12);
    const Policy policy = seed % 2 == 0 ? Policy::Multiple : Policy::Upwards;

    ExactIlpOptions coldOptions;
    coldOptions.mip.warmStart = false;
    const ExactIlpResult cold = solveExactViaIlp(inst, policy, coldOptions);
    ++compared;
    for (const int workers : {0, 1, 4}) {
      ExactIlpOptions po;
      po.mip.workers = workers;
      const ExactIlpResult parallel = solveExactViaIlp(inst, policy, po);
      ASSERT_EQ(parallel.proven, cold.proven)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.feasible(), cold.feasible())
          << "seed " << seed << " workers " << workers;
      if (!cold.feasible()) continue;
      EXPECT_NEAR(parallel.cost, cold.cost, 1e-9)
          << "seed " << seed << " workers " << workers;
      EXPECT_TRUE(testutil::placementValid(inst, *parallel.placement, policy))
          << "seed " << seed << " workers " << workers;
    }
  }
  EXPECT_EQ(compared, 25);
}

/// Per-solve work of a one-worker search, as recorded from the
/// single-threaded warm engine.
struct PinnedSolve {
  long nodes;
  long coldSolves;
  long warmSolves;
  long warmAlreadyOptimal;
  long dualFallbacks;
  long primalIterations;
  long dualIterations;
  long boundFlips;
};

void expectPinned(long nodes, const WarmStartStats& warm, const PinnedSolve& pin,
                  const std::string& where) {
  EXPECT_EQ(nodes, pin.nodes) << where;
  EXPECT_EQ(warm.coldSolves, pin.coldSolves) << where;
  EXPECT_EQ(warm.warmSolves, pin.warmSolves) << where;
  EXPECT_EQ(warm.warmAlreadyOptimal, pin.warmAlreadyOptimal) << where;
  EXPECT_EQ(warm.dualFallbacks, pin.dualFallbacks) << where;
  EXPECT_EQ(warm.primalIterations, pin.primalIterations) << where;
  EXPECT_EQ(warm.dualIterations, pin.dualIterations) << where;
  EXPECT_EQ(warm.boundFlips, pin.boundFlips) << where;
}

/// Fixed-seed determinism: the one-worker search (workers 0 and 1 alike)
/// reproduces the pinned node count, solve mix, pivot counts, and the exact
/// objective/lower-bound doubles.
TEST(ParallelBranchBound, SingleWorkerIsBitIdenticalToSerial) {
  struct Pin {
    std::uint64_t seed;
    PinnedSolve work;
    double objective;
    double lowerBound;
  };
  const Pin pins[] = {
      {3, {10, 1, 8, 0, 0, 1, 14, 24}, -0x1.84p+6, -0x1.84p+6},
      {17, {18, 1, 16, 0, 0, 1, 24, 56}, -0x1.cp+6, -0x1.cp+6},
      {42, {14, 1, 12, 0, 0, 2, 18, 39}, -0x1.36p+7, -0x1.36p+7},
      {91, {20, 1, 18, 0, 0, 2, 18, 84}, -0x1.24p+6, -0x1.24p+6},
      {123, {6, 1, 4, 0, 0, 2, 8, 14}, -0x1.46p+7, -0x1.46p+7},
  };
  for (const Pin& pin : pins) {
    Prng rng(pin.seed);
    const Model m = randomKnapsackMip(rng, 10);
    for (const int workers : {0, 1}) {
      const std::string where =
          "seed " + std::to_string(pin.seed) + " workers " + std::to_string(workers);
      MipOptions po;
      po.workers = workers;
      const MipResult r = solveMip(m, po);
      ASSERT_EQ(r.status, SolveStatus::Optimal) << where;
      EXPECT_TRUE(r.proven) << where;
      expectPinned(r.nodesExplored, r.warm, pin.work, where);
      // Same arithmetic sequence => the doubles are bit-identical, not near.
      EXPECT_EQ(r.objective, pin.objective) << where;
      EXPECT_EQ(r.lowerBound, pin.lowerBound) << where;
      EXPECT_TRUE(incumbentFeasible(m, r.values)) << where;
      EXPECT_EQ(r.warm.stealCount, 0) << where;
      EXPECT_EQ(r.warm.workers, 1) << where;

      // And the run itself is reproducible.
      const MipResult again = solveMip(m, po);
      EXPECT_EQ(again.nodesExplored, r.nodesExplored) << where;
      EXPECT_EQ(again.values, r.values) << where;
    }
  }
}

/// A WarmIlpSession over 30 seeded mutations: every resolve re-enters the
/// B&B with the session's persistent workspace and, when the repaired
/// previous placement is feasible, a seeded incumbent. Per-resolve nodes and
/// solve mix are pinned; workers = 1 must run the very same search as the
/// default (the caller's workspace and the seed reach the one worker).
TEST(ParallelBranchBound, WarmIlpStreamMatchesPinnedSearch) {
  struct Step {
    PinnedSolve work;
    double cost;
  };
  const Step pins[] = {
      {{10, 1, 8, 0, 0, 127, 17, 17}, 8}, {{1, 0, 0, 0, 0, 0, 0, 0}, 8},
      {{16, 0, 15, 0, 0, 0, 76, 66}, 8},  {{17, 0, 16, 0, 0, 0, 68, 46}, 7},
      {{18, 1, 16, 0, 0, 115, 57, 71}, 6}, {{1, 0, 0, 0, 0, 0, 0, 0}, 6},
      {{9, 0, 8, 0, 0, 0, 23, 2}, 7},     {{17, 0, 16, 0, 0, 0, 57, 55}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{8, 0, 7, 0, 0, 0, 24, 19}, 6},
      {{9, 0, 8, 0, 0, 0, 19, 14}, 7},    {{13, 1, 11, 0, 0, 98, 20, 55}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{13, 1, 11, 0, 0, 108, 41, 101}, 7}, {{1, 0, 0, 0, 0, 0, 0, 0}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{9, 1, 7, 0, 0, 112, 12, 61}, 7},
      {{1, 0, 0, 0, 0, 0, 0, 0}, 7},      {{6, 1, 4, 0, 0, 116, 8, 59}, 7},
      {{14, 0, 13, 0, 0, 0, 62, 78}, 7},  {{10, 1, 8, 0, 0, 118, 31, 66}, 8},
  };
  for (const int workers : {0, 1}) {
    GeneratorConfig config;
    config.minSize = 24;
    config.maxSize = 32;
    config.clientFraction = 0.55;
    config.maxRequests = 8;
    config.lambda = 0.55;
    config.unitCosts = true;
    Prng rng(2);
    ProblemInstance instance = generateInstance(config, rng);
    MipOptions base;
    base.workers = workers;
    WarmIlpSession session(instance, base);
    const MutationWorkloadConfig mutations;
    Prng deltas(2 * 7919);
    int step = 0;
    for (const Step& pin : pins) {
      const std::string where =
          "workers " + std::to_string(workers) + " step " + std::to_string(step++);
      session.apply(drawMutation(instance, mutations, deltas));
      const ExactIlpResult r = session.resolve();
      ASSERT_TRUE(r.feasible()) << where;
      EXPECT_TRUE(r.proven) << where;
      EXPECT_EQ(r.cost, pin.cost) << where;
      expectPinned(r.nodesExplored, r.warm, pin.work, where);
    }
    EXPECT_EQ(session.stats().seededSolves, 19u) << "workers " << workers;
    EXPECT_EQ(session.stats().totalNodes, 185) << "workers " << workers;
  }
}

/// Step-budgeted one-worker searches: the guard is ticked once per node pop
/// (only when a node is available, after the maxNodes check) and once per
/// LP pivot. A budget equal to the full run's usage completes with a proof;
/// one step less stops it. A trip inside the last node LP (pool already
/// empty) leaves stopReason Ok and the result unproven.
TEST(ParallelBranchBound, StepBudgetMatchesPinnedUsage) {
  struct Pin {
    std::uint64_t seed;
    long maxSteps;
    BudgetVerdict stopReason;
    bool proven;
    long stepsUsed;
    long nodes;
  };
  const Pin pins[] = {
      {5, 31, BudgetVerdict::Ok, true, 31, 6},
      {5, 30, BudgetVerdict::StepLimit, false, 31, 5},
      {5, 15, BudgetVerdict::StepLimit, false, 16, 2},
      {5, 7, BudgetVerdict::Ok, false, 8, 1},
      {23, 33, BudgetVerdict::Ok, true, 33, 9},
      {23, 32, BudgetVerdict::Ok, false, 33, 9},
      {23, 16, BudgetVerdict::StepLimit, false, 17, 3},
      {23, 7, BudgetVerdict::Ok, false, 8, 1},
      {77, 47, BudgetVerdict::Ok, true, 47, 14},
      {77, 46, BudgetVerdict::StepLimit, false, 47, 13},
      {77, 23, BudgetVerdict::StepLimit, false, 24, 6},
      {77, 7, BudgetVerdict::Ok, false, 8, 1},
      {3, 40, BudgetVerdict::Ok, true, 40, 10},
      {3, 39, BudgetVerdict::StepLimit, false, 40, 9},
      {3, 20, BudgetVerdict::StepLimit, false, 21, 5},
      {3, 7, BudgetVerdict::Ok, false, 8, 1},
      {42, 55, BudgetVerdict::Ok, true, 55, 14},
      {42, 54, BudgetVerdict::StepLimit, false, 55, 13},
      {42, 27, BudgetVerdict::StepLimit, false, 28, 6},
      {42, 7, BudgetVerdict::Ok, false, 8, 1},
  };
  for (const Pin& pin : pins) {
    Prng rng(pin.seed);
    const Model m = randomKnapsackMip(rng, 10);
    for (const int workers : {0, 1}) {
      const std::string where = "seed " + std::to_string(pin.seed) + " maxSteps " +
                                std::to_string(pin.maxSteps) + " workers " +
                                std::to_string(workers);
      SolveBudget budget;
      budget.maxSteps = pin.maxSteps;
      BudgetGuard guard(budget);
      MipOptions po;
      po.workers = workers;
      po.guard = &guard;
      const MipResult r = solveMip(m, po);
      EXPECT_EQ(r.stopReason, pin.stopReason) << where;
      EXPECT_EQ(r.proven, pin.proven) << where;
      EXPECT_EQ(guard.stepsUsed(), pin.stepsUsed) << where;
      EXPECT_EQ(r.nodesExplored, pin.nodes) << where;
    }
  }
}

/// One-variable-pair cover: min x0 + x1 s.t. x0 + x1 >= 1, x binary.
Model coverModel() {
  Model m;
  const int x0 = m.addVariable(0.0, 1.0, 1.0, VarType::Integer);
  const int x1 = m.addVariable(0.0, 1.0, 1.0, VarType::Integer);
  m.addConstraint(Sense::GreaterEqual, 1.0, std::vector<Term>{t(x0, 1.0), t(x1, 1.0)});
  return m;
}

/// The seeded incumbent reaches every worker count: with no node budget at
/// all the seed itself comes back, unproven.
TEST(ParallelBranchBound, SeededIncumbentReturnedWithoutNodeBudget) {
  const Model m = coverModel();
  for (const int workers : {0, 1, 4}) {
    MipOptions po;
    po.workers = workers;
    po.maxNodes = 0;
    po.initialIncumbent = {1.0, 1.0};
    const MipResult r = solveMip(m, po);
    ASSERT_TRUE(r.hasIncumbent()) << "workers " << workers;
    EXPECT_EQ(r.objective, 2.0) << "workers " << workers;
    EXPECT_EQ(r.values, po.initialIncumbent) << "workers " << workers;
    EXPECT_FALSE(r.proven) << "workers " << workers;
    EXPECT_EQ(r.nodesExplored, 0) << "workers " << workers;
  }
}

/// A caller-owned workspace is reused at every worker count: the second
/// solve through it re-solves the root warm from the first solve's basis.
TEST(ParallelBranchBound, CallerWorkspaceIsReusedWarm) {
  const Model m = coverModel();
  for (const int workers : {0, 1, 4}) {
    MipOptions po;
    po.workers = workers;
    LpWorkspace workspace(m, po.lp);
    po.workspace = &workspace;
    const MipResult first = solveMip(m, po);
    ASSERT_TRUE(first.proven) << "workers " << workers;
    EXPECT_EQ(first.warm.coldSolves, 1) << "workers " << workers;
    EXPECT_EQ(first.warm.warmSolves, 0) << "workers " << workers;
    const MipResult second = solveMip(m, po);
    ASSERT_TRUE(second.proven) << "workers " << workers;
    EXPECT_EQ(second.objective, 1.0) << "workers " << workers;
    EXPECT_EQ(second.nodesExplored, 1) << "workers " << workers;
    EXPECT_EQ(second.warm.coldSolves, 0) << "workers " << workers;
    EXPECT_EQ(second.warm.warmSolves, 1) << "workers " << workers;
  }
}

/// The granularity-bucketed path (integral objectives) through the sharded
/// pool: fig8 2-PARTITION NO-instances have optimum 4m + 4, proven.
TEST(ParallelBranchBound, ReductionFamilyProvenAcrossWorkerCounts) {
  std::vector<Requests> values(5, 4);
  values.push_back(6);  // m = 6
  const ProblemInstance inst = fig8TwoPartition(values);
  const ExactIlpResult reference = solveExactViaIlp(inst, Policy::Multiple);
  ASSERT_TRUE(reference.proven);
  ASSERT_TRUE(reference.feasible());
  EXPECT_DOUBLE_EQ(reference.cost, 4.0 * 6 + 4);
  for (const int workers : {1, 2, 4, 8}) {
    ExactIlpOptions po;
    po.mip.workers = workers;
    const ExactIlpResult parallel = solveExactViaIlp(inst, Policy::Multiple, po);
    ASSERT_TRUE(parallel.proven) << "workers " << workers;
    ASSERT_TRUE(parallel.feasible()) << "workers " << workers;
    EXPECT_DOUBLE_EQ(parallel.cost, reference.cost) << "workers " << workers;
    EXPECT_EQ(parallel.warm.workers, workers);
  }
}

/// Infeasible and unbounded models take the abort paths cleanly.
TEST(ParallelBranchBound, InfeasibleAndUnboundedModels) {
  Model infeasible;
  const int x = infeasible.addVariable(0.0, 4.0, 1.0, VarType::Integer);
  infeasible.addConstraint(Sense::GreaterEqual, 10.0, std::vector<Term>{t(x, 1.0)});
  for (const int workers : {1, 4}) {
    MipOptions po;
    po.workers = workers;
    const MipResult r = solveMip(infeasible, po);
    EXPECT_EQ(r.status, SolveStatus::Infeasible) << "workers " << workers;
    EXPECT_TRUE(r.proven) << "workers " << workers;
    EXPECT_FALSE(r.hasIncumbent()) << "workers " << workers;
  }

  Model unbounded;
  const int y = unbounded.addVariable(0.0, kInfinity, -1.0, VarType::Integer);
  unbounded.addConstraint(Sense::GreaterEqual, 1.0, std::vector<Term>{t(y, 1.0)});
  for (const int workers : {1, 4}) {
    MipOptions po;
    po.workers = workers;
    const MipResult r = solveMip(unbounded, po);
    EXPECT_EQ(r.status, SolveStatus::Unbounded) << "workers " << workers;
  }
}

}  // namespace
}  // namespace treeplace::lp

// Warm-started branch-and-bound vs the cold oracle, and the dual-simplex
// re-solve vs a fresh primal solve — the safety net of lp/workspace.
#include "lp/workspace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "lp/branch_bound.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// Random bounded LP with mixed row senses; feasibility not guaranteed.
Model randomLp(Prng& rng, int vars, int rows) {
  Model m;
  for (int j = 0; j < vars; ++j)
    m.addVariable(0.0, 10.0, rng.uniformReal(-5.0, 5.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j)
      terms.push_back(t(j, rng.uniformReal(-2.0, 4.0)));
    const double rhs = rng.uniformReal(2.0, 30.0);
    const Sense sense = r % 3 == 0   ? Sense::GreaterEqual
                        : r % 3 == 1 ? Sense::LessEqual
                                     : Sense::Equal;
    m.addConstraint(sense, rhs, terms);
  }
  return m;
}

/// The dual-simplex warm re-solve must agree with a cold primal solve of the
/// same model under every perturbed box — status and objective alike.
TEST(LpWorkspace, DualResolveMatchesFreshPrimalOnPerturbedBounds) {
  int optimalResolves = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Prng rng(seed);
    Model m = randomLp(rng, 5, 4);
    LpWorkspace workspace(m, {});
    if (workspace.solveCold() != SolveStatus::Optimal) continue;

    std::vector<double> lo(5, 0.0), hi(5, 10.0);
    for (int trial = 0; trial < 12; ++trial) {
      const int v = static_cast<int>(rng.uniformInt(0, 4));
      // Any sub-box of the root box (shrink or re-grow): the workspace's
      // fixed standard form must absorb both directions.
      double a = rng.uniformReal(0.0, 10.0);
      double b = rng.uniformReal(0.0, 10.0);
      if (a > b) std::swap(a, b);
      lo[static_cast<std::size_t>(v)] = a;
      hi[static_cast<std::size_t>(v)] = b;
      workspace.setBounds(v, a, b);

      ASSERT_TRUE(workspace.warmReady());
      SolveStatus warm = workspace.solveDual();
      if (warm == SolveStatus::IterationLimit) warm = workspace.solveCold();

      Model reference = m;
      for (int j = 0; j < 5; ++j)
        reference.setBounds(j, lo[static_cast<std::size_t>(j)],
                            hi[static_cast<std::size_t>(j)]);
      const LpSolution fresh = solveLp(reference);

      ASSERT_EQ(warm, fresh.status) << "seed " << seed << " trial " << trial;
      if (warm != SolveStatus::Optimal) continue;
      ++optimalResolves;
      EXPECT_NEAR(workspace.objective(), fresh.objective, 1e-6)
          << "seed " << seed << " trial " << trial;
      // The warm point itself must lie in the box.
      for (int j = 0; j < 5; ++j) {
        EXPECT_GE(workspace.values()[static_cast<std::size_t>(j)],
                  lo[static_cast<std::size_t>(j)] - 1e-7);
        EXPECT_LE(workspace.values()[static_cast<std::size_t>(j)],
                  hi[static_cast<std::size_t>(j)] + 1e-7);
      }
    }
  }
  EXPECT_GT(optimalResolves, 50) << "perturbation family degenerated";
}

TEST(LpWorkspace, InfeasibleDualResolveKeepsBasisReusable) {
  // min x + y s.t. x + y >= 4 in [0,10]^2; squeezing the box to force
  // infeasibility and releasing it again must keep the warm basis usable.
  Model m;
  const int x = m.addVariable(0.0, 10.0, 1.0);
  const int y = m.addVariable(0.0, 10.0, 1.0);
  m.addConstraint(Sense::GreaterEqual, 4.0,
                  std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  LpWorkspace workspace(m, {});
  ASSERT_EQ(workspace.solveCold(), SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), 4.0, 1e-9);

  workspace.setBounds(x, 0.0, 1.0);
  workspace.setBounds(y, 0.0, 1.0);
  EXPECT_EQ(workspace.solveDual(), SolveStatus::Infeasible);
  ASSERT_TRUE(workspace.warmReady());

  workspace.setBounds(x, 0.0, 1.0);
  workspace.setBounds(y, 0.0, 10.0);
  ASSERT_EQ(workspace.solveDual(), SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), 4.0, 1e-9);
}

/// 0/1 knapsack + side rows as a MIP family: the warm engine and the cold
/// oracle must return identical optima.
TEST(WarmBranchBound, MatchesColdOracleOnRandomMips) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Prng rng(seed);
    Model m;
    const int n = 8;
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

    MipOptions warmOptions;
    MipOptions coldOptions;
    coldOptions.warmStart = false;
    const MipResult warm = solveMip(m, warmOptions);
    const MipResult cold = solveMip(m, coldOptions);

    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    ASSERT_EQ(warm.proven, cold.proven) << "seed " << seed;
    ASSERT_EQ(warm.hasIncumbent(), cold.hasIncumbent()) << "seed " << seed;
    if (!warm.hasIncumbent()) continue;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << "seed " << seed;
    if (warm.warm.totalSolves() > 1) {
      EXPECT_GT(warm.warm.warmSolves, 0) << "seed " << seed;
    }
    EXPECT_EQ(cold.warm.warmSolves, 0) << "seed " << seed;
  }
}

/// End to end on the Section 5 ILP: >= 100 random instances, warm vs cold,
/// byte-identical optimal costs and proofs (pattern of test_qos_frontier).
TEST(WarmBranchBound, MatchesColdOracleOnRandomIlpInstances) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const bool hetero : {false, true}) {
      const ProblemInstance inst = testutil::smallRandomInstance(
          seed * 911 + (hetero ? 17 : 0), 0.6, hetero, /*unit=*/!hetero,
          /*minSize=*/6, /*maxSize=*/12);
      const Policy policy = seed % 2 == 0 ? Policy::Multiple : Policy::Upwards;

      ExactIlpOptions warmOptions;
      ExactIlpOptions coldOptions;
      coldOptions.mip.warmStart = false;
      const ExactIlpResult warm = solveExactViaIlp(inst, policy, warmOptions);
      const ExactIlpResult cold = solveExactViaIlp(inst, policy, coldOptions);

      ASSERT_EQ(warm.proven, cold.proven) << "seed " << seed;
      ASSERT_EQ(warm.feasible(), cold.feasible()) << "seed " << seed;
      ++compared;
      if (!warm.feasible()) continue;
      EXPECT_NEAR(warm.cost, cold.cost, 1e-9) << "seed " << seed;
      EXPECT_TRUE(testutil::placementValid(inst, *warm.placement, policy))
          << "seed " << seed;
      EXPECT_TRUE(testutil::placementValid(inst, *cold.placement, policy))
          << "seed " << seed;
    }
  }
  EXPECT_GE(compared, 100);
}

/// The cuts are optional strengthenings: with everything off, the bare
/// warm engine still reproduces the bare cold engine's optimum.
TEST(WarmBranchBound, CutsPreserveOptimaAgainstBareOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 577, 0.55, /*hetero=*/seed % 2 == 1, /*unit=*/seed % 2 == 0,
        /*minSize=*/6, /*maxSize=*/11);
    ExactIlpOptions strengthened;  // warm + frontier cuts + symmetry cuts
    ExactIlpOptions bare;
    bare.mip.warmStart = false;
    bare.frontierCuts = false;
    bare.symmetryCuts = false;
    const ExactIlpResult a = solveExactViaIlp(inst, Policy::Multiple, strengthened);
    const ExactIlpResult b = solveExactViaIlp(inst, Policy::Multiple, bare);
    ASSERT_EQ(a.proven, b.proven) << "seed " << seed;
    ASSERT_EQ(a.feasible(), b.feasible()) << "seed " << seed;
    if (a.feasible()) {
      EXPECT_NEAR(a.cost, b.cost, 1e-9) << "seed " << seed;
    }
  }
}

/// PR 4 fixed the off-by-one where a search whose pool emptied exactly at
/// maxNodes was reported unproven. The worker-pool engine must uphold the
/// same boundary when several workers race the last budget slots: explored
/// nodes never exceed the budget, every result stays sound (the reported
/// lower bound never exceeds the true optimum, the incumbent never beats
/// it), a proven result IS the optimum, and the one-worker search (workers
/// 0 and 1) holds the boundary exactly — proven at budget == its node count.
TEST(WarmBranchBound, MaxNodesBoundaryHoldsUnderWorkerContention) {
  for (const std::uint64_t seed : {5ULL, 23ULL, 77ULL}) {
    Prng rng(seed);
    Model m;
    const int n = 9;
    for (int j = 0; j < n; ++j)
      m.addVariable(0.0, 1.0, -static_cast<double>(rng.uniformInt(1, 30)),
                    VarType::Integer);
    std::vector<Term> row;
    for (int j = 0; j < n; ++j)
      row.push_back(t(j, static_cast<double>(rng.uniformInt(1, 12))));
    m.addConstraint(Sense::LessEqual,
                    static_cast<double>(rng.uniformInt(12, 40)), row);

    const MipResult reference = solveMip(m, {});  // one worker, unlimited budget
    ASSERT_TRUE(reference.proven) << "seed " << seed;
    ASSERT_TRUE(reference.hasIncumbent()) << "seed " << seed;
    const double optimum = reference.objective;
    const long serialNodes = reference.nodesExplored;

    // One-worker boundary: a budget of exactly the node count is a completed
    // search; one short of it is not.
    for (const int workers : {0, 1}) {
      MipOptions exactBudget;
      exactBudget.workers = workers;
      exactBudget.maxNodes = serialNodes;
      const MipResult complete = solveMip(m, exactBudget);
      EXPECT_TRUE(complete.proven) << "seed " << seed << " workers " << workers;
      EXPECT_EQ(complete.nodesExplored, serialNodes)
          << "seed " << seed << " workers " << workers;
      EXPECT_NEAR(complete.objective, optimum, 1e-9)
          << "seed " << seed << " workers " << workers;
      if (serialNodes > 1) {
        MipOptions shortBudget = exactBudget;
        shortBudget.maxNodes = serialNodes - 1;
        const MipResult truncated = solveMip(m, shortBudget);
        EXPECT_FALSE(truncated.proven)
            << "seed " << seed << " workers " << workers;
        EXPECT_EQ(truncated.nodesExplored, serialNodes - 1)
            << "seed " << seed << " workers " << workers;
      }
    }

    // Contention sweep: many workers, budgets from starvation to surplus —
    // the pool-exhaustion race must never overdraw the budget, break
    // soundness, or fake a proof.
    for (const int workers : {2, 4, 8}) {
      // 0/1 variables branch at most once per root-leaf path, so the full
      // tree has < 2^(n+1) nodes: a 4096 budget must close the search no
      // matter how the workers interleave.
      for (const long budget :
           {1L, 2L, 3L, serialNodes / 2 + 1, serialNodes, 4096L}) {
        MipOptions po;
        po.workers = workers;
        po.maxNodes = budget;
        const MipResult r = solveMip(m, po);
        ASSERT_EQ(r.status, SolveStatus::Optimal)
            << "seed " << seed << " workers " << workers << " budget " << budget;
        EXPECT_LE(r.nodesExplored, budget)
            << "seed " << seed << " workers " << workers << " budget " << budget;
        EXPECT_LE(r.lowerBound, optimum + 1e-9)
            << "seed " << seed << " workers " << workers << " budget " << budget;
        if (r.hasIncumbent()) {
          EXPECT_GE(r.objective, optimum - 1e-9)
              << "seed " << seed << " workers " << workers << " budget " << budget;
        }
        if (r.proven) {
          ASSERT_TRUE(r.hasIncumbent())
              << "seed " << seed << " workers " << workers << " budget " << budget;
          EXPECT_NEAR(r.objective, optimum, 1e-9)
              << "seed " << seed << " workers " << workers << " budget " << budget;
        }
        if (budget >= 4096) {
          EXPECT_TRUE(r.proven)
              << "seed " << seed << " workers " << workers << " budget " << budget;
        }
      }
    }
  }
}

TEST(WarmBranchBound, ReductionFamilyReusesBases) {
  std::vector<Requests> values(9, 4);
  values.push_back(6);  // fig8TwoPartition m=10 NO-instance
  const ProblemInstance inst = fig8TwoPartition(values);
  const ExactIlpResult r = solveExactViaIlp(inst, Policy::Multiple);
  ASSERT_TRUE(r.proven);
  ASSERT_TRUE(r.feasible());
  EXPECT_GT(r.warm.warmSolves, 0);
  EXPECT_GT(r.warm.basisReuseRate(), 0.5);
  EXPECT_EQ(r.warm.dualFallbacks, 0);
  EXPECT_GT(r.lpMillis, 0.0);
  EXPECT_GT(r.resolveMillisPerNode(), 0.0);
}

}  // namespace
}  // namespace treeplace::lp

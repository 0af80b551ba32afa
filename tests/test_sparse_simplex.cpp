// The sparse LU revised simplex (CSC matrix, Markowitz-pivoted basis
// factorization, product-form eta updates with periodic refactorization)
// against the dense tableau engine, which is kept behind
// SimplexOptions::denseTableau as the independent oracle — the same harness
// shape as the boxes-vs-rows sweep in test_bounded_simplex.
#include "lp/workspace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "lp/branch_bound.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// Random LP over boxed variables with mixed row senses; feasibility not
/// guaranteed. Some variables get one-sided or free ranges so every VarMap
/// mode flows through the sparse column store.
Model randomBoxedLp(Prng& rng, int vars, int rows) {
  Model m;
  for (int j = 0; j < vars; ++j) {
    const int shape = static_cast<int>(rng.uniformInt(0, 9));
    if (shape == 0)
      m.addVariable(0.0, kInfinity, rng.uniformReal(-5.0, 5.0));  // no box
    else if (shape == 1)
      m.addVariable(-kInfinity, rng.uniformReal(0.0, 8.0),
                    rng.uniformReal(-5.0, 5.0));  // mirrored
    else
      m.addVariable(0.0, rng.uniformReal(0.5, 10.0), rng.uniformReal(-5.0, 5.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      // Leave real zeros in the matrix so the CSC store sees sparsity.
      if (rng.uniformInt(0, 3) == 0) continue;
      terms.push_back(t(j, rng.uniformReal(-2.0, 4.0)));
    }
    if (terms.empty()) terms.push_back(t(0, 1.0));
    const double rhs = rng.uniformReal(2.0, 30.0);
    const Sense sense = r % 3 == 0   ? Sense::GreaterEqual
                        : r % 3 == 1 ? Sense::LessEqual
                                     : Sense::Equal;
    m.addConstraint(sense, rhs, terms);
  }
  return m;
}

/// 120 random LPs: the sparse revised engine and the dense tableau oracle
/// must agree on status and optimum.
TEST(SparseSimplex, MatchesDenseOracleOnRandomLps) {
  int optimalPairs = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Prng rng(seed);
    const Model m = randomBoxedLp(rng, 7, 5);

    SimplexOptions sparse;  // the default
    SimplexOptions oracle;
    oracle.denseTableau = true;
    const LpSolution viaSparse = solveLp(m, sparse);
    const LpSolution viaDense = solveLp(m, oracle);

    ASSERT_EQ(viaSparse.status, viaDense.status) << "seed " << seed;
    if (viaSparse.status != SolveStatus::Optimal) continue;
    ++optimalPairs;
    EXPECT_NEAR(viaSparse.objective, viaDense.objective, 1e-6) << "seed " << seed;
    for (int j = 0; j < m.variableCount(); ++j) {
      EXPECT_GE(viaSparse.values[static_cast<std::size_t>(j)], m.lower(j) - 1e-7)
          << "seed " << seed;
      EXPECT_LE(viaSparse.values[static_cast<std::size_t>(j)], m.upper(j) + 1e-7)
          << "seed " << seed;
    }
  }
  EXPECT_GT(optimalPairs, 40) << "random family degenerated";
}

/// Warm dual re-solves on the sparse engine against cold dense solves of the
/// same perturbed model — both engines AND both solve paths, including the
/// bound-flip stress of repeatedly shrinking and re-growing boxes.
TEST(SparseSimplex, WarmResolveMatchesDenseColdSolve) {
  int optimalResolves = 0;
  for (std::uint64_t seed = 1; seed <= 70; ++seed) {
    Prng rng(seed * 131);
    Model m;
    const int vars = 6;
    for (int j = 0; j < vars; ++j)
      m.addVariable(0.0, 10.0, rng.uniformReal(-5.0, 5.0));
    for (int r = 0; r < 5; ++r) {
      std::vector<Term> terms;
      for (int j = 0; j < vars; ++j) {
        if (rng.uniformInt(0, 3) == 0) continue;
        terms.push_back(t(j, rng.uniformReal(-2.0, 4.0)));
      }
      if (terms.empty()) terms.push_back(t(r % vars, 1.0));
      const Sense sense = r % 3 == 0   ? Sense::GreaterEqual
                          : r % 3 == 1 ? Sense::LessEqual
                                       : Sense::Equal;
      m.addConstraint(sense, rng.uniformReal(2.0, 30.0), terms);
    }

    LpWorkspace workspace(m, {});
    EXPECT_EQ(workspace.tableauRows(), m.constraintCount());
    if (workspace.solveCold() != SolveStatus::Optimal) continue;

    std::vector<double> lo(vars, 0.0), hi(vars, 10.0);
    for (int trial = 0; trial < 12; ++trial) {
      const int v = static_cast<int>(rng.uniformInt(0, vars - 1));
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
      for (int j = 0; j < vars; ++j)
        reference.setBounds(j, lo[static_cast<std::size_t>(j)],
                            hi[static_cast<std::size_t>(j)]);
      SimplexOptions oracle;
      oracle.denseTableau = true;
      const LpSolution fresh = solveLp(reference, oracle);

      ASSERT_EQ(warm, fresh.status) << "seed " << seed << " trial " << trial;
      if (warm != SolveStatus::Optimal) continue;
      ++optimalResolves;
      EXPECT_NEAR(workspace.objective(), fresh.objective, 1e-6)
          << "seed " << seed << " trial " << trial;
      for (int j = 0; j < vars; ++j) {
        EXPECT_GE(workspace.values()[static_cast<std::size_t>(j)],
                  lo[static_cast<std::size_t>(j)] - 1e-7);
        EXPECT_LE(workspace.values()[static_cast<std::size_t>(j)],
                  hi[static_cast<std::size_t>(j)] + 1e-7);
      }
    }
  }
  EXPECT_GE(optimalResolves, 100) << "perturbation family degenerated";
}

/// Branch-and-bound on the sparse engine against the dense oracle on 100
/// random MIPs: same optima, same proven flags, and the sparse runs must
/// actually exercise the eta file.
TEST(SparseSimplex, MipMatchesDenseOracle) {
  long etaTotal = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Prng rng(seed * 37);
    Model m;
    const int n = 8;
    for (int j = 0; j < n; ++j)
      m.addVariable(0.0, static_cast<double>(rng.uniformInt(1, 3)),
                    -static_cast<double>(rng.uniformInt(1, 30)), VarType::Integer);
    for (int r = 0; r < 2; ++r) {
      std::vector<Term> row;
      for (int j = 0; j < n; ++j) {
        if (rng.uniformInt(0, 2) == 0) continue;
        row.push_back(t(j, static_cast<double>(rng.uniformInt(1, 12))));
      }
      if (row.empty()) row.push_back(t(0, 1.0));
      m.addConstraint(Sense::LessEqual,
                      static_cast<double>(rng.uniformInt(10, 40)), row);
    }

    MipOptions viaSparse;
    MipOptions viaDense;
    viaDense.lp.denseTableau = true;
    const MipResult sparse = solveMip(m, viaSparse);
    const MipResult dense = solveMip(m, viaDense);

    ASSERT_EQ(sparse.status, dense.status) << "seed " << seed;
    ASSERT_EQ(sparse.proven, dense.proven) << "seed " << seed;
    ASSERT_EQ(sparse.hasIncumbent(), dense.hasIncumbent()) << "seed " << seed;
    etaTotal += sparse.warm.etaCount;
    EXPECT_EQ(dense.warm.etaCount, 0) << "seed " << seed;
    EXPECT_EQ(dense.warm.basisNnz, 0) << "seed " << seed;
    if (!sparse.hasIncumbent()) continue;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-9) << "seed " << seed;
    EXPECT_EQ(sparse.warm.tableauRows, sparse.warm.structuralRows)
        << "seed " << seed;
  }
  EXPECT_GT(etaTotal, 0) << "sparse runs never appended an eta column";
}

/// Forced-refactorization boundary: with refactorEtaLimit = 1 every pivot
/// triggers a refactorization and the eta file never carries more than one
/// column — the solve must still match the dense oracle exactly.
TEST(SparseSimplex, ForcedRefactorizationMatchesOracle) {
  int refactoredRuns = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Prng rng(seed * 613);
    const Model m = randomBoxedLp(rng, 7, 5);

    SimplexOptions eager;
    eager.refactorEtaLimit = 1;  // refactorize after every single pivot
    SimplexOptions oracle;
    oracle.denseTableau = true;
    const LpSolution viaEager = solveLp(m, eager);
    const LpSolution viaDense = solveLp(m, oracle);

    ASSERT_EQ(viaEager.status, viaDense.status) << "seed " << seed;
    if (viaEager.status == SolveStatus::Optimal) {
      EXPECT_NEAR(viaEager.objective, viaDense.objective, 1e-6) << "seed " << seed;
    }

    // The stats must show the forced policy at work on at least one pivoting
    // run: every eta append is immediately followed by a refactorization.
    LpWorkspace workspace(m, eager);
    if (workspace.solveCold() == SolveStatus::Optimal &&
        workspace.stats().etaCount > 0) {
      EXPECT_GE(workspace.stats().refactorizations, workspace.stats().etaCount);
      EXPECT_GT(workspace.stats().basisNnz, 0);
      ++refactoredRuns;
    }
  }
  EXPECT_GT(refactoredRuns, 5) << "family never pivoted";
}

/// clone() must duplicate the sparse engine state: the clone warm-starts from
/// the parent's basis with fresh telemetry, and diverging bound changes in
/// parent and clone stay independent.
TEST(SparseSimplex, CloneCarriesWarmBasisIndependently) {
  Model m;
  const int x1 = m.addVariable(0.0, 5.0, -1.0);
  const int x2 = m.addVariable(0.0, 5.0, -2.0);
  m.addConstraint(Sense::LessEqual, 8.0, std::vector<Term>{t(x1, 1.0), t(x2, 1.0)});

  LpWorkspace parent(m, {});
  ASSERT_EQ(parent.solveCold(), SolveStatus::Optimal);
  ASSERT_TRUE(parent.warmReady());

  LpWorkspace child = parent.clone();
  EXPECT_TRUE(child.warmReady());
  EXPECT_EQ(child.stats().coldSolves, 0);  // telemetry reset

  child.setBounds(x1, 0.0, 1.0);
  SolveStatus st = child.solveDual();
  if (st == SolveStatus::IterationLimit) st = child.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(child.objective(), -11.0, 1e-9);  // x2 = 5, x1 = 1

  // The parent still sees the original boxes and optimum.
  st = parent.solveDual();
  if (st == SolveStatus::IterationLimit) st = parent.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(parent.objective(), -13.0, 1e-9);  // x2 = 5, x1 = 3
}

/// Zero-width boxes pin variables exactly in the sparse engine too.
TEST(SparseSimplex, ZeroWidthBoxesPinVariables) {
  Model m;
  const int x = m.addVariable(0.0, 6.0, 1.0);
  const int y = m.addVariable(0.0, 6.0, 2.0);
  m.addConstraint(Sense::GreaterEqual, 5.0,
                  std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  LpWorkspace workspace(m, {});
  ASSERT_EQ(workspace.solveCold(), SolveStatus::Optimal);
  workspace.setBounds(x, 2.0, 2.0);
  SolveStatus st = workspace.solveDual();
  if (st == SolveStatus::IterationLimit) st = workspace.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(y)], 3.0, 1e-9);
  EXPECT_NEAR(workspace.objective(), 8.0, 1e-9);
}

/// End to end on the Section 5 ILP: the sparse engine drives the real solver
/// stack (cuts, symmetry orderings, warm starts) to the dense oracle's cost.
TEST(SparseSimplex, ExactIlpMatchesDenseOracleOnRandomInstances) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 271, 0.6, /*heterogeneous=*/seed % 2 == 1, /*unitCosts=*/seed % 2 == 0,
        /*minSize=*/6, /*maxSize=*/12);
    const Policy policy = seed % 2 == 0 ? Policy::Multiple : Policy::Upwards;

    ExactIlpOptions viaSparse;
    ExactIlpOptions viaDense;
    viaDense.mip.lp.denseTableau = true;
    const ExactIlpResult sparse = solveExactViaIlp(inst, policy, viaSparse);
    const ExactIlpResult dense = solveExactViaIlp(inst, policy, viaDense);

    ASSERT_EQ(sparse.proven, dense.proven) << "seed " << seed;
    ASSERT_EQ(sparse.feasible(), dense.feasible()) << "seed " << seed;
    ++compared;
    if (!sparse.feasible()) continue;
    EXPECT_NEAR(sparse.cost, dense.cost, 1e-9) << "seed " << seed;
    EXPECT_TRUE(testutil::placementValid(inst, *sparse.placement, policy))
        << "seed " << seed;
  }
  EXPECT_GE(compared, 20);
}

/// WarmStartStats::merge must fold the new sparse counters like the parallel
/// branch-and-bound driver does: sums for refactorizations and eta appends,
/// max for the peak basis fill.
TEST(SparseSimplex, StatsMergeFoldsSparseCounters) {
  WarmStartStats a;
  a.refactorizations = 2;
  a.etaCount = 10;
  a.basisNnz = 40;
  WarmStartStats b;
  b.refactorizations = 3;
  b.etaCount = 7;
  b.basisNnz = 55;
  a.merge(b);
  EXPECT_EQ(a.refactorizations, 5);
  EXPECT_EQ(a.etaCount, 17);
  EXPECT_EQ(a.basisNnz, 55);
}

}  // namespace
}  // namespace treeplace::lp

#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "reference_simplex.hpp"
#include "support/prng.hpp"
#include "support/require.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

TEST(Simplex, TrivialBoundsOnly) {
  Model m;
  const int x = m.addVariable(2.0, 9.0, 1.0);
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariableMax) {
  // max 3a + 5b == min -3a -5b ; a <= 4 ; 2b <= 12 ; 3a + 2b <= 18.
  Model m;
  const int a = m.addVariable(0.0, kInfinity, -3.0);
  const int b = m.addVariable(0.0, kInfinity, -5.0);
  m.addConstraint(Sense::LessEqual, 4.0, std::vector<Term>{t(a, 1.0)});
  m.addConstraint(Sense::LessEqual, 12.0, std::vector<Term>{t(b, 2.0)});
  m.addConstraint(Sense::LessEqual, 18.0, std::vector<Term>{t(a, 3.0), t(b, 2.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(a)], 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(b)], 6.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 5, x,y >= 0 -> x = 5, y = 0.
  Model m;
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  const int y = m.addVariable(0.0, kInfinity, 2.0);
  m.addConstraint(Sense::Equal, 5.0, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 5.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 4, x <= 1 -> x=1, y=3.
  Model m;
  const int x = m.addVariable(0.0, 1.0, 2.0);
  const int y = m.addVariable(0.0, kInfinity, 3.0);
  m.addConstraint(Sense::GreaterEqual, 4.0, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 11.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const int x = m.addVariable(0.0, 1.0, 1.0);
  m.addConstraint(Sense::GreaterEqual, 5.0, std::vector<Term>{t(x, 1.0)});
  EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Model m;
  const int x = m.addVariable(0.0, kInfinity, 0.0);
  m.addConstraint(Sense::Equal, 2.0, std::vector<Term>{t(x, 1.0)});
  m.addConstraint(Sense::Equal, 3.0, std::vector<Term>{t(x, 1.0)});
  EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.addVariable(0.0, kInfinity, -1.0);  // min -x, x free upward
  m.addConstraint(Sense::GreaterEqual, 1.0, std::vector<Term>{t(x, 1.0)});
  EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x, -5 <= x <= 5, x >= -3  ->  x = -3.
  Model m;
  const int x = m.addVariable(-5.0, 5.0, 1.0);
  m.addConstraint(Sense::GreaterEqual, -3.0, std::vector<Term>{t(x, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], -3.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min x + y, x free, y >= 0, x + y >= -2, x >= -10 implicitly via row.
  Model m;
  const int x = m.addVariable(-kInfinity, kInfinity, 1.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint(Sense::GreaterEqual, -2.0, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -2.0, 1e-7);
}

TEST(Simplex, MirrorOnlyUpperBounded) {
  // min -x with x <= 7 and lower bound -inf, x >= 0 via constraint.
  Model m;
  const int x = m.addVariable(-kInfinity, 7.0, -1.0);
  m.addConstraint(Sense::GreaterEqual, 0.0, std::vector<Term>{t(x, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 7.0, 1e-7);
}

TEST(Simplex, FixedVariable) {
  Model m;
  const int x = m.addVariable(3.0, 3.0, 5.0);
  const int y = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint(Sense::GreaterEqual, 5.0, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 2.0, 1e-7);
}

TEST(Simplex, RedundantConstraintsHandled) {
  Model m;
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint(Sense::Equal, 4.0, std::vector<Term>{t(x, 1.0)});
  m.addConstraint(Sense::Equal, 8.0, std::vector<Term>{t(x, 2.0)});  // same plane
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 4.0, 1e-7);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Many overlapping constraints through the origin — classic degeneracy.
  Model m;
  const int x = m.addVariable(0.0, kInfinity, -1.0);
  const int y = m.addVariable(0.0, kInfinity, -1.0);
  for (int k = 1; k <= 12; ++k) {
    m.addConstraint(Sense::LessEqual, 0.0,
                    std::vector<Term>{t(x, static_cast<double>(k)), t(y, -1.0)});
  }
  m.addConstraint(Sense::LessEqual, 10.0, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -10.0, 1e-7);
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic example cycles under naive Dantzig pricing; the stall
  // detector must switch to Bland's rule and finish.
  //   min -0.75x4 + 150x5 - 0.02x6 + 6x7
  //   s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
  //        0.50x4 - 90x5 - 0.02x6 + 3x7 <= 0
  //        x6 <= 1
  Model m;
  const int x4 = m.addVariable(0.0, kInfinity, -0.75);
  const int x5 = m.addVariable(0.0, kInfinity, 150.0);
  const int x6 = m.addVariable(0.0, kInfinity, -0.02);
  const int x7 = m.addVariable(0.0, kInfinity, 6.0);
  m.addConstraint(Sense::LessEqual, 0.0,
                  std::vector<Term>{t(x4, 0.25), t(x5, -60.0), t(x6, -0.04), t(x7, 9.0)});
  m.addConstraint(Sense::LessEqual, 0.0,
                  std::vector<Term>{t(x4, 0.5), t(x5, -90.0), t(x6, -0.02), t(x7, 3.0)});
  m.addConstraint(Sense::LessEqual, 1.0, std::vector<Term>{t(x6, 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-7);  // known optimum
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x <= -3  <=>  x >= 3.
  Model m;
  const int x = m.addVariable(0.0, kInfinity, 1.0);
  m.addConstraint(Sense::LessEqual, -3.0, std::vector<Term>{t(x, -1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 3.0, 1e-7);
}

TEST(Simplex, TransportationProblem) {
  // 2 sources (supply 20, 30) x 2 sinks (demand 25, 25) with costs.
  Model m;
  const double cost[2][2] = {{8.0, 6.0}, {10.0, 4.0}};
  int v[2][2];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      v[i][j] = m.addVariable(0.0, kInfinity, cost[i][j]);
  m.addConstraint(Sense::LessEqual, 20.0,
                  std::vector<Term>{t(v[0][0], 1.0), t(v[0][1], 1.0)});
  m.addConstraint(Sense::LessEqual, 30.0,
                  std::vector<Term>{t(v[1][0], 1.0), t(v[1][1], 1.0)});
  m.addConstraint(Sense::Equal, 25.0,
                  std::vector<Term>{t(v[0][0], 1.0), t(v[1][0], 1.0)});
  m.addConstraint(Sense::Equal, 25.0,
                  std::vector<Term>{t(v[0][1], 1.0), t(v[1][1], 1.0)});
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  // Optimal: x00=20, x10=5, x11=25 -> 160 + 50 + 100 = 310.
  EXPECT_NEAR(s.objective, 310.0, 1e-6);
}

/// Randomised cross-check: on small random LPs with bounded boxes, compare
/// the simplex optimum against brute-force evaluation of all basic points
/// via a fine grid of box corners + constraint activity is overkill; instead
/// verify (a) feasibility of the returned point and (b) weak duality via a
/// sampled search that never beats the simplex — for the production engine
/// and the test reference (reference_simplex.hpp) alike.
class SimplexRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandom, SampledPointsNeverBeatOptimum) {
  Prng rng(GetParam());
  Model m;
  const int n = 4;
  std::vector<int> vars;
  for (int j = 0; j < n; ++j)
    vars.push_back(m.addVariable(0.0, 10.0, rng.uniformReal(-5.0, 5.0)));
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int r = 0; r < 5; ++r) {
    std::vector<Term> terms;
    std::vector<double> coeffs;
    for (int j = 0; j < n; ++j) {
      const double c = rng.uniformReal(-2.0, 4.0);
      coeffs.push_back(c);
      terms.push_back(t(vars[static_cast<std::size_t>(j)], c));
    }
    const double b = rng.uniformReal(5.0, 40.0);
    rows.push_back(coeffs);
    rhs.push_back(b);
    m.addConstraint(Sense::LessEqual, b, terms);
  }
  const LpSolution s = solveLp(m);
  const LpSolution ref = reference::solveLp(m);
  ASSERT_TRUE(s.optimal());  // box is bounded and the origin is feasible
  ASSERT_TRUE(ref.optimal());
  EXPECT_NEAR(ref.objective, s.objective, 1e-6);
  // Returned points must be feasible.
  for (const LpSolution* solution : {&s, &ref}) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j)
        lhs += rows[r][static_cast<std::size_t>(j)] *
               solution->values[static_cast<std::size_t>(j)];
      EXPECT_LE(lhs, rhs[r] + 1e-6);
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(solution->values[static_cast<std::size_t>(j)], -1e-9);
      EXPECT_LE(solution->values[static_cast<std::size_t>(j)], 10.0 + 1e-9);
    }
  }
  // 2000 random feasible samples never achieve a lower objective.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> p(static_cast<std::size_t>(n));
    for (auto& x : p) x = rng.uniformReal(0.0, 10.0);
    bool feasible = true;
    for (std::size_t r = 0; r < rows.size() && feasible; ++r) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j)
        lhs += rows[r][static_cast<std::size_t>(j)] * p[static_cast<std::size_t>(j)];
      feasible = lhs <= rhs[r];
    }
    if (!feasible) continue;
    EXPECT_GE(m.evaluateObjective(p), s.objective - 1e-6);
    EXPECT_GE(m.evaluateObjective(p), ref.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

/// Exact reference: enumerate every basic point (vertex) of a small LP by
/// solving all m-subsets of the active-constraint system, keep the feasible
/// ones, and take the best objective. Slow but independent of the simplex;
/// it anchors both the production engine and the test reference
/// (reference_simplex.hpp) that the other LP tests compare against.
class VertexEnumeration : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // A bounded LP: n vars in [0, boxHi], k extra <= rows.
  struct Instance {
    int n;
    std::vector<double> c;
    std::vector<std::vector<double>> rows;  // a'x <= b
    std::vector<double> rhs;
    double boxHi;
  };

  static Instance makeInstance(std::uint64_t seed) {
    Prng rng(seed);
    Instance inst;
    inst.n = 3;
    inst.boxHi = 6.0;
    for (int j = 0; j < inst.n; ++j) inst.c.push_back(rng.uniformReal(-4.0, 4.0));
    for (int r = 0; r < 3; ++r) {
      std::vector<double> row;
      for (int j = 0; j < inst.n; ++j) row.push_back(rng.uniformReal(-1.0, 3.0));
      inst.rows.push_back(row);
      inst.rhs.push_back(rng.uniformReal(2.0, 12.0));
    }
    return inst;
  }

  /// All constraints as a'x <= b, including bounds.
  static void allRows(const Instance& inst, std::vector<std::vector<double>>& a,
                      std::vector<double>& b) {
    a = inst.rows;
    b = inst.rhs;
    for (int j = 0; j < inst.n; ++j) {
      std::vector<double> lo(static_cast<std::size_t>(inst.n), 0.0);
      lo[static_cast<std::size_t>(j)] = -1.0;  // -x_j <= 0
      a.push_back(lo);
      b.push_back(0.0);
      std::vector<double> hi(static_cast<std::size_t>(inst.n), 0.0);
      hi[static_cast<std::size_t>(j)] = 1.0;  // x_j <= boxHi
      a.push_back(hi);
      b.push_back(inst.boxHi);
    }
  }

  /// Solve the 3x3 system of the chosen active constraints (Cramer).
  static bool solve3(const std::vector<std::vector<double>>& a,
                     const std::vector<double>& b, std::vector<double>& x) {
    const auto det3 = [](double m[3][3]) {
      return m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
             m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
             m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    };
    double m[3][3];
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) m[i][j] = a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    const double d = det3(m);
    if (std::abs(d) < 1e-9) return false;
    x.assign(3, 0.0);
    for (int col = 0; col < 3; ++col) {
      double mc[3][3];
      for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
          mc[i][j] = (j == col) ? b[static_cast<std::size_t>(i)]
                                : a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(col)] = det3(mc) / d;
    }
    return true;
  }
};

TEST_P(VertexEnumeration, SimplexMatchesEnumeratedOptimum) {
  const Instance inst = makeInstance(GetParam());

  // Simplex solve.
  Model m;
  std::vector<int> vars;
  for (int j = 0; j < inst.n; ++j)
    vars.push_back(m.addVariable(0.0, inst.boxHi, inst.c[static_cast<std::size_t>(j)]));
  for (std::size_t r = 0; r < inst.rows.size(); ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < inst.n; ++j)
      terms.push_back(t(vars[static_cast<std::size_t>(j)],
                        inst.rows[r][static_cast<std::size_t>(j)]));
    m.addConstraint(Sense::LessEqual, inst.rhs[r], terms);
  }
  const LpSolution s = solveLp(m);
  ASSERT_TRUE(s.optimal());
  const LpSolution ref = reference::solveLp(m);
  ASSERT_TRUE(ref.optimal());

  // Enumeration: every vertex is the intersection of 3 active constraints.
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  allRows(inst, a, b);
  const std::size_t rows = a.size();
  double best = 0.0;  // the origin is always feasible
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = i + 1; j < rows; ++j) {
      for (std::size_t k = j + 1; k < rows; ++k) {
        std::vector<double> x;
        if (!solve3({a[i], a[j], a[k]}, {b[i], b[j], b[k]}, x)) continue;
        bool feasible = true;
        for (std::size_t r = 0; r < rows && feasible; ++r) {
          double lhs = 0.0;
          for (int col = 0; col < 3; ++col)
            lhs += a[r][static_cast<std::size_t>(col)] * x[static_cast<std::size_t>(col)];
          feasible = lhs <= b[r] + 1e-7;
        }
        if (!feasible) continue;
        double objective = 0.0;
        for (int col = 0; col < 3; ++col)
          objective += inst.c[static_cast<std::size_t>(col)] * x[static_cast<std::size_t>(col)];
        best = std::min(best, objective);
      }
    }
  }
  EXPECT_NEAR(s.objective, best, 1e-6);
  EXPECT_NEAR(ref.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VertexEnumeration,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u, 106u, 107u,
                                           108u, 109u, 110u));

TEST(Model, RejectsBadInput) {
  Model m;
  EXPECT_THROW(m.addVariable(2.0, 1.0, 0.0), PreconditionError);
  const int x = m.addVariable(0.0, 1.0, 0.0);
  EXPECT_THROW(m.addConstraint(Sense::Equal, 0.0, std::vector<Term>{t(x + 5, 1.0)}),
               PreconditionError);
  EXPECT_THROW(m.setBounds(x, 3.0, 2.0), PreconditionError);
  EXPECT_THROW(m.setBounds(99, 0.0, 1.0), PreconditionError);
}

TEST(Model, DropsZeroCoefficients) {
  Model m;
  const int x = m.addVariable(0.0, 1.0, 0.0);
  const int row = m.addConstraint(Sense::Equal, 0.0, std::vector<Term>{t(x, 0.0)});
  EXPECT_TRUE(m.rowTerms(row).empty());
}

}  // namespace
}  // namespace treeplace::lp

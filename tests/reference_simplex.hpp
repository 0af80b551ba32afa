#pragma once

// Test-only reference solver: a dense two-phase primal simplex with Bland's
// rule, every finite variable range written out as its own <= row, and a
// depth-first branch-and-bound over it. Deliberately naive and cold-only: it
// shares no code with lp/workspace or lp/sparse_basis, so the equivalence
// tests check the production engine against an independent implementation.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/bounds.hpp"
#include "formulation/ilp.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace treeplace::lp::reference {

namespace detail {

constexpr double kPivotTol = 1e-9;
constexpr double kFeasTol = 1e-7;
constexpr long kMaxPivots = 100000;

/// Dense tableau over [structural | slack | artificial | rhs] columns.
struct Tableau {
  int rows = 0;
  int width = 0;          ///< columns + 1 (rhs last)
  int artificialStart = 0;
  int live = 0;           ///< columns kept current (the rhs always is)
  std::vector<double> a;  ///< rows x width
  std::vector<double> d;  ///< reduced costs; d[width - 1] = -objective
  std::vector<int> basis;

  double& at(int i, int j) {
    return a[static_cast<std::size_t>(i) * static_cast<std::size_t>(width) +
             static_cast<std::size_t>(j)];
  }

  /// row[j] -= f * src[j] over the live columns and the rhs.
  void axpy(double* row, double f, const double* src) const {
    for (int j = 0; j < live; ++j) row[j] -= f * src[j];
    row[width - 1] -= f * src[width - 1];
  }

  void pivot(int row, int col) {
    double* prow = &at(row, 0);
    const double inv = 1.0 / prow[col];
    for (int j = 0; j < live; ++j) prow[j] *= inv;
    prow[width - 1] *= inv;
    for (int i = 0; i < rows; ++i) {
      const double f = at(i, col);
      if (i != row && f != 0.0) axpy(&at(i, 0), f, prow);
    }
    const double f = d[static_cast<std::size_t>(col)];
    if (f != 0.0) axpy(d.data(), f, prow);
    basis[static_cast<std::size_t>(row)] = col;
  }

  /// Reduced costs of `cost` (one entry per column) under the current basis.
  void price(const std::vector<double>& cost) {
    d.assign(static_cast<std::size_t>(width), 0.0);
    for (int j = 0; j < live; ++j) d[static_cast<std::size_t>(j)] = cost[static_cast<std::size_t>(j)];
    for (int i = 0; i < rows; ++i) {
      const double cb = cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      if (cb != 0.0) axpy(d.data(), cb, &at(i, 0));
    }
  }

  /// Bland's rule: lowest-index improving column enters, lowest-index basic
  /// leaves among tied ratios. Columns at or past `enterLimit` never enter.
  SolveStatus iterate(int enterLimit) {
    for (long pivots = 0; pivots < kMaxPivots; ++pivots) {
      int col = -1;
      for (int j = 0; j < enterLimit && col < 0; ++j)
        if (d[static_cast<std::size_t>(j)] < -kPivotTol) col = j;
      if (col < 0) return SolveStatus::Optimal;
      int row = -1;
      double best = 0.0;
      for (int i = 0; i < rows; ++i) {
        const double aic = at(i, col);
        if (aic <= kPivotTol) continue;
        const double ratio = at(i, width - 1) / aic;
        if (row < 0 || ratio < best - 1e-12 ||
            (ratio < best + 1e-12 &&
             basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(row)])) {
          row = i;
          best = ratio;
        }
      }
      if (row < 0) return SolveStatus::Unbounded;
      pivot(row, col);
    }
    return SolveStatus::IterationLimit;
  }
};

}  // namespace detail

/// Cold LP relaxation of `model` (integrality ignored).
inline LpSolution solveLp(const Model& model) {
  using detail::kFeasTol;
  using detail::kPivotTol;
  const int n = model.variableCount();

  // x_j = lo + t (finite lower), hi - t (upper only), or t+ - t- (free).
  std::vector<int> col(static_cast<std::size_t>(n)), negCol(static_cast<std::size_t>(n), -1);
  std::vector<double> sign(static_cast<std::size_t>(n), 1.0), offset(static_cast<std::size_t>(n), 0.0);
  int structural = 0;
  for (int j = 0; j < n; ++j) {
    col[static_cast<std::size_t>(j)] = structural++;
    if (model.lower(j) != -kInfinity) {
      offset[static_cast<std::size_t>(j)] = model.lower(j);
    } else if (model.upper(j) != kInfinity) {
      offset[static_cast<std::size_t>(j)] = model.upper(j);
      sign[static_cast<std::size_t>(j)] = -1.0;
    } else {
      negCol[static_cast<std::size_t>(j)] = structural++;
    }
  }

  // Rows over structural columns: the model rows, then t_j <= hi - lo for
  // every variable with a finite range.
  struct Row {
    std::vector<double> coef;
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (int r = 0; r < model.constraintCount(); ++r) {
    Row row{std::vector<double>(static_cast<std::size_t>(structural), 0.0),
            model.rowSense(r), model.rowRhs(r)};
    for (const Term& term : model.rowTerms(r)) {
      const auto v = static_cast<std::size_t>(term.variable);
      row.coef[static_cast<std::size_t>(col[v])] += sign[v] * term.coefficient;
      if (negCol[v] >= 0) row.coef[static_cast<std::size_t>(negCol[v])] -= term.coefficient;
      row.rhs -= term.coefficient * offset[v];
    }
    rows.push_back(std::move(row));
  }
  for (int j = 0; j < n; ++j) {
    if (model.lower(j) == -kInfinity || model.upper(j) == kInfinity) continue;
    Row row{std::vector<double>(static_cast<std::size_t>(structural), 0.0),
            Sense::LessEqual, model.upper(j) - model.lower(j)};
    row.coef[static_cast<std::size_t>(col[static_cast<std::size_t>(j)])] = 1.0;
    rows.push_back(std::move(row));
  }

  // Standard form: one slack per inequality, every row scaled to a
  // non-negative rhs. A row whose slack then starts basic at a non-negative
  // value needs nothing more; every other row gets an artificial.
  const int m = static_cast<int>(rows.size());
  int slacks = 0;
  int artificials = 0;
  std::vector<double> scale(static_cast<std::size_t>(m), 1.0);
  for (int i = 0; i < m; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    const double slackSign = row.sense == Sense::LessEqual ? 1.0 : -1.0;
    if (row.sense != Sense::Equal) ++slacks;
    if (row.sense != Sense::Equal && slackSign * row.rhs >= 0.0) {
      scale[static_cast<std::size_t>(i)] = slackSign;
    } else {
      scale[static_cast<std::size_t>(i)] = row.rhs < 0.0 ? -1.0 : 1.0;
      ++artificials;
    }
  }
  detail::Tableau tab;
  tab.rows = m;
  tab.artificialStart = structural + slacks;
  tab.width = tab.artificialStart + artificials + 1;
  tab.live = tab.width - 1;
  tab.a.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(tab.width), 0.0);
  tab.basis.resize(static_cast<std::size_t>(m));
  std::vector<double> cost(static_cast<std::size_t>(tab.width - 1), 0.0);
  int slack = structural;
  int artificial = tab.artificialStart;
  for (int i = 0; i < m; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    const double k = scale[static_cast<std::size_t>(i)];
    for (int j = 0; j < structural; ++j) tab.at(i, j) = k * row.coef[static_cast<std::size_t>(j)];
    tab.at(i, tab.width - 1) = k * row.rhs;
    int basic = -1;
    if (row.sense != Sense::Equal) {
      tab.at(i, slack) = k * (row.sense == Sense::LessEqual ? 1.0 : -1.0);
      if (tab.at(i, slack) > 0.0) basic = slack;
      ++slack;
    }
    if (basic < 0) {
      basic = artificial++;
      tab.at(i, basic) = 1.0;
      cost[static_cast<std::size_t>(basic)] = 1.0;
    }
    tab.basis[static_cast<std::size_t>(i)] = basic;
  }

  LpSolution solution;
  // Phase 1: minimise the sum of the artificials.
  tab.price(cost);
  SolveStatus status = tab.iterate(tab.artificialStart);
  if (status != SolveStatus::Optimal) {
    solution.status = SolveStatus::IterationLimit;  // phase 1 is bounded below
    return solution;
  }
  if (-tab.d[static_cast<std::size_t>(tab.width - 1)] > kFeasTol) {
    solution.status = SolveStatus::Infeasible;
    return solution;
  }
  // Pivot zero-valued artificials out; a row with no other nonzero is
  // redundant and can never change again.
  for (int i = 0; i < m; ++i) {
    if (tab.basis[static_cast<std::size_t>(i)] < tab.artificialStart) continue;
    for (int j = 0; j < tab.artificialStart; ++j) {
      if (std::abs(tab.at(i, j)) > kPivotTol) {
        tab.pivot(i, j);
        break;
      }
    }
  }

  // Phase 2: the model objective over the structural columns. Artificial
  // columns can no longer enter, so they stop being updated.
  tab.live = tab.artificialStart;
  std::fill(cost.begin(), cost.end(), 0.0);
  for (int j = 0; j < n; ++j) {
    cost[static_cast<std::size_t>(col[static_cast<std::size_t>(j)])] =
        sign[static_cast<std::size_t>(j)] * model.objective(j);
    if (negCol[static_cast<std::size_t>(j)] >= 0)
      cost[static_cast<std::size_t>(negCol[static_cast<std::size_t>(j)])] = -model.objective(j);
  }
  tab.price(cost);
  status = tab.iterate(tab.artificialStart);
  solution.status = status;
  if (status != SolveStatus::Optimal) return solution;

  std::vector<double> t(static_cast<std::size_t>(structural), 0.0);
  for (int i = 0; i < m; ++i)
    if (tab.basis[static_cast<std::size_t>(i)] < structural)
      t[static_cast<std::size_t>(tab.basis[static_cast<std::size_t>(i)])] = tab.at(i, tab.width - 1);
  solution.values.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const auto v = static_cast<std::size_t>(j);
    double x = offset[v] + sign[v] * t[static_cast<std::size_t>(col[v])];
    if (negCol[v] >= 0) x -= t[static_cast<std::size_t>(negCol[v])];
    solution.values[v] = x;
  }
  solution.objective = model.evaluateObjective(solution.values);
  return solution;
}

/// Result of solveMip: `status` is Optimal with the proven optimum,
/// Infeasible, Unbounded, or IterationLimit when a node LP gave up.
struct MipSolution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = kInfinity;
  std::vector<double> values;
};

/// Depth-first branch-and-bound over solveLp, most-fractional branching
/// among the integer variables listed in `first` (when any of them is
/// fractional), else among all of them. With `granularity` > 0 every
/// feasible objective is a multiple of it and node bounds round up
/// accordingly.
inline MipSolution solveMip(const Model& model, double granularity = 0.0,
                            const std::vector<int>& first = {}) {
  MipSolution best;
  bool gaveUp = false;
  bool unbounded = false;
  Model node = model;
  const std::vector<int> integers = model.integerVariables();
  const auto search = [&](const auto& self) -> void {
    const LpSolution lp = reference::solveLp(node);
    if (lp.status == SolveStatus::Unbounded) unbounded = true;
    if (lp.status == SolveStatus::IterationLimit) gaveUp = true;
    if (!lp.optimal() || unbounded) return;
    const double bound =
        granularity > 0.0 ? std::ceil(lp.objective / granularity - 1e-6) * granularity
                          : lp.objective;
    if (bound >= best.objective - 1e-6) return;
    int branch = -1;
    for (const std::vector<int>* pool : {&first, &integers}) {
      double worst = 1e-6;
      for (const int j : *pool) {
        const double v = lp.values[static_cast<std::size_t>(j)];
        const double f = std::min(v - std::floor(v), std::ceil(v) - v);
        if (f > worst) {
          worst = f;
          branch = j;
        }
      }
      if (branch >= 0) break;
    }
    if (branch < 0) {
      best.values = lp.values;
      for (const int j : integers)
        best.values[static_cast<std::size_t>(j)] = std::round(best.values[static_cast<std::size_t>(j)]);
      best.objective = model.evaluateObjective(best.values);
      return;
    }
    const double lo = node.lower(branch);
    const double hi = node.upper(branch);
    const double v = lp.values[static_cast<std::size_t>(branch)];
    if (lo <= std::floor(v)) {
      node.setBounds(branch, lo, std::floor(v));
      self(self);
    }
    if (std::ceil(v) <= hi) {
      node.setBounds(branch, std::ceil(v), hi);
      self(self);
    }
    node.setBounds(branch, lo, hi);
  };
  search(search);
  if (unbounded)
    best.status = SolveStatus::Unbounded;
  else if (gaveUp)
    best.status = SolveStatus::IterationLimit;
  else if (!best.values.empty())
    best.status = SolveStatus::Optimal;
  return best;
}

/// Reference optimum of the Section 5 exact ILP: the model solveExactViaIlp
/// builds (symmetry and frontier cuts included — both preserve the optimum),
/// solved by solveMip above, placement indicators branched first.
inline MipSolution solveExactIlp(const ProblemInstance& instance, Policy policy) {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Exact;
  IlpFormulation formulation(instance, policy, fo);
  formulation.addSymmetryCuts();
  const FrontierSubtreeRelaxation relaxation(instance);
  if (relaxation.feasible()) formulation.addFrontierCuts(relaxation);
  std::vector<int> placements;
  for (const VertexId j : instance.tree.internals())
    placements.push_back(formulation.placementVar(j));
  return reference::solveMip(formulation.model(),
                             integralStorageCosts(instance) ? 1.0 : 0.0, placements);
}

}  // namespace treeplace::lp::reference

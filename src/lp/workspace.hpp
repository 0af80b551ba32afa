#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse_basis.hpp"

namespace treeplace::lp {

/// Telemetry of a warm-started solve sequence (one branch-and-bound run, or
/// any caller that re-solves the same matrix under changing bounds).
struct WarmStartStats {
  long coldSolves = 0;        ///< two-phase primal solves from scratch
  long warmSolves = 0;        ///< dual-simplex re-solves from a reused basis
  long warmAlreadyOptimal = 0;///< warm solves that needed zero dual pivots
  long dualFallbacks = 0;     ///< warm attempts that had to re-run cold
  long primalIterations = 0;  ///< pivots spent in cold (phase 1 + 2) solves
  long dualIterations = 0;    ///< pivots spent in dual re-solves
  long boundFlips = 0;        ///< box pivots that touched no basis column
  // Sparse-engine telemetry (zero on the dense tableau paths).
  long refactorizations = 0;  ///< basis refactorizations forced by eta growth
  long etaCount = 0;          ///< product-form eta columns appended per pivot
  long basisNnz = 0;          ///< peak L+U fill of the factorized basis
  int tableauRows = 0;        ///< tableau height m
  int structuralRows = 0;     ///< model constraint rows inside m
  // Worker-pool telemetry (filled by the warm branch-and-bound engine;
  // zero on the cold oracle and on bare LP solves).
  int workers = 0;            ///< B&B workers used (0 = not the warm engine)
  long stealCount = 0;        ///< nodes claimed from a foreign shard
  double idleMs = 0.0;        ///< summed worker wall time spent waiting for work

  long totalSolves() const { return coldSolves + warmSolves; }
  /// Fraction of node LPs served by a reused basis instead of a cold build.
  double basisReuseRate() const {
    const long total = totalSolves();
    return total > 0 ? static_cast<double>(warmSolves) / static_cast<double>(total)
                     : 0.0;
  }
  /// Fold another worker's counters into this one (solve counters and pivot
  /// counts add up; tableau geometry is shared, so it is kept, not summed).
  void merge(const WarmStartStats& other) {
    coldSolves += other.coldSolves;
    warmSolves += other.warmSolves;
    warmAlreadyOptimal += other.warmAlreadyOptimal;
    dualFallbacks += other.dualFallbacks;
    primalIterations += other.primalIterations;
    dualIterations += other.dualIterations;
    boundFlips += other.boundFlips;
    refactorizations += other.refactorizations;
    etaCount += other.etaCount;
    basisNnz = std::max(basisNnz, other.basisNnz);
    tableauRows = std::max(tableauRows, other.tableauRows);
    structuralRows = std::max(structuralRows, other.structuralRows);
    stealCount += other.stealCount;
    idleMs += other.idleMs;
  }
};

/// Persistent simplex workspace for repeated solves of one model under
/// changing variable bounds — the branch-and-bound hot path.
///
/// The standard form (column layout, slack/artificial structure, constraint
/// matrix) is built ONCE from the root model and the tableau holds exactly
/// one row per model constraint: finite variable ranges never materialise as
/// rows. Each structural column instead carries a box [0, width], nonbasic
/// columns rest at either end of it (at-lower / at-upper), and both ratio
/// tests respect the boxes — when a column's own width is the binding limit
/// the step degenerates to a bound flip that moves no basis column at all.
/// Per-node bound changes therefore only move offsets and box widths: a
/// re-solve recomputes the transformed rhs through the basis inverse,
/// subtracts the at-upper column contributions, and runs the bounded dual
/// simplex from the parent basis, which stays dual-feasible because costs
/// never change. Typical B&B children re-optimise in a handful of dual
/// pivots or pure bound flips instead of a full two-phase primal solve.
///
/// By default the basis inverse lives in a SparseLu factorization with
/// product-form eta updates (lp/sparse_basis): the constraint matrix is kept
/// in CSC form, every pivot appends one eta column, and ftran/btran replace
/// the dense tableau sweeps, so a warm re-solve costs O(nnz) instead of
/// O(rows^2). SimplexOptions::denseTableau re-enables the dense tableau
/// engine as the independent sparse-vs-dense oracle, and
/// SimplexOptions::explicitBoundRows the legacy row-per-range layout (dense
/// by construction) for the boxes-vs-rows equivalence tests.
///
/// Restrictions: a variable mapped by its finite lower bound (Shift) must
/// keep a finite lower bound in every box, one mapped by its upper (Mirror)
/// a finite upper, and a free variable cannot be tightened at all. In
/// explicitBoundRows mode upper-bound finiteness must additionally match the
/// root model, since only root-finite ranges own a row.
class LpWorkspace {
 public:
  explicit LpWorkspace(const Model& model, const SimplexOptions& options = {});

  /// Value copy of this workspace with fresh telemetry: the standard form,
  /// current boxes, and any valid basis are duplicated, so a worker thread
  /// gets the root model parse for the price of a memcpy. The clone is fully
  /// independent — per-worker memory stays bounded by the tableau height.
  LpWorkspace clone() const {
    LpWorkspace copy(*this);
    copy.resetStats();
    return copy;
  }

  /// Zero the solve counters while keeping the tableau geometry fields, so a
  /// recycled workspace reports only its next run.
  void resetStats() {
    stats_ = {};
    stats_.tableauRows = m_;
    stats_.structuralRows = modelRows_;
  }

  int variableCount() const { return static_cast<int>(varMap_.size()); }

  /// Dense tableau height: model rows, plus one row per finite root range in
  /// explicitBoundRows mode only.
  int tableauRows() const { return m_; }
  /// Model constraint rows inside tableauRows(); the bounded-variable layout
  /// guarantees tableauRows() == structuralRows().
  int structuralRows() const { return modelRows_; }

  /// Set the box of `variable` for the next solve (model space).
  void setBounds(int variable, double lower, double upper);

  /// Replace the right-hand side of model constraint `row` for the next
  /// solve. The transformed rhs is recomputed from baseRhs_ through the basis
  /// inverse on every solve, and costs are untouched, so a warm basis stays
  /// dual-feasible: rhs deltas re-optimise in a few dual pivots exactly like
  /// bound changes. This is what lets the online layer patch demand changes
  /// into a live workspace instead of rebuilding the standard form.
  void setRhs(int row, double rhs) {
    baseRhs_.at(static_cast<std::size_t>(row)) = rhs;
  }

  /// Re-align every box and rhs with `model`, which must be the model this
  /// workspace was built from (same rows/columns; only bounds and rhs may
  /// have changed — matrix coefficients and objective are fixed at build).
  /// Any valid basis survives: see setRhs()/setBounds(). The warm MIP driver
  /// calls this at entry when reusing a caller-owned workspace across solves.
  void syncFromModel(const Model& model);

  double currentLower(int variable) const {
    return curLower_[static_cast<std::size_t>(variable)];
  }
  double currentUpper(int variable) const {
    return curUpper_[static_cast<std::size_t>(variable)];
  }

  /// A previous solve left an optimal (dual-feasible) basis to warm-start
  /// from.
  bool warmReady() const { return basisValid_; }

  /// Two-phase primal simplex from scratch under the current bounds.
  SolveStatus solveCold();

  /// Dual-simplex re-solve from the last optimal basis under the current
  /// bounds. Requires warmReady(). Returns IterationLimit on numerical
  /// trouble — the caller should fall back to solveCold().
  SolveStatus solveDual();

  /// solveDual() when a basis is available (falling back to solveCold() on
  /// numerical failure), else solveCold().
  SolveStatus solve();

  /// Objective and point of the last Optimal solve, in model space.
  double objective() const { return objective_; }
  std::span<const double> values() const { return values_; }

  const WarmStartStats& stats() const { return stats_; }

 private:
  /// How a model variable maps onto non-negative structural columns.
  struct VarMap {
    enum class Mode { Shift, Mirror, Split } mode = Mode::Shift;
    int column = -1;     ///< primary structural column
    int negColumn = -1;  ///< second column for Split
    int upperRow = -1;   ///< dedicated upper-bound row (explicitBoundRows only)
  };

  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(width_) +
              static_cast<std::size_t>(j)];
  }
  double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(width_) +
              static_cast<std::size_t>(j)];
  }

  void computeRhs(std::vector<double>& b) const;
  void refreshColumnWidths();
  void buildCostRow(std::span<const double> columnCost);
  /// Eliminate the pivot column from every row and the cost row, set
  /// basis_[row] = col. Coefficient columns only — the rhs column holds
  /// basic-variable VALUES (not B^-1 b) and is maintained by the callers,
  /// which know the step length and the leaving bound.
  void pivotMatrix(int row, int col);
  /// Move nonbasic column `col` to its opposite bound: rhs and objective
  /// update only, no basis change.
  void flipBound(int col);
  SolveStatus primalIterate();
  void purgeArtificialBasics();
  void extract();
  /// Dense tableau selected? explicitBoundRows has no sparse equivalent, so
  /// it forces the dense engine too.
  bool useDense() const { return options_.denseTableau || options_.explicitBoundRows; }
  SolveStatus solveColdSparse();
  SolveStatus solveDualSparse();
  double structuralCost(int column) const {
    return column < nStruct_ ? cost0_[static_cast<std::size_t>(column)] : 0.0;
  }

  SimplexOptions options_;

  // ---- fixed standard form (built once from the root model) ----
  std::vector<VarMap> varMap_;
  std::vector<double> rootLower_, rootUpper_;
  std::vector<double> objCoef_;         ///< model-space objective
  std::vector<double> cost0_;           ///< structural-column objective
  int nStruct_ = 0;
  int modelRows_ = 0;                   ///< model constraints
  int m_ = 0;                           ///< tableau rows (== modelRows_ unless
                                        ///< explicitBoundRows adds range rows)
  int nCols_ = 0;                       ///< struct + slack + artificial capacity
  int width_ = 0;                       ///< nCols_ + 1 (rhs)
  int artificialStart_ = 0;
  /// Columns in live use: artificial slots are handed out per cold solve
  /// (only rows whose slack starts infeasible need one), so a one-shot
  /// <=-dominated model pivots over the same width the dedicated one-shot
  /// tableau used. Columns in [activeCols_, nCols_) stay all-zero.
  int activeCols_ = 0;
  // CSR matrix terms per row over structural columns.
  std::vector<int> rowStart_;
  std::vector<int> termCol_;
  std::vector<double> termCoef_;
  // CSR offset terms per row: rhs -= coeff * currentOffset(var).
  std::vector<int> offsetStart_;
  std::vector<int> offsetVar_;
  std::vector<double> offsetCoef_;
  std::vector<double> baseRhs_;         ///< model rhs per model row
  std::vector<Sense> sense_;
  std::vector<int> slackCol_;           ///< -1 when Sense::Equal
  std::vector<int> upperRowVar_;        ///< model var of each upper-bound row

  // ---- per-solve state ----
  std::vector<double> curLower_, curUpper_;
  std::vector<double> colUpper_;        ///< box width per column (kInfinity =
                                        ///< classic non-negative column)
  std::vector<char> atUpper_;           ///< nonbasic column rests at its upper
  std::vector<double> a_;               ///< dense tableau, m_ x width_; the rhs
                                        ///< column holds basic-variable values
  std::vector<double> cost_;            ///< reduced-cost row, width_
  std::vector<int> basis_;
  std::vector<char> deadRow_;           ///< redundant rows found in phase 1
  std::vector<int> identityCol_;        ///< initial basic column per row
  std::vector<double> identityScale_;   ///< its +-1 coefficient
  std::vector<double> bScratch_;
  std::vector<double> costScratch_;
  std::vector<double> structValues_;
  std::vector<std::pair<double, int>> dualCandidates_;  ///< BFRT scratch
  SparseSimplex sparse_;  ///< default engine (vectors only, so clone() copies)
  bool basisValid_ = false;

  double objective_ = 0.0;
  std::vector<double> values_;
  WarmStartStats stats_;
};

}  // namespace treeplace::lp

// Reproduces every separation example of Section 3 (Figures 1-5) with the
// exact solvers and prints the claimed-vs-measured gaps.
//
//   $ ./policy_comparison [--n=6] [--K=8]

#include <iostream>

#include "core/bounds.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "exact/upwards_exact.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tree/paper_instances.hpp"

using namespace treeplace;

namespace {

std::string count(const std::optional<Placement>& p) {
  return p ? std::to_string(p->replicaCount()) : std::string("-");
}

}  // namespace

static int run(int argc, char** argv) {
  const Options options(argc, argv);
  const int n = static_cast<int>(options.getIntOr("n", 6));
  const int K = static_cast<int>(options.getIntOr("K", 8));

  std::cout << "Section 3 separation examples (n=" << n << ", K=" << K << ")\n\n";

  {
    std::cout << "Figure 1 — existence of solutions (W=1):\n";
    TextTable t;
    t.setHeader({"variant", "Closest", "Upwards", "Multiple"});
    for (const char variant : {'a', 'b', 'c'}) {
      const ProblemInstance inst = fig1AccessPolicies(variant);
      const auto closest = solveClosestHomogeneous(inst);
      const UpwardsExactResult up = solveUpwardsExact(inst);
      const auto multiple = solveMultipleHomogeneous(inst);
      t.addRow({std::string(1, variant), count(closest),
                up.feasible() ? std::to_string(up.placement->replicaCount()) : "-",
                count(multiple)});
    }
    std::cout << t.render() << "  paper: (a) all feasible, (b) Closest fails,"
              << " (c) only Multiple survives\n\n";
  }

  {
    const ProblemInstance inst = fig2UpwardsVsClosest(n);
    const auto closest = solveClosestHomogeneous(inst);
    const UpwardsExactResult up = solveUpwardsExact(inst);
    std::cout << "Figure 2 — Upwards vs Closest (W=n=" << n << "):\n"
              << "  Closest optimum: " << count(closest) << " (paper: n+2 = "
              << n + 2 << ")\n"
              << "  Upwards optimum: "
              << (up.feasible() ? std::to_string(up.placement->replicaCount()) : "-")
              << " (paper: 3)\n\n";
  }

  {
    const ProblemInstance inst = fig3MultipleVsUpwardsHomogeneous(n);
    const auto multiple = solveMultipleHomogeneous(inst);
    const UpwardsExactResult up = solveUpwardsExact(inst);
    std::cout << "Figure 3 — Multiple vs Upwards, homogeneous (W=2n):\n"
              << "  Multiple optimum: " << count(multiple) << " (paper: n+1 = "
              << n + 1 << ")\n"
              << "  Upwards optimum: "
              << (up.feasible() ? std::to_string(up.placement->replicaCount()) : "-")
              << " (paper: 2n = " << 2 * n << ", factor -> 2)\n\n";
  }

  {
    const ProblemInstance inst = fig4MultipleVsUpwardsHeterogeneous(n, K);
    const ExactIlpResult multiple = solveExactViaIlp(inst, Policy::Multiple);
    const UpwardsExactResult up = solveUpwardsExact(inst);
    std::cout << "Figure 4 — Multiple vs Upwards, heterogeneous (W = n,n,Kn):\n"
              << "  Multiple optimal cost: " << multiple.cost << " (paper: 2n = "
              << 2 * n << ")\n"
              << "  Upwards optimal cost: "
              << (up.feasible() ? up.placement->storageCost(inst) : -1.0)
              << " (paper: K*n = " << K * n << " — unbounded factor in K)\n\n";
  }

  {
    const Requests W = static_cast<Requests>(8) * n;
    const ProblemInstance inst = fig5LowerBoundGap(n, W);
    const auto multiple = solveMultipleHomogeneous(inst);
    std::cout << "Figure 5 — the counting bound is not approximable:\n"
              << "  ceil(sum r / W) = " << countingLowerBound(inst) << " (always 2)\n"
              << "  optimal cost (any policy): " << count(multiple)
              << " (paper: n+1 = " << n + 1 << ")\n";
  }
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

// Ablation: the refined lower bound (rational y, *integral* x, Section 7.1)
// versus the fully rational relaxation (Section 5.3). The paper calls the
// refinement "a drastic improvement"; this bench quantifies it.
//
//   $ ./bench_ablation_lowerbound [--trees=N] [--smax=N]

#include <iostream>

#include "bench_common.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using namespace treeplace::bench;

static int run(int argc, char** argv) {
  const Scale scale = readScale(argc, argv);
  std::cout << "=== Ablation: refined vs rational lower bound (Section 7.1) ===\n"
            << "plan: " << scale.trees << " trees/lambda, size " << scale.minSize
            << ".." << scale.maxSize << ", heterogeneous\n\n";

  ThreadPool pool;
  TextTable t;
  t.setHeader({"lambda", "mean rational LB", "mean refined LB", "refined/rational",
               "refined proven"});
  for (const double lambda : {0.2, 0.5, 0.8}) {
    GeneratorConfig config;
    config.minSize = scale.minSize;
    config.maxSize = scale.maxSize;
    config.lambda = lambda;
    config.heterogeneous = true;
    config.maxChildren = 2;  // same deep skeleton as the figure benches

    // Instances are independent: evaluate them on the pool into per-index
    // slots, then reduce sequentially so the stats stay deterministic.
    struct Slot {
      bool feasible = false;
      bool exact = false;
      double rational = 0.0;
      double refined = 0.0;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(scale.trees));
    pool.parallelFor(0, slots.size(), [&](std::size_t i) {
      const ProblemInstance inst =
          generateInstance(config, scale.seed + 1, static_cast<std::uint64_t>(i));
      const auto mb = runMixedBest(inst);
      LowerBoundOptions lbo;
      lbo.maxNodes = scale.lbNodes;
      if (mb) lbo.knownUpperBound = mb->cost;
      const LowerBoundResult re = refinedLowerBound(inst, lbo);
      const LowerBoundResult ra = rationalLowerBound(inst);
      if (!re.lpFeasible || !ra.lpFeasible) return;
      slots[i] = {true, re.exact, ra.bound, re.bound};
    });

    OnlineStats rational, refined, ratio;
    int proven = 0, feasible = 0;
    for (const Slot& slot : slots) {
      if (!slot.feasible) continue;
      ++feasible;
      rational.add(slot.rational);
      refined.add(slot.refined);
      if (slot.rational > 0) ratio.add(slot.refined / slot.rational);
      if (slot.exact) ++proven;
    }
    t.addRow({formatDouble(lambda, 1), formatDouble(rational.mean(), 1),
              formatDouble(refined.mean(), 1), formatDouble(ratio.mean(), 4),
              feasible > 0
                  ? formatPercent(static_cast<double>(proven) / feasible)
                  : "-"});
  }
  std::cout << t.render()
            << "\nexpectation: refined >= rational on every tree (ratio >= 1), "
               "with the gap coming from fractional replicas the rational "
               "program is allowed to buy\n";
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

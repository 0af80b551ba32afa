// Figure 10 — homogeneous platforms, relative cost (refined LP lower bound /
// heuristic cost, averaged over LP-feasible trees) across lambda = 0.1..0.9.
//
//   $ ./bench_fig10_homog_cost [--full] [--trees=N] [--smax=N] [--csv=file]

#include "bench_common.hpp"

static int run(int argc, char** argv) {
  using namespace treeplace;
  using namespace treeplace::bench;

  const Scale scale = readScale(argc, argv);
  banner("Figure 10: relative cost, homogeneous (Replica Counting)",
         "hierarchy Multiple >= Upwards >= Closest; MB stays >= ~0.85; MG weak "
         "at small lambda but the only survivor at high lambda; Closest "
         "curves drop to 0 as they stop finding solutions",
         scale);

  const ExperimentPlan plan = makePlan(scale, /*heterogeneous=*/false);
  ThreadPool pool;
  const ExperimentResult result = runExperiment(plan, &pool);
  std::cout << renderRelativeCostTable(result);
  std::cout << "\nMixedBest winners per lambda:\n"
            << renderMixedBestWinners(result);
  maybeWriteCsv(argc, argv, "fig10_homog_cost.csv", result);
  maybeWriteJson(argc, argv, "fig10_homog_cost.json", result);
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

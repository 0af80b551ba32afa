// Figure 12 — heterogeneous platforms, relative cost across lambda = 0.1..0.9.
//
//   $ ./bench_fig12_hetero_cost [--full] [--trees=N] [--smax=N] [--csv=file]

#include "bench_common.hpp"

static int run(int argc, char** argv) {
  using namespace treeplace;
  using namespace treeplace::bench;

  const Scale scale = readScale(argc, argv);
  banner("Figure 12: relative cost, heterogeneous (Replica Cost)",
         "same hierarchy as Figure 10 (Multiple >= Upwards >= Closest, MB >= "
         "~0.85) — heterogeneity does not degrade the heuristics",
         scale);

  const ExperimentPlan plan = makePlan(scale, /*heterogeneous=*/true);
  ThreadPool pool;
  const ExperimentResult result = runExperiment(plan, &pool);
  std::cout << renderRelativeCostTable(result);
  std::cout << "\nMixedBest winners per lambda:\n"
            << renderMixedBestWinners(result);
  maybeWriteCsv(argc, argv, "fig12_hetero_cost.csv", result);
  maybeWriteJson(argc, argv, "fig12_hetero_cost.json", result);
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

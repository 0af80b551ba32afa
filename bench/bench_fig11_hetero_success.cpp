// Figure 11 — heterogeneous platforms, percentage of trees with a solution
// (Replica Cost, s_j = W_j), across lambda = 0.1..0.9.
//
//   $ ./bench_fig11_hetero_success [--full] [--trees=N] [--smax=N] [--csv=file]

#include "bench_common.hpp"

static int run(int argc, char** argv) {
  using namespace treeplace;
  using namespace treeplace::bench;

  const Scale scale = readScale(argc, argv);
  banner("Figure 11: success rate, heterogeneous (Replica Cost)",
         "nearly identical to the homogeneous Figure 9 — the heuristics are "
         "insensitive to capacity heterogeneity",
         scale);

  ExperimentPlan plan = makePlan(scale, /*heterogeneous=*/true);
  plan.lbMaxNodes = 1;  // feasibility only

  ThreadPool pool;
  const ExperimentResult result = runExperiment(plan, &pool);
  std::cout << renderSuccessTable(result);
  maybeWriteCsv(argc, argv, "fig11_hetero_success.csv", result);
  maybeWriteJson(argc, argv, "fig11_hetero_success.json", result);
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

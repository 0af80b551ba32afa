// Figure 9 — homogeneous platforms, percentage of trees with a solution per
// heuristic and for the LP, across lambda = 0.1..0.9 (Section 7.3).
//
//   $ ./bench_fig09_homog_success [--full] [--trees=N] [--smax=N] [--csv=file]

#include "bench_common.hpp"

static int run(int argc, char** argv) {
  using namespace treeplace;
  using namespace treeplace::bench;

  const Scale scale = readScale(argc, argv);
  banner("Figure 9: success rate, homogeneous (Replica Counting)",
         "LP = MG = MB on top; UBCF close; MTD/MBU next; UTD below; the three "
         "Closest heuristics lowest, collapsing as lambda grows",
         scale);

  ExperimentPlan plan = makePlan(scale, /*heterogeneous=*/false);
  // Success rates do not need the refined bound: one root LP decides
  // feasibility, which keeps this harness fast.
  plan.lbMaxNodes = 1;

  ThreadPool pool;
  const ExperimentResult result = runExperiment(plan, &pool);
  std::cout << renderSuccessTable(result);
  maybeWriteCsv(argc, argv, "fig09_homog_success.csv", result);
  maybeWriteJson(argc, argv, "fig09_homog_success.json", result);
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

// Extension experiment — Section 8.2's composite objective
// (alpha*storage + beta*read + gamma*updates*write): how much the
// local-search post-optimizer improves MixedBest placements across objective
// mixes, and how the mixes shift the chosen placements.
//
//   $ ./bench_extension_objective [--trees=N] [--smax=N]

#include <iostream>

#include "bench_common.hpp"
#include "extensions/local_search.hpp"
#include "heuristics/heuristic.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using namespace treeplace::bench;

static int run(int argc, char** argv) {
  const Scale scale = readScale(argc, argv);
  std::cout << "=== Extension: composite objectives + local search (8.2) ===\n"
            << "plan: " << scale.trees << " trees, size " << scale.minSize << ".."
            << scale.maxSize << ", lambda 0.4, heterogeneous\n\n";

  struct Mix {
    const char* name;
    CostModel model;
  };
  const Mix mixes[] = {
      {"storage only (paper)", {1.0, 0.0, 0.0, 1.0}},
      {"storage + read", {1.0, 0.5, 0.0, 1.0}},
      {"storage + write", {1.0, 0.0, 0.5, 2.0}},
      {"balanced", {1.0, 0.3, 0.3, 1.0}},
  };

  GeneratorConfig config;
  config.minSize = scale.minSize;
  config.maxSize = scale.maxSize;
  config.lambda = 0.4;
  config.heterogeneous = true;
  config.maxChildren = 2;

  ThreadPool pool;
  TextTable t;
  t.setHeader({"objective mix", "mean MB objective", "after local search",
               "improvement", "mean rounds", "mean replicas before/after"});
  for (const Mix& mix : mixes) {
    struct Slot {
      bool ok = false;
      double before = 0.0, after = 0.0;
      int rounds = 0;
      std::size_t replBefore = 0, replAfter = 0;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(scale.trees));
    pool.parallelFor(0, slots.size(), [&](std::size_t i) {
      const ProblemInstance inst =
          generateInstance(config, scale.seed + 4, static_cast<std::uint64_t>(i));
      const auto mb = runMixedBest(inst);
      if (!mb) return;
      const LocalSearchResult r = improvePlacement(inst, mb->placement, mix.model);
      slots[i] = {true, compositeObjective(inst, mb->placement, mix.model),
                  r.objective, r.rounds, mb->placement.replicaCount(),
                  r.placement.replicaCount()};
    });
    OnlineStats before, after, rounds, replBefore, replAfter;
    for (const Slot& slot : slots) {
      if (!slot.ok) continue;
      before.add(slot.before);
      after.add(slot.after);
      rounds.add(slot.rounds);
      replBefore.add(static_cast<double>(slot.replBefore));
      replAfter.add(static_cast<double>(slot.replAfter));
    }
    const double gain =
        before.mean() > 0 ? 1.0 - after.mean() / before.mean() : 0.0;
    t.addRow({mix.name, formatDouble(before.mean(), 1), formatDouble(after.mean(), 1),
              formatPercent(gain), formatDouble(rounds.mean(), 1),
              formatDouble(replBefore.mean(), 1) + " / " +
                  formatDouble(replAfter.mean(), 1)});
  }
  std::cout << t.render(TextTable::Align::Left)
            << "\nexpectation: read-weighted mixes push replicas deeper (more "
               "replicas after search), write-weighted mixes consolidate "
               "(fewer); the search never degrades the objective\n";
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

// Ablation: sensitivity of the policy gap to the tree shape (the "varying
// the shape of the trees" follow-up named in the paper's conclusion).
// Sweeps client fraction and fanout cap at fixed lambda and reports success
// rates of one representative heuristic per policy family.
//
//   $ ./bench_ablation_tree_shape [--trees=N] [--smax=N] [--lambda=0.6]

#include <iostream>

#include "bench_common.hpp"
#include "heuristics/heuristic.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using namespace treeplace::bench;

static int run(int argc, char** argv) {
  const Scale scale = readScale(argc, argv);
  const Options options(argc, argv);
  const double lambda = options.getDoubleOr("lambda", 0.6);

  std::cout << "=== Ablation: tree shape vs policy success (lambda=" << lambda
            << ") ===\n"
            << "plan: " << scale.trees << " trees per cell, size " << scale.minSize
            << ".." << scale.maxSize << "\n\n";

  ThreadPool pool;
  TextTable t;
  t.setHeader({"clientFrac", "fanout", "CBU (Closest)", "UBCF (Upwards)",
               "MG (Multiple)", "mean depth"});
  for (const double clientFraction : {0.35, 0.5, 0.65}) {
    for (const int maxChildren : {0, 2, 4}) {
      GeneratorConfig config;
      config.minSize = scale.minSize;
      config.maxSize = scale.maxSize;
      config.lambda = lambda;
      config.clientFraction = clientFraction;
      config.maxChildren = maxChildren;
      config.heterogeneous = false;
      config.unitCosts = true;

      struct Slot {
        bool cbu = false, ubcf = false, mg = false;
        int depth = 0;
      };
      std::vector<Slot> slots(static_cast<std::size_t>(scale.trees));
      pool.parallelFor(0, slots.size(), [&](std::size_t i) {
        const ProblemInstance inst =
            generateInstance(config, scale.seed + 2, static_cast<std::uint64_t>(i));
        Slot& slot = slots[i];
        slot.cbu = runCBU(inst).has_value();
        slot.ubcf = runUBCF(inst).has_value();
        slot.mg = runMG(inst).has_value();
        for (const VertexId c : inst.tree.clients())
          slot.depth = std::max(slot.depth, inst.tree.depth(c));
      });

      int cbu = 0, ubcf = 0, mg = 0;
      double depthSum = 0.0;
      for (const Slot& slot : slots) {
        cbu += slot.cbu;
        ubcf += slot.ubcf;
        mg += slot.mg;
        depthSum += slot.depth;
      }
      const auto pct = [&](int count) {
        return formatPercent(static_cast<double>(count) / scale.trees);
      };
      t.addRow({formatDouble(clientFraction, 2),
                maxChildren == 0 ? "free" : std::to_string(maxChildren), pct(cbu),
                pct(ubcf), pct(mg), formatDouble(depthSum / scale.trees, 1)});
    }
    t.addSeparator();
  }
  std::cout << t.render()
            << "\nexpectation: the Multiple > Upwards > Closest success "
               "ordering is stable across shapes; deeper trees (small fanout) "
               "squeeze Closest harder because single subtrees concentrate "
               "demand\n";
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

// Extension experiment — the paper's concluding question: "It will be
// instructive to see whether the superiority of the new Upwards and Multiple
// policies over Closest remains so important in the presence of QoS
// constraints."
//
// Sweeps lambda with a fraction of QoS-bounded clients and measures success
// of the QoS-aware heuristic per policy family against the QoS-enforcing
// feasibility line (rational LP).
//
//   $ ./bench_extension_qos [--trees=N] [--smax=N] [--qos-fraction=0.5]

#include <iostream>

#include "bench_common.hpp"
#include "exact/closest_qos.hpp"
#include "extensions/qos_aware.hpp"
#include "formulation/lower_bound.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using namespace treeplace::bench;

static int run(int argc, char** argv) {
  const Scale scale = readScale(argc, argv);
  const Options options(argc, argv);
  const double qosFraction = options.getDoubleOr("qos-fraction", 0.5);

  std::cout << "=== Extension: policy gap under QoS constraints ===\n"
            << "plan: " << scale.trees << " trees/lambda, size " << scale.minSize
            << ".." << scale.maxSize << ", " << formatPercent(qosFraction, 0)
            << " of clients with QoS in [2,4] hops\n"
            << "question (paper conclusion): does Multiple > Upwards > Closest "
               "survive QoS?\n\n";

  ThreadPool pool;
  TextTable t;
  t.setHeader({"lambda", "QoS-CBU (Closest)", "Closest-opt (DP)",
               "QoS-UBCF (Upwards)", "QoS-MG (Multiple)", "LP (QoS)"});
  for (const double lambda : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    GeneratorConfig config;
    config.minSize = scale.minSize;
    config.maxSize = scale.maxSize;
    config.lambda = lambda;
    config.maxChildren = 2;
    config.qosFraction = qosFraction;
    config.qosMinHops = 2;
    config.qosMaxHops = 4;
    config.unitCosts = true;

    struct Slot {
      bool cbu = false, closestOpt = false, ubcf = false, mg = false, lp = false;
    };
    std::vector<Slot> slots(static_cast<std::size_t>(scale.trees));
    pool.parallelFor(0, slots.size(), [&](std::size_t i) {
      const ProblemInstance inst =
          generateInstance(config, scale.seed + 3, static_cast<std::uint64_t>(i));
      Slot& slot = slots[i];
      slot.cbu = runQosAwareCBU(inst).has_value();
      // The [9]-style exact DP marks Closest's *fundamental* feasibility.
      slot.closestOpt = solveClosestHomogeneousQos(inst).has_value();
      slot.ubcf = runQosAwareUBCF(inst).has_value();
      slot.mg = runQosAwareMG(inst).has_value();
      LowerBoundOptions lbo;
      lbo.maxNodes = 1;  // feasibility only
      slot.lp = refinedLowerBound(inst, lbo).lpFeasible;
    });
    int cbu = 0, closestOpt = 0, ubcf = 0, mg = 0, lp = 0;
    for (const Slot& slot : slots) {
      cbu += slot.cbu;
      closestOpt += slot.closestOpt;
      ubcf += slot.ubcf;
      mg += slot.mg;
      lp += slot.lp;
    }
    const auto pct = [&](int count) {
      return formatPercent(static_cast<double>(count) / scale.trees);
    };
    t.addRow({formatDouble(lambda, 1), pct(cbu), pct(closestOpt), pct(ubcf),
              pct(mg), pct(lp)});
  }
  std::cout << t.render()
            << "\nexpectation: the hierarchy survives — QoS removes remote "
               "servers, which hurts Upwards/Multiple more than Closest in "
               "relative terms, but Multiple still dominates in absolute "
               "success\n";
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

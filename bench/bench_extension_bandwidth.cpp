// Extension experiment — bandwidth-constrained Multiple on the Fig. 11/12
// heterogeneous platforms, with failures attributed per constraint family:
// a tree without a solution either lacks server capacity (the paper's axis,
// identical to the Figure 11 failures) or trips a link cap that no complete
// assignment can avoid (the extension's axis). The split is exact, not
// heuristic: solveMultipleWithBandwidthStatus decides Multiple feasibility
// under both families (see extensions/bandwidth_aware.hpp).
//
//   $ ./bench_extension_bandwidth [--full] [--trees=N] [--smax=N]
//                                 [--bw-fraction=0.4] [--json[=path]]

#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "extensions/bandwidth_aware.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "tree/generator.hpp"

using namespace treeplace;
using namespace treeplace::bench;

namespace {

struct LambdaCounts {
  double lambda = 0.0;
  int feasible = 0;
  int capacityInfeasible = 0;
  int bandwidthInfeasible = 0;
};

}  // namespace

static int run(int argc, char** argv) {
  const Scale scale = readScale(argc, argv);
  const Options options(argc, argv);
  const double bwFraction = options.getDoubleOr("bw-fraction", 0.4);

  std::cout << "=== Extension: success attribution under bandwidth caps ===\n"
            << "plan: " << scale.trees << " trees/lambda, size " << scale.minSize
            << ".." << scale.maxSize << ", " << formatPercent(bwFraction, 0)
            << " of links capped near their structural minimum flow\n"
            << "question: how much of the Fig. 11 failure rate is capacity, "
               "how much is the new bandwidth axis?\n\n";

  ThreadPool pool;
  std::vector<LambdaCounts> rows;
  TextTable t;
  t.setHeader({"lambda", "feasible", "capacity-infeasible", "bandwidth-infeasible"});
  for (const double lambda : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    GeneratorConfig config;
    config.minSize = scale.minSize;
    config.maxSize = scale.maxSize;
    config.lambda = lambda;
    config.maxChildren = 2;
    config.heterogeneous = true;

    std::vector<BandwidthStatus> statuses(static_cast<std::size_t>(scale.trees));
    pool.parallelFor(0, statuses.size(), [&](std::size_t i) {
      Prng rng(scale.seed + 7919 * static_cast<std::uint64_t>(i) +
               static_cast<std::uint64_t>(lambda * 1000.0));
      ProblemInstance inst = generateInstance(config, scale.seed + 11,
                                              static_cast<std::uint64_t>(i));
      // Caps straddling the structural flow of each internal link: some
      // bind, some do not (the pattern of the exactness cross-check test).
      // Client uplinks stay uncapped — they always carry the client's full
      // demand, so capping them below it is trivially infeasible and would
      // drown the attribution signal.
      const auto sums = inst.allSubtreeRequests();
      for (std::size_t v = 0; v < inst.tree.vertexCount(); ++v) {
        if (static_cast<VertexId>(v) == inst.tree.root()) continue;
        if (!inst.tree.isInternal(static_cast<VertexId>(v))) continue;
        if (!rng.bernoulli(bwFraction)) continue;
        inst.bandwidth[v] = std::max<Requests>(
            0, sums[v] - rng.uniformInt(0, std::max<Requests>(1, sums[v] / 4)));
      }
      statuses[i] = solveMultipleWithBandwidthStatus(inst).status;
    });

    LambdaCounts row;
    row.lambda = lambda;
    for (const BandwidthStatus status : statuses) {
      switch (status) {
        case BandwidthStatus::Feasible: ++row.feasible; break;
        case BandwidthStatus::CapacityInfeasible: ++row.capacityInfeasible; break;
        case BandwidthStatus::BandwidthInfeasible: ++row.bandwidthInfeasible; break;
      }
    }
    rows.push_back(row);
    const auto pct = [&](int count) {
      return formatPercent(static_cast<double>(count) / scale.trees);
    };
    t.addRow({formatDouble(lambda, 1), pct(row.feasible),
              pct(row.capacityInfeasible), pct(row.bandwidthInfeasible)});
  }
  std::cout << t.render()
            << "\nexpectation: capacity failures dominate at high lambda "
               "(matching Fig. 11); bandwidth failures appear across the "
               "whole sweep and would be invisible in a collapsed success "
               "column\n";

  const std::string file = jsonPath(argc, argv, "bench_extension_bandwidth.json");
  if (!file.empty()) {
    std::ofstream out(file);
    if (!out) {
      std::cerr << "cannot open " << file << " for writing\n";
      return 1;
    }
    JsonWriter json(out);
    json.beginObject();
    json.key("bench").value("extension_bandwidth");
    json.key("trees_per_lambda").value(scale.trees);
    json.key("bw_fraction").value(bwFraction);
    json.key("per_lambda").beginArray();
    for (const LambdaCounts& row : rows) {
      json.beginObject();
      json.key("lambda").value(row.lambda);
      json.key("feasible").value(row.feasible);
      json.key("capacity_infeasible").value(row.capacityInfeasible);
      json.key("bandwidth_infeasible").value(row.bandwidthInfeasible);
      json.endObject();
    }
    json.endArray();
    json.endObject();
    out << '\n';
    std::cout << "\nJSON written to " << file << '\n';
  }
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

// Section 8.1 extension demo: two object types (a hot catalogue and a cold
// archive) share one tree and one per-node capacity budget. Compares the
// greedy multi-object heuristic against the exact extended ILP.
//
//   $ ./multi_object_demo [--seed=3]

#include <iostream>

#include "extensions/multi_object.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "tree/builder.hpp"

using namespace treeplace;

static int run(int argc, char** argv) {
  const Options options(argc, argv);
  Prng rng(static_cast<std::uint64_t>(options.getIntOr("seed", 3)));

  // Shared tree: origin -> 3 regions -> 3 sites each.
  MultiObjectInstance mo;
  {
    TreeBuilder b;
    const VertexId origin = b.addRoot(60);
    for (int r = 0; r < 3; ++r) {
      const VertexId region = b.addInternal(origin, 25);
      for (int s = 0; s < 3; ++s) b.addClient(region, 0);
    }
    mo.shared = b.build();
  }
  const std::size_t n = mo.shared.tree.vertexCount();

  // Object 0: "catalogue" — hot, small per-replica cost, tight QoS.
  // Object 1: "archive"  — colder but bulkier, replicas cost more.
  mo.objects.resize(2);
  for (std::size_t k = 0; k < 2; ++k) {
    mo.objects[k].requests.assign(n, 0);
    mo.objects[k].storageCost.assign(n, 0.0);
    mo.objects[k].qos.assign(n, kNoQos);
  }
  for (const VertexId j : mo.shared.tree.internals()) {
    mo.objects[0].storageCost[static_cast<std::size_t>(j)] = 4.0;
    mo.objects[1].storageCost[static_cast<std::size_t>(j)] = 10.0;
  }
  for (const VertexId c : mo.shared.tree.clients()) {
    mo.objects[0].requests[static_cast<std::size_t>(c)] = rng.uniformInt(3, 9);
    mo.objects[0].qos[static_cast<std::size_t>(c)] = 1.0;  // serve at the region
    mo.objects[1].requests[static_cast<std::size_t>(c)] = rng.uniformInt(0, 4);
  }
  mo.validate();

  std::cout << "Two objects on a shared tree (" << mo.totalRequests()
            << " total requests; catalogue must be served within 1 hop)\n\n";

  const auto greedy = runMultiObjectGreedy(mo);
  const MultiObjectExactResult exact = solveMultiObjectIlp(mo);

  TextTable t;
  t.setHeader({"solver", "cost", "catalogue replicas", "archive replicas", "valid"});
  auto describe = [&](const char* name, const MultiObjectPlacement& p) {
    const auto check = validateMultiObject(mo, p, Policy::Multiple);
    t.addRow({name, formatDouble(p.storageCost(mo), 0),
              std::to_string(p.perObject[0].replicaCount()),
              std::to_string(p.perObject[1].replicaCount()),
              check.ok ? "yes" : ("NO: " + check.detail)});
  };
  if (greedy) describe("greedy (QoS-first order)", *greedy);
  else t.addRow({"greedy", "-", "-", "-", "failed"});
  if (exact.placement) describe("exact ILP", *exact.placement);
  std::cout << t.render();
  if (exact.placement && greedy) {
    std::cout << "\ngreedy / optimal cost ratio: "
              << formatDouble(greedy->storageCost(mo) / exact.cost, 3) << '\n';
  }
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

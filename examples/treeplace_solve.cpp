// Command-line solver: read a `treeplace-instance v1` file, place replicas
// with a chosen algorithm, print the placement (and optionally the instance
// format itself, for piping).
//
//   $ ./treeplace_solve instance.txt --algo=MG
//   $ ./treeplace_solve instance.txt --algo=exact --policy=upwards
//   $ ./treeplace_solve --random --size=40 --lambda=0.7 --print-instance
//
// Algorithms: CTDA CTDLF CBU UTD UBCF MTD MBU MG MB exact optimal-multiple
// optimal-closest. `exact` uses the ILP for --policy=closest|upwards|multiple.

#include <fstream>
#include <iostream>

#include "core/placement_io.hpp"
#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "support/cli.hpp"
#include "support/require.hpp"
#include "tree/generator.hpp"
#include "tree/io.hpp"

using namespace treeplace;

namespace {

int fail(const std::string& message) {
  std::cerr << "error: " << message << '\n';
  return 1;
}

/// --save=<file>: persist the placement in the treeplace-placement format.
void maybeSave(const Options& options, const Placement& placement) {
  const auto path = options.get("save");
  if (!path) return;
  std::ofstream out(*path);
  writePlacement(out, placement);
  std::cerr << "placement written to " << *path << '\n';
}

Policy parsePolicy(const std::string& name) {
  if (name == "closest") return Policy::Closest;
  if (name == "upwards") return Policy::Upwards;
  if (name == "multiple") return Policy::Multiple;
  throw PreconditionError("unknown policy '" + name + "'");
}

void printPlacement(const ProblemInstance& inst, const Placement& p, Policy policy) {
  // Core = coverage/capacity/policy (what the Section 6 heuristics promise);
  // full additionally checks QoS and bandwidth when the instance has them.
  ValidationOptions coreChecks;
  coreChecks.checkQos = false;
  coreChecks.checkBandwidth = false;
  const bool core = validatePlacement(inst, p, policy, coreChecks).ok();
  const bool full = isValidPlacement(inst, p, policy);
  std::cout << "cost " << p.storageCost(inst) << "  replicas " << p.replicaCount()
            << "  valid " << (core ? "yes" : "NO");
  if (inst.hasQosConstraints() || inst.hasBandwidthConstraints())
    std::cout << "  (incl. QoS/bandwidth: " << (full ? "yes" : "no") << ')';
  std::cout << '\n';
  for (const VertexId r : p.replicaList())
    std::cout << "replica " << r << " load " << p.serverLoad(r) << '\n';
  for (const VertexId c : inst.tree.clients()) {
    if (p.shares(c).empty()) continue;
    std::cout << "client " << c << " ->";
    for (const ServedShare& share : p.shares(c))
      std::cout << ' ' << share.server << 'x' << share.amount;
    std::cout << '\n';
  }
}

}  // namespace

static int run(int argc, char** argv) {
  const Options options(argc, argv);
  try {
    ProblemInstance instance;
    if (options.hasFlag("random")) {
      GeneratorConfig config;
      config.minSize = config.maxSize =
          static_cast<int>(options.getIntOr("size", 40));
      config.lambda = options.getDoubleOr("lambda", 0.5);
      config.heterogeneous = options.hasFlag("hetero");
      config.unitCosts = !config.heterogeneous;
      instance = generateInstance(
          config, static_cast<std::uint64_t>(options.getIntOr("seed", 1)), 0);
    } else if (!options.positionals().empty()) {
      std::ifstream in(options.positionals().front());
      if (!in) return fail("cannot open " + options.positionals().front());
      instance = readInstance(in);
    } else {
      instance = readInstance(std::cin);
    }

    if (options.hasFlag("print-instance")) {
      writeInstance(std::cout, instance);
      return 0;
    }

    const std::string algo = options.getOr("algo", "MB");
    if (options.hasFlag("bound")) {
      const LowerBoundResult lb = refinedLowerBound(instance);
      std::cout << "lower bound " << lb.bound << (lb.exact ? " (proven)" : "")
                << "  lp " << (lb.lpFeasible ? "feasible" : "infeasible") << '\n';
    }

    if (algo == "MB") {
      const auto mb = runMixedBest(instance);
      if (!mb) return fail("no heuristic found a solution");
      std::cout << "winner " << mb->winner << '\n';
      printPlacement(instance, mb->placement, Policy::Multiple);
      maybeSave(options, mb->placement);
    } else if (algo == "exact") {
      const Policy policy = parsePolicy(options.getOr("policy", "multiple"));
      const ExactIlpResult r = solveExactViaIlp(instance, policy);
      if (!r.feasible()) return fail("instance infeasible for this policy");
      if (!r.proven) std::cerr << "warning: node budget hit, solution may be suboptimal\n";
      printPlacement(instance, *r.placement, policy);
      maybeSave(options, *r.placement);
    } else if (algo == "optimal-multiple") {
      const auto p = solveMultipleHomogeneous(instance);
      if (!p) return fail("infeasible");
      printPlacement(instance, *p, Policy::Multiple);
      maybeSave(options, *p);
    } else if (algo == "optimal-closest") {
      const auto p = solveClosestHomogeneous(instance);
      if (!p) return fail("infeasible under Closest");
      printPlacement(instance, *p, Policy::Closest);
      maybeSave(options, *p);
    } else if (const HeuristicInfo* h = findHeuristic(algo)) {
      const auto p = h->run(instance);
      if (!p) return fail(std::string(h->name) + " found no solution");
      printPlacement(instance, *p, h->policy);
      maybeSave(options, *p);
    } else {
      return fail("unknown --algo=" + algo);
    }
  } catch (const ParseError& e) {
    return fail(e.what());
  } catch (const PreconditionError& e) {
    return fail(e.what());
  }
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

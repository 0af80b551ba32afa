// A content-distribution scenario on a three-tier ISP-style hierarchy
// (origin -> metro PoPs -> access nodes -> client sites): heterogeneous
// server capacities, optional QoS, all Section 6 heuristics compared against
// the refined LP lower bound.
//
//   $ ./cdn_simulation [--metros=4] [--access=3] [--sites=4] [--seed=1]
//                      [--lambda=0.6] [--qos]

#include <iostream>

#include "core/validate.hpp"
#include "experiments/runner.hpp"
#include "extensions/qos_aware.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "support/cli.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"
#include "tree/builder.hpp"

using namespace treeplace;

namespace {

/// Build the hierarchy: capacities shrink towards the edge, client demand is
/// zipf-ish (a few hot sites), and — with --qos — edge clients require
/// two-hop service.
ProblemInstance buildCdn(int metros, int accessPerMetro, int sitesPerAccess,
                         double lambda, bool withQos, Prng& rng) {
  TreeBuilder b;
  std::vector<std::pair<VertexId, int>> accessNodes;  // (vertex, tier)
  Requests demand = 0;
  std::vector<VertexId> clients;
  std::vector<Requests> requests;

  const VertexId origin = b.addRoot(0);  // capacity patched below
  for (int m = 0; m < metros; ++m) {
    const VertexId metro = b.addInternal(origin, 0);
    for (int a = 0; a < accessPerMetro; ++a) {
      const VertexId access = b.addInternal(metro, 0);
      for (int s = 0; s < sitesPerAccess; ++s) {
        const Requests r = rng.bernoulli(0.15) ? rng.uniformInt(20, 40)
                                               : rng.uniformInt(1, 8);
        demand += r;
        const double qos = withQos && rng.bernoulli(0.5) ? 2.0 : kNoQos;
        clients.push_back(b.addClient(access, r, qos));
        requests.push_back(r);
      }
      accessNodes.push_back({access, 2});
    }
    accessNodes.push_back({metro, 1});
  }
  accessNodes.push_back({origin, 0});

  // Distribute capacity: origin gets ~40% of the pool, metros share ~35%,
  // access nodes the rest; the pool is demand / lambda.
  ProblemInstance inst = b.build();
  const double pool = static_cast<double>(demand) / lambda;
  const double tierShare[3] = {0.40, 0.35, 0.25};
  int tierCount[3] = {1, metros, metros * accessPerMetro};
  for (const auto& [node, tier] : accessNodes) {
    const double mean = pool * tierShare[tier] / tierCount[tier];
    const auto w = static_cast<Requests>(
        std::max(1.0, rng.uniformReal(0.7 * mean, 1.3 * mean)));
    inst.capacity[static_cast<std::size_t>(node)] = w;
    inst.storageCost[static_cast<std::size_t>(node)] = static_cast<double>(w);
  }
  inst.validate();
  return inst;
}

}  // namespace

static int run(int argc, char** argv) {
  const Options options(argc, argv);
  const int metros = static_cast<int>(options.getIntOr("metros", 4));
  const int access = static_cast<int>(options.getIntOr("access", 3));
  const int sites = static_cast<int>(options.getIntOr("sites", 4));
  const double lambda = options.getDoubleOr("lambda", 0.6);
  const bool withQos = options.hasFlag("qos");
  Prng rng(static_cast<std::uint64_t>(options.getIntOr("seed", 1)));

  const ProblemInstance inst = buildCdn(metros, access, sites, lambda, withQos, rng);
  std::cout << "CDN tree: " << inst.tree.internals().size() << " nodes, "
            << inst.tree.clients().size() << " client sites, demand "
            << inst.totalRequests() << ", load " << inst.load()
            << (withQos ? ", QoS on half the edge sites" : "") << "\n\n";

  // The Section 6 heuristics solve plain Replica Cost (no QoS), so they are
  // compared against the QoS-free bound; the QoS-aware variants below get
  // the (higher) QoS-enforcing bound.
  const auto mb = runMixedBest(inst);
  LowerBoundOptions lbo;
  lbo.maxNodes = 300;
  lbo.enforceQos = false;
  if (mb) lbo.knownUpperBound = mb->cost;
  const LowerBoundResult lb = refinedLowerBound(inst, lbo);
  std::cout << "Refined LP lower bound (capacities only): " << lb.bound
            << (lb.exact ? " (proven)" : " (budget-limited)") << "\n\n";

  // Replica Cost validity: capacities and policy, QoS/bandwidth not claimed.
  ValidationOptions coreChecks;
  coreChecks.checkQos = false;
  coreChecks.checkBandwidth = false;

  TextTable t;
  t.setHeader({"heuristic", "policy", "cost", "replicas", "LB/cost", "valid"});
  for (const HeuristicInfo& h : allHeuristics()) {
    const auto p = h.run(inst);
    if (!p) {
      t.addRow({std::string(h.shortName), std::string(toString(h.policy)), "-", "-",
                "0.000", "-"});
      continue;
    }
    const double cost = p->storageCost(inst);
    t.addRow({std::string(h.shortName), std::string(toString(h.policy)),
              formatDouble(cost, 0), std::to_string(p->replicaCount()),
              formatDouble(lb.lpFeasible ? lb.bound / cost : 0.0, 3),
              validatePlacement(inst, *p, h.policy, coreChecks).ok() ? "yes" : "NO"});
  }
  if (mb) {
    t.addSeparator();
    t.addRow({"MB (=" + std::string(mb->winner) + ")", "Multiple",
              formatDouble(mb->cost, 0), std::to_string(mb->placement.replicaCount()),
              formatDouble(lb.lpFeasible ? lb.bound / mb->cost : 0.0, 3),
              validatePlacement(inst, mb->placement, Policy::Multiple, coreChecks).ok()
                  ? "yes"
                  : "NO"});
  }
  std::cout << t.render();

  if (withQos) {
    LowerBoundOptions qosLbo = lbo;
    qosLbo.enforceQos = true;
    const LowerBoundResult qosLb = refinedLowerBound(inst, qosLbo);
    std::cout << "\nQoS-aware variants vs the QoS-enforcing bound ("
              << formatDouble(qosLb.bound, 0) << "):\n";
    TextTable q;
    q.setHeader({"variant", "cost", "LB/cost", "valid incl. QoS"});
    auto row = [&](const char* name, const std::optional<Placement>& p, Policy policy) {
      if (!p) {
        q.addRow({name, "-", "0.000", "-"});
        return;
      }
      const double cost = p->storageCost(inst);
      q.addRow({name, formatDouble(cost, 0),
                formatDouble(qosLb.lpFeasible ? qosLb.bound / cost : 0.0, 3),
                isValidPlacement(inst, *p, policy) ? "yes" : "NO"});
    };
    row("QoS-aware CBU", runQosAwareCBU(inst), Policy::Closest);
    row("QoS-aware UBCF", runQosAwareUBCF(inst), Policy::Upwards);
    row("QoS-aware MG", runQosAwareMG(inst), Policy::Multiple);
    std::cout << q.render();
  }
  return 0;
}

int main(int argc, char** argv) { return treeplace::runCli(argc, argv, run); }

#include "exact/closest_qos.hpp"

#include "core/frontier_drivers.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneousQos(const ProblemInstance& instance,
                                                    FrontierStats* stats,
                                                    BudgetGuard* guard) {
  instance.validate();
  const ClosestQosKernel kernel(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveFrontierBatch(kernel, instance.tree, stats, guard,
                          [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestQosStreaming(const ProblemInstance& instance,
                                           const FrontierStreamOptions& options) {
  instance.validate();
  return countFrontierStreaming(ClosestQosKernel(instance), instance.tree, options);
}

}  // namespace treeplace

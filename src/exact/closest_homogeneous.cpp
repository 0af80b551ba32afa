#include "exact/closest_homogeneous.hpp"

#include "core/frontier_drivers.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats,
                                                 BudgetGuard* guard) {
  instance.validate();
  const ClosestKernel kernel(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveFrontierBatch(kernel, instance.tree, stats, guard,
                          [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options) {
  instance.validate();
  return countFrontierStreaming(ClosestKernel(instance), instance.tree, options);
}

}  // namespace treeplace

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "core/decomposition.hpp"
#include "core/frontier.hpp"
#include "core/qos_dominance.hpp"
#include "support/require.hpp"
#include "tree/problem.hpp"

namespace treeplace {

// The polynomial Table-1 recurrences, each written once.
//
// A kernel is one policy's bottom-up frontier recurrence over the merge-bag
// schedule (core/decomposition):
//   - seed(d, b): the one-point frontier of a client bag;
//   - chainCap(d, b): the count cap of the bag's child-merge chain;
//   - merge(store, acc, child, d, childBag, cap): fold one child frontier
//     into the accumulator;
//   - fold(store, acc, d, b, cap): the place/skip step that turns the final
//     accumulator into the bag's frontier (`cap` is the bag's chain cap,
//     which the driver already holds: the cone's cap follows from it without
//     touching the tree again).
//
// Kernels own no frontiers. They run against a *store* — a storage strategy
// from core/frontier_drivers — through this interface, where Handle names
// one frontier:
//   Handle seed(const Entry&)                 one-point frontier
//   Handle unit()                             neutral accumulator
//   std::size_t size(Handle), Entry at(Handle, k)
//   Handle convolve(acc, child, cap)          2-D child merge
//   Handle convolve(acc, child, cap, uplink)  QoS child merge
//   Handle keepPrefix(acc, keep, place)       acc[0, keep) as skip points,
//                                             then `place` if its count >= 0
//   beginCandidates(cap), candidate(Entry), Handle commitCandidates(acc)
//                                             general place/skip prune
// Candidate and place entries carry the node-frontier backpointers
// (prev = index into acc, child = 1 when the bag holds a replica); stores
// without reconstruction ignore them.
//
// The drivers (core/frontier_drivers) decide the schedule, the child order
// and what is kept:
//   - solveFrontierBatch: one pass into a backpointer arena;
//   - countFrontierStreaming: a width-capped stack slab, count only;
//   - FrontierMemo: an epoch-stamped memo that re-folds only dirty bags,
//     under IncrementalSolver (with reconstruction on top) and the multitree
//     search (ConstrainedClosestKernel, one memo per member tree).
// All of them fold through these kernels, so every driver of one policy
// computes the same frontiers.

/// Seed and child merge of the 2-D (count, flow) kernels: a client bag
/// starts at (0 replicas, r_i unserved), and children convolve plainly —
/// counts add, flows add.
class FlowKernelBase {
 public:
  using Entry = FrontierEntry;

  explicit FlowKernelBase(const ProblemInstance& instance) : instance_(&instance) {}

  Entry seed(const TreeDecomposition& d, BagId b) const {
    return {0, instance_->requests[static_cast<std::size_t>(d.anchor(b))], -1, -1};
  }

  template <typename Store, typename Handle>
  Handle merge(Store& s, Handle acc, Handle child, const TreeDecomposition&, BagId,
               std::int32_t cap) const {
    return s.convolve(acc, child, cap);
  }

 protected:
  const ProblemInstance* instance_;
};

/// Closest on homogeneous nodes: a replica at v absorbs *all* residual flow
/// of subtree(v), which is allowed only when that flow is at most W.
class ClosestKernel : public FlowKernelBase {
 public:
  explicit ClosestKernel(const ProblemInstance& instance)
      : FlowKernelBase(instance), W_(instance.homogeneousCapacity()) {
    TREEPLACE_REQUIRE(W_ > 0, "capacity must be positive");
  }

  /// Width bound of a Closest frontier over the bag's child forest: every
  /// replica on a Pareto point serves at least one client wholly, and
  /// replicas occupy distinct internal nodes — so Pareto counts never exceed
  /// min(#clients, #internals) of the forest (the anchor is not in it).
  static std::int32_t chainCap(const TreeDecomposition& d, BagId b) {
    return static_cast<std::int32_t>(
        std::min(d.clientsInCone(b), d.internalsInCone(b) - 1));
  }

  /// Place/skip, sort-free. Flows decrease strictly along the frontier, so
  /// the entries able to host a replica (flow <= W) form a suffix; only the
  /// first of them yields a non-dominated place point (count + 1, flow 0),
  /// and that point dominates every later skip entry.
  template <typename Store, typename Handle>
  Handle fold(Store& s, Handle acc, const TreeDecomposition&, BagId,
              std::int32_t) const {
    const std::size_t size = s.size(acc);
    const std::size_t k0 =
        placePoint(size, W_, [&](std::size_t k) { return s.at(acc, k).flow; });
    Entry place{-1, 0, static_cast<std::int32_t>(k0), 1};
    if (k0 < size && s.at(acc, k0).flow > 0) place.count = s.at(acc, k0).count + 1;
    return s.keepPrefix(acc, std::min(k0 + 1, size), place);
  }

  /// The place-point search: the first of `size` flow-decreasing entries a
  /// replica may absorb wholly (flow <= W), or `size` when none fits.
  template <typename FlowAt>
  static std::size_t placePoint(std::size_t size, Requests W, FlowAt flowAt) {
    for (std::size_t k = 0; k < size; ++k)
      if (flowAt(k) <= W) return k;
    return size;
  }

 protected:
  Requests W_;
};

/// Per-vertex placement constraint of ConstrainedClosestKernel. Its count
/// dimension is cost-weighted: a zero-cost replica is paid for outside the
/// kernel (the multitree search counts a shared gateway once, globally).
enum class VertexConstraint : std::uint8_t {
  Free,        ///< optional replica at cost 1
  FreeZero,    ///< optional replica at cost 0
  Forced,      ///< mandatory replica at cost 1
  ForcedZero,  ///< mandatory replica at cost 0
  Forbidden,   ///< no replica
};

/// Closest under a VertexConstraint per vertex: the conditional optimum the
/// multitree search probes. Free is ClosestKernel's fold. The other states
/// keep the same place point k0: a zero-cost optional replica keeps the skip
/// entries before k0 and dominates the rest with (count_k0, 0); a mandatory
/// replica keeps only its own point, and none when nothing fits under W.
class ConstrainedClosestKernel : public ClosestKernel {
 public:
  ConstrainedClosestKernel(const ProblemInstance& instance,
                           std::span<const VertexConstraint> constraint)
      : ClosestKernel(instance), constraint_(constraint) {}

  /// Only the internal-count half of ClosestKernel::chainCap holds: a forced
  /// replica may serve no client at all.
  static std::int32_t chainCap(const TreeDecomposition& d, BagId b) {
    return static_cast<std::int32_t>(d.internalsInCone(b) - 1);
  }

  template <typename Store, typename Handle>
  Handle fold(Store& s, Handle acc, const TreeDecomposition& d, BagId b,
              std::int32_t cap) const {
    const VertexConstraint rule = constraint_[static_cast<std::size_t>(d.anchor(b))];
    if (rule == VertexConstraint::Free) return ClosestKernel::fold(s, acc, d, b, cap);
    if (rule == VertexConstraint::Forbidden) return acc;
    const std::size_t size = s.size(acc);
    const std::size_t k0 =
        placePoint(size, W_, [&](std::size_t k) { return s.at(acc, k).flow; });
    Entry place{-1, 0, static_cast<std::int32_t>(k0), 1};
    if (k0 < size)
      place.count = s.at(acc, k0).count + (rule == VertexConstraint::Forced ? 1 : 0);
    return s.keepPrefix(acc, rule == VertexConstraint::FreeZero ? k0 : 0, place);
  }

 private:
  std::span<const VertexConstraint> constraint_;
};

/// Multiple with a per-vertex capacity: a replica at v absorbs
/// min(flow, W_v). On a homogeneous instance this is the exact Multiple DP;
/// on any instance it is the subtree relaxation of core/bounds, valid for
/// every policy.
class MultipleKernel : public FlowKernelBase {
 public:
  using FlowKernelBase::FlowKernelBase;

  /// The exact homogeneous DP: requires one positive capacity W.
  static MultipleKernel homogeneous(const ProblemInstance& instance) {
    MultipleKernel kernel(instance);
    kernel.uniform_ = instance.homogeneousCapacity();
    TREEPLACE_REQUIRE(kernel.uniform_ > 0, "capacity must be positive");
    return kernel;
  }

  /// Replicas sit on distinct internal nodes and a replica absorbing nothing
  /// is dominated, so Pareto counts never exceed the internal-node count of
  /// the covered forest.
  static std::int32_t chainCap(const TreeDecomposition& d, BagId b) {
    return static_cast<std::int32_t>(d.internalsInCone(b) - 1);
  }

  /// Place/skip: the place option (count + 1, max(0, flow - W_v)) is not a
  /// suffix of the skip entries, hence the general candidate prune.
  template <typename Store, typename Handle>
  Handle fold(Store& s, Handle acc, const TreeDecomposition& d, BagId b,
              std::int32_t chainCap) const {
    // A uniform W skips the per-vertex lookup, a cache miss per bag at scale.
    const Requests cap =
        uniform_ > 0 ? uniform_ : instance_->capacity[static_cast<std::size_t>(d.anchor(b))];
    s.beginCandidates(chainCap + 1);  // the cone adds the anchor itself
    const std::size_t size = s.size(acc);
    for (std::size_t k = 0; k < size; ++k) {
      const Entry e = s.at(acc, k);
      const auto from = static_cast<std::int32_t>(k);
      s.candidate({e.count, e.flow, from, 0});
      if (cap > 0 && e.flow > 0)
        s.candidate({e.count + 1, std::max<Requests>(0, e.flow - cap), from, 1});
    }
    return s.commitCandidates(acc);
  }

 private:
  Requests uniform_ = 0;  ///< W of a homogeneous instance, 0 when per-vertex
};

/// Closest on homogeneous nodes with QoS: the frontier gains a slack lane,
/// the minimum remaining QoS budget over the unserved clients (infinite when
/// flow is 0). A child pays its uplink comm time when it joins its parent,
/// states with negative slack are dead, and a replica at v needs the flow to
/// fit in W and the slack to cover v's computation time.
class ClosestQosKernel {
 public:
  using Entry = QosFrontierEntry;
  static constexpr double kInfiniteSlack = std::numeric_limits<double>::infinity();

  explicit ClosestQosKernel(const ProblemInstance& instance)
      : instance_(&instance), W_(instance.homogeneousCapacity()) {
    TREEPLACE_REQUIRE(W_ > 0, "capacity must be positive");
  }

  /// Slack is measured at the client itself; its uplink is charged when the
  /// entry merges into the parent.
  Entry seed(const TreeDecomposition& d, BagId b) const {
    const auto v = static_cast<std::size_t>(d.anchor(b));
    const Requests r = instance_->requests[v];
    return {0, r, r > 0 ? instance_->qos[v] : kInfiniteSlack, -1, -1};
  }

  /// Replica counts in the cone never exceed its internal-node count.
  static std::int32_t chainCap(const TreeDecomposition& d, BagId b) {
    return static_cast<std::int32_t>(d.internalsInCone(b));
  }

  template <typename Store, typename Handle>
  Handle merge(Store& s, Handle acc, Handle child, const TreeDecomposition& d,
               BagId childBag, std::int32_t cap) const {
    return s.convolve(acc, child, cap,
                      instance_->commTime[static_cast<std::size_t>(d.anchor(childBag))]);
  }

  template <typename Store, typename Handle>
  Handle fold(Store& s, Handle acc, const TreeDecomposition& d, BagId b,
              std::int32_t chainCap) const {
    const double comp = instance_->compTime[static_cast<std::size_t>(d.anchor(b))];
    s.beginCandidates(chainCap);
    const std::size_t size = s.size(acc);
    for (std::size_t k = 0; k < size; ++k) {
      const Entry e = s.at(acc, k);
      const auto from = static_cast<std::int32_t>(k);
      s.candidate({e.count, e.flow, e.slack, from, 0});
      if (e.flow <= W_ && e.slack >= comp - kSlackTolerance)
        s.candidate({e.count + 1, 0, kInfiniteSlack, from, 1});
    }
    return s.commitCandidates(acc);
  }

 private:
  const ProblemInstance* instance_;
  Requests W_;
};

/// The root pick every driver shares: the entry index of the cheapest fully
/// served state, or -1 when there is none. Flows strictly decrease along a
/// 2-D frontier; in a QoS frontier a zero-flow state carries infinite slack
/// and so dominates every later one. Either way that state is unique and
/// last.
template <typename Store, typename Handle>
std::int32_t rootEntry(const Store& s, Handle root) {
  const std::size_t size = s.size(root);
  return size > 0 && s.at(root, size - 1).flow == 0
             ? static_cast<std::int32_t>(size - 1)
             : -1;
}

}  // namespace treeplace

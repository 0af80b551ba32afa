#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/bounds.hpp"
#include "core/frontier_drivers.hpp"
#include "core/frontier_stream.hpp"
#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "tree/builder.hpp"
#include "tree/generator.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treeplace {
namespace {

struct Point {
  std::int32_t count;
  Requests flow;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Reference implementation: the pre-refactor materialise + sort + prune.
std::vector<Point> oracleConvolve(const std::vector<Point>& a,
                                  const std::vector<Point>& b,
                                  std::int32_t maxCount) {
  std::vector<Point> all;
  for (const Point& pa : a)
    for (const Point& pb : b)
      if (pa.count + pb.count <= maxCount)
        all.push_back({pa.count + pb.count, pa.flow + pb.flow});
  std::sort(all.begin(), all.end(), [](const Point& x, const Point& y) {
    if (x.count != y.count) return x.count < y.count;
    return x.flow < y.flow;
  });
  std::vector<Point> kept;
  Requests bestFlow = std::numeric_limits<Requests>::max();
  for (const Point& p : all) {
    if (!kept.empty() && kept.back().count == p.count) continue;
    if (p.flow < bestFlow) {
      kept.push_back(p);
      bestFlow = p.flow;
    }
  }
  return kept;
}

/// Random monotone frontier: counts strictly ascending, flows strictly
/// decreasing — the invariant every DP frontier maintains.
std::vector<Point> randomFrontier(Prng& rng, int maxEntries) {
  const int entries = 1 + static_cast<int>(rng.uniformInt(0, maxEntries - 1));
  std::vector<Point> frontier;
  std::int32_t count = static_cast<std::int32_t>(rng.uniformInt(0, 2));
  Requests flow = static_cast<Requests>(rng.uniformInt(50, 400));
  for (int i = 0; i < entries && flow >= 0; ++i) {
    frontier.push_back({count, flow});
    count += static_cast<std::int32_t>(rng.uniformInt(1, 3));
    flow -= static_cast<Requests>(rng.uniformInt(1, 60));
  }
  return frontier;
}

FrontierSpan toArena(FrontierArena& arena, const std::vector<Point>& points) {
  const std::uint32_t begin = arena.beginSpan();
  for (const Point& p : points) arena.push({p.count, p.flow, -1, -1});
  return arena.endSpan(begin);
}

std::vector<Point> fromArena(const FrontierArena& arena, FrontierSpan span) {
  std::vector<Point> out;
  for (const FrontierEntry& e : arena.view(span)) out.push_back({e.count, e.flow});
  return out;
}

TEST(FrontierConvolver, MatchesOracleOnRandomFrontiers) {
  Prng rng(0xf40f7153ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Point> a = randomFrontier(rng, 8);
    const std::vector<Point> b = randomFrontier(rng, 8);
    const auto maxCount =
        static_cast<std::int32_t>(rng.uniformInt(0, 24));  // sometimes truncating

    FrontierArena arena;
    arena.reset(64);
    FrontierConvolver conv(arena);
    const FrontierSpan result =
        conv.convolve(toArena(arena, a), toArena(arena, b), maxCount);

    EXPECT_EQ(fromArena(arena, result), oracleConvolve(a, b, maxCount))
        << "trial " << trial;
  }
}

TEST(FrontierConvolver, BackpointersRecoverTheMergedPair) {
  Prng rng(0x77aa12ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<Point> a = randomFrontier(rng, 6);
    const std::vector<Point> b = randomFrontier(rng, 6);
    FrontierArena arena;
    arena.reset(64);
    FrontierConvolver conv(arena);
    const FrontierSpan sa = toArena(arena, a);
    const FrontierSpan sb = toArena(arena, b);
    const FrontierSpan result = conv.convolve(sa, sb, 1 << 20);
    for (const FrontierEntry& e : arena.view(result)) {
      ASSERT_GE(e.prev, 0);
      ASSERT_GE(e.child, 0);
      const Point pa = a[static_cast<std::size_t>(e.prev)];
      const Point pb = b[static_cast<std::size_t>(e.child)];
      EXPECT_EQ(pa.count + pb.count, e.count);
      EXPECT_EQ(pa.flow + pb.flow, e.flow);
    }
  }
}

TEST(FrontierConvolver, UnitIsNeutral) {
  Prng rng(0x9e1dULL);
  const std::vector<Point> a = randomFrontier(rng, 6);
  FrontierArena arena;
  arena.reset(32);
  FrontierConvolver conv(arena);
  const FrontierSpan sa = toArena(arena, a);
  const FrontierSpan result = conv.convolve(conv.unit(), sa, 1 << 20);
  EXPECT_EQ(fromArena(arena, result), a);
}

TEST(FrontierConvolver, PruneCandidatesMatchesOracle) {
  Prng rng(0xbead5ULL);
  for (int trial = 0; trial < 100; ++trial) {
    // Arbitrary (not monotone) candidate multiset, as produced by a node's
    // place/skip options.
    std::vector<FrontierEntry> candidates;
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 14));
    std::vector<Point> points;
    for (int i = 0; i < m; ++i) {
      const Point p{static_cast<std::int32_t>(rng.uniformInt(0, 9)),
                    static_cast<Requests>(rng.uniformInt(0, 99))};
      points.push_back(p);
      candidates.push_back({p.count, p.flow, i, 0});
    }
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(2, 12));

    FrontierArena arena;
    arena.reset(32);
    FrontierConvolver conv(arena);
    const FrontierSpan result = conv.pruneCandidates(candidates, maxCount);

    // Oracle: cross with the neutral {(0,0)} frontier == plain prune.
    const std::vector<Point> expected =
        oracleConvolve(points, {{0, 0}}, maxCount);
    EXPECT_EQ(fromArena(arena, result), expected) << "trial " << trial;
  }
}

TEST(FrontierConvolver, StatsCountWork) {
  FrontierArena arena;
  arena.reset(16);
  FrontierConvolver conv(arena);
  const FrontierSpan a = toArena(arena, {{0, 10}, {1, 5}});
  const FrontierSpan b = toArena(arena, {{0, 7}, {2, 1}});
  (void)conv.convolve(a, b, 8);
  conv.noteArenaUsage();
  const FrontierStats& stats = conv.stats();
  EXPECT_EQ(stats.convolutions, 1u);
  EXPECT_EQ(stats.entriesMerged, 4u);
  EXPECT_GE(stats.peakWidth, 1u);
  EXPECT_GT(stats.arenaBytes, 0u);
}

// ---------------------------------------------------------------------------
// Solver equivalence: the refactored arena/sort-free solvers agree with a
// reference implementation of the pre-refactor algorithm on 100 random
// instances each (feasibility and optimal cost).
// ---------------------------------------------------------------------------

/// Reference Closest DP: the pre-refactor nested-vector + sort implementation
/// (kept verbatim in spirit; no backpointers since only the optimal count is
/// compared).
std::optional<std::size_t> referenceClosestCount(const ProblemInstance& instance) {
  const Requests W = instance.homogeneousCapacity();
  const Tree& tree = instance.tree;
  std::vector<std::vector<Point>> frontier(tree.vertexCount());

  const auto prune = [](std::vector<Point>& entries) {
    std::sort(entries.begin(), entries.end(), [](const Point& a, const Point& b) {
      if (a.count != b.count) return a.count < b.count;
      return a.flow < b.flow;
    });
    std::vector<Point> kept;
    Requests bestFlow = std::numeric_limits<Requests>::max();
    for (const Point& e : entries) {
      if (!kept.empty() && kept.back().count == e.count) continue;
      if (e.flow < bestFlow) {
        kept.push_back(e);
        bestFlow = e.flow;
      }
    }
    entries = std::move(kept);
  };

  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) {
      frontier[vi] = {{0, instance.requests[vi]}};
      continue;
    }
    std::vector<Point> acc{{0, 0}};
    for (const VertexId child : tree.children(v)) {
      std::vector<Point> next;
      for (const Point& p : acc)
        for (const Point& c : frontier[static_cast<std::size_t>(child)])
          next.push_back({p.count + c.count, p.flow + c.flow});
      prune(next);
      acc = std::move(next);
    }
    std::vector<Point> options;
    for (const Point& p : acc) {
      options.push_back(p);
      if (p.flow <= W) options.push_back({p.count + 1, 0});
    }
    prune(options);
    frontier[vi] = std::move(options);
  }

  std::optional<std::size_t> best;
  for (const Point& p : frontier[static_cast<std::size_t>(tree.root())])
    if (p.flow == 0 && (!best || static_cast<std::size_t>(p.count) < *best))
      best = static_cast<std::size_t>(p.count);
  return best;
}

TEST(FrontierSolverEquivalence, ClosestMatchesReferenceOn100RandomInstances) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const double lambda = 0.2 + 0.07 * static_cast<double>(seed % 10);
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 977 + 11, lambda, /*hetero=*/false, /*unit=*/true,
        /*minSize=*/6, /*maxSize=*/40);
    const auto refactored = solveClosestHomogeneous(inst);
    const auto reference = referenceClosestCount(inst);
    ASSERT_EQ(refactored.has_value(), reference.has_value()) << "seed " << seed;
    if (!refactored) continue;
    EXPECT_EQ(refactored->replicaCount(), *reference) << "seed " << seed;
    EXPECT_DOUBLE_EQ(refactored->storageCost(inst),
                     static_cast<double>(*reference))
        << "seed " << seed;  // unit costs: cost == count
    EXPECT_TRUE(testutil::placementValid(inst, *refactored, Policy::Closest))
        << "seed " << seed;
  }
}

TEST(FrontierSolverEquivalence, MultipleDPMatchesGreedyOn100RandomInstances) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const double lambda = 0.3 + 0.07 * static_cast<double>(seed % 10);
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 1409 + 3, lambda, /*hetero=*/false, /*unit=*/true,
        /*minSize=*/6, /*maxSize=*/40);
    const auto greedy = solveMultipleHomogeneous(inst);
    const auto dp = solveMultipleHomogeneousDP(inst);
    ASSERT_EQ(greedy.has_value(), dp.has_value()) << "seed " << seed;
    if (!greedy) continue;
    EXPECT_EQ(greedy->replicaCount(), dp->replicaCount()) << "seed " << seed;
    EXPECT_TRUE(testutil::placementValid(inst, *dp, Policy::Multiple))
        << "seed " << seed;
  }
}

// Drive the exact Closest recurrence through a caller-constructed FrontierDp
// (mirroring exact/closest_homogeneous.cpp) and return the replica list.
// Used to pin the merge-bag interface: a DP built from the Tree delegating
// constructor and one built from an explicit TreeDecomposition value must
// walk the same schedule, fold the same merge order and reconstruct the same
// placement, entry for entry.
std::optional<std::vector<VertexId>> driveClosestDp(const ProblemInstance& instance,
                                                    FrontierDp& dp,
                                                    FrontierArena& arena) {
  const TreeDecomposition& decomp = dp.decomposition();
  const Requests W = instance.homogeneousCapacity();
  FrontierConvolver conv(arena);
  for (const BagId v : decomp.schedule()) {
    const auto vi = static_cast<std::size_t>(decomp.anchor(v));
    if (decomp.anchorIsClient(v)) {
      dp.seedClient(v, instance.requests[vi]);
      continue;
    }
    const auto forestCap = static_cast<std::int32_t>(
        std::min(decomp.clientsInCone(v), decomp.internalsInCone(v) - 1));
    FrontierSpan acc = conv.unit();
    const auto children = decomp.mergeChildren(v);
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      acc = conv.convolve(acc, dp.frontier(children[ci]), forestCap);
      dp.setCombo(v, ci, acc);
    }
    std::size_t k0 = acc.size;
    for (std::size_t k = 0; k < acc.size; ++k)
      if (arena.at(acc, k).flow <= W) {
        k0 = k;
        break;
      }
    const std::uint32_t begin = arena.beginSpan();
    for (std::size_t k = 0; k < std::min(k0 + 1, static_cast<std::size_t>(acc.size));
         ++k) {
      const FrontierEntry e = arena.at(acc, k);
      arena.push({e.count, e.flow, static_cast<std::int32_t>(k), 0});
    }
    if (k0 < acc.size) {
      const FrontierEntry e = arena.at(acc, k0);
      if (e.flow > 0) arena.push({e.count + 1, 0, static_cast<std::int32_t>(k0), 1});
    }
    dp.setFrontier(v, arena.endSpan(begin));
  }
  const FrontierSpan rootSpan = dp.frontier(decomp.rootBag());
  if (rootSpan.empty() || arena.at(rootSpan, rootSpan.size - 1).flow != 0)
    return std::nullopt;
  std::vector<VertexId> replicas;
  dp.reconstruct(static_cast<std::int32_t>(rootSpan.size - 1),
                 [&replicas](VertexId node) { replicas.push_back(node); });
  std::sort(replicas.begin(), replicas.end());
  return replicas;
}

TEST(FrontierSolverEquivalence, BagInterfaceMatchesTreeInterfaceBitExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 733 + 5, 0.2 + 0.07 * static_cast<double>(seed % 10),
        /*hetero=*/false, /*unit=*/true, /*minSize=*/6, /*maxSize=*/40);

    FrontierArena treeArena;
    treeArena.reset(4 * inst.tree.vertexCount());
    FrontierDp viaTree(inst.tree, treeArena);
    const auto treeReplicas = driveClosestDp(inst, viaTree, treeArena);

    FrontierArena bagArena;
    bagArena.reset(4 * inst.tree.vertexCount());
    const TreeDecomposition decomp(inst.tree);
    FrontierDp viaBags(decomp, bagArena);
    const auto bagReplicas = driveClosestDp(inst, viaBags, bagArena);

    ASSERT_EQ(treeReplicas.has_value(), bagReplicas.has_value()) << "seed " << seed;
    if (!treeReplicas) continue;
    EXPECT_EQ(*treeReplicas, *bagReplicas) << "seed " << seed;

    // Both must also agree with the production solver's replica set.
    const auto solver = solveClosestHomogeneous(inst);
    ASSERT_TRUE(solver.has_value()) << "seed " << seed;
    EXPECT_EQ(solver->replicaList(), *treeReplicas) << "seed " << seed;
  }
}

TEST(FrontierSolverEquivalence, ClosestStatsRespectWidthBound) {
  const ProblemInstance inst = testutil::smallRandomInstance(
      42, 0.5, /*hetero=*/false, /*unit=*/true, /*minSize=*/30, /*maxSize=*/60);
  FrontierStats stats;
  (void)solveClosestHomogeneous(inst, &stats);
  const std::size_t clients = inst.tree.clients().size();
  const std::size_t internals = inst.tree.internals().size();
  EXPECT_LE(stats.peakWidth, std::min(clients, internals) + 1);
  // One convolution per (internal parent, child) edge: n - 1 in total.
  EXPECT_EQ(stats.convolutions, inst.tree.vertexCount() - 1);
  EXPECT_GT(stats.arenaBytes, 0u);
}

// ---------------------------------------------------------------------------
// ConstrainedClosestKernel through the memo driver: hand-built trees with a
// known conditional optimum per VertexConstraint, and random re-constraint
// walks checked against a fresh memo after every step.
// ---------------------------------------------------------------------------

/// Cheapest cost-weighted count of the memo's root frontier, or -1.
std::int32_t memoOptimum(FrontierMemo<FrontierEntry>& memo, const Tree& tree) {
  const ArenaStore<FrontierEntry> store(memo.arena);
  const FrontierSpan root = memo.frontier[static_cast<std::size_t>(tree.root())];
  const std::int32_t best = rootEntry(store, root);
  return best < 0 ? -1 : store.at(root, static_cast<std::size_t>(best)).count;
}

/// One scratch pass of ConstrainedClosestKernel under `rule`.
std::int32_t constrainedOptimum(const ProblemInstance& inst,
                                const std::vector<VertexConstraint>& rule) {
  const TreeDecomposition decomp(inst.tree);
  FrontierMemo<FrontierEntry> memo;
  memo.init(decomp, true);
  memo.refold(ConstrainedClosestKernel(inst, rule), decomp);
  return memoOptimum(memo, inst.tree);
}

TEST(ConstrainedClosestKernel, EveryConstraintOnAHandTree) {
  // W = 2.  r -- g -- u -- c1(1), c2(1)
  //              g -- c3(1)
  //         r -- c4(1)
  TreeBuilder b;
  const VertexId r = b.addRoot(2);
  const VertexId g = b.addInternal(r, 2);
  const VertexId u = b.addInternal(g, 2);
  b.addClient(u, 1);
  b.addClient(u, 1);
  b.addClient(g, 1);
  b.addClient(r, 1);
  b.useUnitCosts();
  const ProblemInstance inst = b.build();
  const auto optimum = [&](std::initializer_list<std::pair<VertexId, VertexConstraint>> set) {
    std::vector<VertexConstraint> rule(inst.tree.vertexCount(), VertexConstraint::Free);
    for (const auto& [v, c] : set) rule[static_cast<std::size_t>(v)] = c;
    return constrainedOptimum(inst, rule);
  };
  using C = VertexConstraint;
  EXPECT_EQ(optimum({}), 2);                       // u serves c1, c2; r serves c3, c4
  EXPECT_EQ(optimum({{r, C::FreeZero}}), 1);       // r's replica comes for free
  EXPECT_EQ(optimum({{u, C::ForcedZero}}), 1);     // u mandatory but free, r pays
  EXPECT_EQ(optimum({{g, C::Forced}}), 3);         // g absorbs c3 only once u holds c1, c2
  EXPECT_EQ(optimum({{g, C::Forbidden}}), 2);      // the optimum never used g
  EXPECT_EQ(optimum({{u, C::Forbidden}}), -1);     // c1..c3 would reach g or r unsplit
  EXPECT_EQ(optimum({{g, C::ForcedZero}, {u, C::Forbidden}}), -1);  // g would take 3 > W
  // All Free is exactly the unconstrained Closest optimum.
  EXPECT_EQ(optimum({}), static_cast<std::int32_t>(
                             solveClosestHomogeneous(inst)->replicaCount()));
}

TEST(ConstrainedClosestKernel, ForcedReplicaAboveAServedSubtreeStaysCounted) {
  // W = 1.  r -- v -- w -- c(1): forcing w serves c, and forcing v as well
  // puts a replica over a subtree that is already fully served. Both stay in
  // the count; r's child-forest chain then holds two replicas over a single
  // client, which ClosestKernel::chainCap (min(clients, internals)) would cut.
  TreeBuilder b;
  const VertexId r = b.addRoot(1);
  const VertexId v = b.addInternal(r, 1);
  const VertexId w = b.addInternal(v, 1);
  b.addClient(w, 1);
  b.useUnitCosts();
  const ProblemInstance inst = b.build();
  std::vector<VertexConstraint> rule(inst.tree.vertexCount(), VertexConstraint::Free);
  EXPECT_EQ(constrainedOptimum(inst, rule), 1);
  rule[static_cast<std::size_t>(w)] = VertexConstraint::Forced;
  rule[static_cast<std::size_t>(v)] = VertexConstraint::Forced;
  EXPECT_EQ(constrainedOptimum(inst, rule), 2);
  rule[static_cast<std::size_t>(r)] = VertexConstraint::Forced;
  EXPECT_EQ(constrainedOptimum(inst, rule), 3);
}

TEST(ConstrainedClosestKernel, AllFreeMatchesClosestKernelFrontiers) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(seed, 0.5, false, true, 20, 60);
    const TreeDecomposition decomp(inst.tree);
    const std::vector<VertexConstraint> rule(inst.tree.vertexCount(), VertexConstraint::Free);
    FrontierMemo<FrontierEntry> plain, constrained;
    plain.init(decomp, true);
    constrained.init(decomp, true);
    plain.refold(ClosestKernel(inst), decomp);
    constrained.refold(ConstrainedClosestKernel(inst, rule), decomp);
    for (const VertexId v : inst.tree.postorder())
      EXPECT_EQ(fromArena(constrained.arena, constrained.frontier[static_cast<std::size_t>(v)]),
                fromArena(plain.arena, plain.frontier[static_cast<std::size_t>(v)]))
          << "seed " << seed << " vertex " << v;
  }
}

TEST(ConstrainedClosestKernel, MemoReconstraintsMatchScratchPasses) {
  GeneratorConfig config;
  config.minSize = config.maxSize = 300;
  config.clientFraction = 0.7;
  config.maxRequests = 2;
  config.lambda = 0.3;
  config.unitCosts = true;
  const ProblemInstance inst = generateInstance(config, 5150, 0);
  const Tree& tree = inst.tree;
  const TreeDecomposition decomp(tree);
  std::vector<VertexConstraint> rule(tree.vertexCount(), VertexConstraint::Free);
  FrontierMemo<FrontierEntry> memo;
  memo.init(decomp, true);
  EXPECT_EQ(memo.refold(ConstrainedClosestKernel(inst, rule), decomp), tree.vertexCount());

  Prng rng(0xc0ffeeULL);
  const auto& internals = tree.internals();
  std::size_t compactions = 0;
  for (int step = 0; step < 600; ++step) {
    // Re-constrain one or two internals, then re-fold: exactly the union of
    // their root paths is recomputed.
    std::vector<char> onPath(tree.vertexCount(), 0);
    std::size_t pathUnion = 0;
    for (int k = 0; k < 1 + step % 2; ++k) {
      const VertexId v = internals[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(internals.size()) - 1))];
      rule[static_cast<std::size_t>(v)] = static_cast<VertexConstraint>(rng.uniformInt(0, 4));
      memo.stamp(tree, {&v, 1});
      for (VertexId u = v; u != kNoVertex; u = tree.parent(u))
        if (!onPath[static_cast<std::size_t>(u)]) {
          onPath[static_cast<std::size_t>(u)] = 1;
          ++pathUnion;
        }
    }
    if (memo.compactIfBloated()) ++compactions;
    ASSERT_EQ(memo.refold(ConstrainedClosestKernel(inst, rule), decomp), pathUnion)
        << "step " << step;
    ASSERT_EQ(memoOptimum(memo, tree), constrainedOptimum(inst, rule)) << "step " << step;
  }
  EXPECT_GT(compactions, 0u);  // copy-compaction ran under checked answers
}

// ---------------------------------------------------------------------------
// Pinned DP work: the amount of merging every frontier driver performs on two
// fixed s=2000 instances (one with 30% QoS clients, whose streaming QoS run
// hits the width cap). Refactors of the recurrences, stores or drivers must
// leave these counters exactly as they are — answers alone do not show a
// changed merge order, cap or fold.
// ---------------------------------------------------------------------------

struct WorkTriple {
  std::size_t merged;  ///< entriesMerged / pairsMerged
  std::size_t convolutions;
  std::size_t peakWidth;

  friend bool operator==(const WorkTriple&, const WorkTriple&) = default;
};

void PrintTo(const WorkTriple& w, std::ostream* os) {
  *os << "{" << w.merged << ", " << w.convolutions << ", " << w.peakWidth << "}";
}

WorkTriple workOf(const FrontierStats& s) {
  return {s.entriesMerged, s.convolutions, s.peakWidth};
}

WorkTriple workOf(const FrontierStreamStats& s) {
  return {s.pairsMerged, s.convolutions, s.peakWidth};
}

struct PinnedWorkCase {
  std::uint64_t seed;
  double qosFraction;
  WorkTriple closest, multipleDp, qos;                    ///< batch DPs
  WorkTriple streamClosest, streamMultiple, streamQos;    ///< streaming twins
  WorkTriple relaxation;                                  ///< FrontierSubtreeRelaxation
};

TEST(FrontierWork, DriversPerformThePinnedAmountOfWork) {
  const PinnedWorkCase cases[] = {
      {2024, 0.0,
       {26919, 1999, 210}, {22271, 1999, 164}, {30004, 2599, 210},
       {29823, 1999, 210}, {24552, 2599, 164}, {32908, 2599, 210},
       {24552, 1999, 164}},
      {77, 0.3,
       {25925, 1999, 207}, {21683, 1999, 165}, {161892, 2599, 620},
       {28010, 1999, 207}, {23327, 2599, 165}, {131136, 2599, 591},
       {23327, 1999, 165}},
  };
  for (const PinnedWorkCase& c : cases) {
    GeneratorConfig config;
    config.minSize = config.maxSize = 2000;
    config.clientFraction = 0.7;
    config.leafClientBias = 1.0;
    config.maxRequests = 3;
    config.lambda = 0.25;
    config.unitCosts = true;
    config.qosFraction = c.qosFraction;
    config.qosMinHops = 6;
    config.qosMaxHops = 12;
    const ProblemInstance inst = generateInstance(config, c.seed, 0);
    SCOPED_TRACE("seed " + std::to_string(c.seed));

    FrontierStats closest, multipleDp, qos;
    ASSERT_TRUE(solveClosestHomogeneous(inst, &closest).has_value());
    ASSERT_TRUE(solveMultipleHomogeneousDP(inst, &multipleDp).has_value());
    ASSERT_TRUE(solveClosestHomogeneousQos(inst, &qos).has_value());
    EXPECT_EQ(workOf(closest), c.closest);
    EXPECT_EQ(workOf(multipleDp), c.multipleDp);
    EXPECT_EQ(workOf(qos), c.qos);

    EXPECT_EQ(workOf(countClosestHomogeneousStreaming(inst).stats), c.streamClosest);
    EXPECT_EQ(workOf(countMultipleHomogeneousStreaming(inst).stats), c.streamMultiple);
    EXPECT_EQ(workOf(countClosestQosStreaming(inst).stats), c.streamQos);

    EXPECT_EQ(workOf(FrontierSubtreeRelaxation(inst).stats()), c.relaxation);
  }
}

}  // namespace
}  // namespace treeplace

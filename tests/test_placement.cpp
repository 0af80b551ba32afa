#include "core/placement.hpp"

#include <gtest/gtest.h>

#include "exact/multiple_homogeneous.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace treeplace {
namespace {

TEST(Placement, StartsEmpty) {
  const Placement p(5);
  EXPECT_EQ(p.replicaCount(), 0u);
  EXPECT_TRUE(p.replicaList().empty());
  EXPECT_FALSE(p.hasReplica(2));
  EXPECT_EQ(p.serverLoad(2), 0);
}

TEST(Placement, AddReplicaIdempotent) {
  Placement p(5);
  p.addReplica(1);
  p.addReplica(1);
  EXPECT_EQ(p.replicaCount(), 1u);
  EXPECT_TRUE(p.hasReplica(1));
}

TEST(Placement, ReplicaListSorted) {
  Placement p(5);
  p.addReplica(4);
  p.addReplica(0);
  p.addReplica(2);
  const auto list = p.replicaList();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 0);
  EXPECT_EQ(list[1], 2);
  EXPECT_EQ(list[2], 4);
}

TEST(Placement, AssignAccumulates) {
  Placement p(5);
  p.assign(3, 1, 4);
  p.assign(3, 1, 2);
  p.assign(3, 0, 1);
  ASSERT_EQ(p.shares(3).size(), 2u);
  EXPECT_EQ(p.assignedOf(3), 7);
  EXPECT_EQ(p.serverLoad(1), 6);
  EXPECT_EQ(p.serverLoad(0), 1);
}

TEST(Placement, RejectsBadAssignments) {
  Placement p(5);
  EXPECT_THROW(p.assign(3, 1, 0), PreconditionError);
  EXPECT_THROW(p.assign(9, 1, 1), PreconditionError);
  EXPECT_THROW(p.assign(3, -1, 1), PreconditionError);
  EXPECT_THROW(p.addReplica(5), PreconditionError);
}

TEST(Placement, StorageCost) {
  const ProblemInstance inst = testutil::chainInstance(10, 6, {4, 2}, /*unitCosts=*/false);
  Placement p(inst.tree.vertexCount());
  p.addReplica(0);
  p.addReplica(1);
  EXPECT_DOUBLE_EQ(p.storageCost(inst), 16.0);
}

TEST(Placement, StorageCostSizeMismatchThrows) {
  const ProblemInstance inst = testutil::chainInstance(10, 6, {4, 2});
  const Placement p(3);
  EXPECT_THROW(p.storageCost(inst), PreconditionError);
}

TEST(Placement, Equality) {
  Placement a(4), b(4);
  a.addReplica(1);
  b.addReplica(1);
  a.assign(2, 1, 3);
  b.assign(2, 1, 3);
  EXPECT_EQ(a, b);
  b.assign(3, 1, 1);
  EXPECT_NE(a, b);
}

TEST(Placement, EqualityIsShareOrderInsensitive) {
  // Per-client share order is documented "unspecified": two placements built
  // in opposite orders are the same logical assignment.
  Placement a(4), b(4);
  a.addReplica(0);
  a.addReplica(1);
  b.addReplica(0);
  b.addReplica(1);
  a.assign(3, 0, 2);
  a.assign(3, 1, 5);
  b.assign(3, 1, 5);
  b.assign(3, 0, 2);
  EXPECT_EQ(a, b);
  // Same servers, different split: not equal.
  Placement c(4);
  c.addReplica(0);
  c.addReplica(1);
  c.assign(3, 1, 2);
  c.assign(3, 0, 5);
  EXPECT_NE(a, c);
}

TEST(Placement, AssignRunRecordsAWholeRun) {
  Placement p(6);
  const ServedShare run[] = {{1, 4}, {0, 2}};
  p.assignRun(3, run);
  ASSERT_EQ(p.shares(3).size(), 2u);
  EXPECT_EQ(p.assignedOf(3), 6);
  EXPECT_EQ(p.serverLoad(1), 4);
  EXPECT_EQ(p.serverLoad(0), 2);
  // Accumulation still works on top of a bulk run.
  p.assign(3, 1, 1);
  EXPECT_EQ(p.serverLoad(1), 5);
  ASSERT_EQ(p.shares(3).size(), 2u);
}

TEST(Placement, AssignRunRejectsBadRuns) {
  Placement p(6);
  const ServedShare dupes[] = {{1, 4}, {1, 2}};
  EXPECT_THROW(p.assignRun(3, dupes), PreconditionError);
  Placement q(6);
  const ServedShare zero[] = {{1, 0}};
  EXPECT_THROW(q.assignRun(3, zero), PreconditionError);
  Placement r(6);
  const ServedShare first[] = {{1, 4}};
  r.assignRun(3, first);
  EXPECT_THROW(r.assignRun(3, first), PreconditionError);  // run already set
}

TEST(Placement, InterleavedAssignsKeepRunsConsistent) {
  // Interleaving clients forces run relocations inside the shared pool; the
  // logical views must be unaffected.
  Placement p(8);
  for (int round = 1; round <= 3; ++round) {
    for (VertexId client = 4; client < 8; ++client)
      p.assign(client, client % 4, round);
  }
  for (VertexId client = 4; client < 8; ++client) {
    ASSERT_EQ(p.shares(client).size(), 1u);
    EXPECT_EQ(p.shares(client).front().server, client % 4);
    EXPECT_EQ(p.assignedOf(client), 6);
  }
  // Distinct servers per client now: runs grow past their capacity.
  for (VertexId client = 4; client < 8; ++client)
    for (VertexId server = 0; server < 4; ++server)
      if (server != client % 4) p.assign(client, server, 1);
  for (VertexId client = 4; client < 8; ++client) {
    EXPECT_EQ(p.shares(client).size(), 4u);
    EXPECT_EQ(p.assignedOf(client), 9);
  }
  for (VertexId server = 0; server < 4; ++server)
    EXPECT_EQ(p.serverLoad(server), 6 + 3);
}

TEST(Placement, CompactRemovesHolesAndRestoresSequentialScans) {
  // Interleaved (server-order-style) construction relocates runs and leaves
  // holes behind; compact() must pack the pool back into client order.
  Placement p(8);
  for (int round = 1; round <= 3; ++round)
    for (VertexId client = 4; client < 8; ++client)
      p.assign(client, (client + round) % 4, 1);
  Placement expected(8);
  for (int round = 1; round <= 3; ++round)
    for (VertexId client = 4; client < 8; ++client)
      expected.assign(client, (client + round) % 4, 1);
  ASSERT_GT(p.stats().holeSlots, 0u);

  p.compact();
  EXPECT_EQ(p.stats().holeSlots, 0u);
  EXPECT_EQ(p, expected);  // logical content untouched
  // Sequential client-order scans: each served client's run starts exactly
  // where the previous one ended.
  const ServedShare* cursor = nullptr;
  for (VertexId client = 0; client < 8; ++client) {
    const auto run = p.shares(client);
    if (run.empty()) continue;
    if (cursor != nullptr) {
      EXPECT_EQ(run.data(), cursor);
    }
    cursor = run.data() + run.size();
  }
  // Idempotent and allocation-free the second time.
  const std::size_t allocsAfterFirst = p.stats().heapAllocs;
  p.compact();
  EXPECT_EQ(p.stats().heapAllocs, allocsAfterFirst);
}

TEST(Placement, CompactOnCleanPlacementIsNoOp) {
  Placement p(6);
  p.assign(3, 1, 2);
  p.assign(4, 0, 5);
  const std::size_t allocs = p.stats().heapAllocs;
  ASSERT_EQ(p.stats().holeSlots, 0u);
  p.compact();
  EXPECT_EQ(p.stats().heapAllocs, allocs);
  EXPECT_EQ(p.shares(3).size(), 1u);
  EXPECT_EQ(p.shares(4).size(), 1u);
}

TEST(Placement, MultiplePassThreeLeavesNoHoles) {
  // The Multiple solver's pass 3 builds server-order and compacts on exit:
  // every solve must come back hole-free with sequential client runs.
  const ProblemInstance inst = testutil::smallRandomInstance(
      4242, 0.6, /*hetero=*/false, /*unit=*/true, 40, 60);
  const auto placement = solveMultipleHomogeneous(inst);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->stats().holeSlots, 0u);
  const ServedShare* cursor = nullptr;
  for (const VertexId client : inst.tree.clients()) {
    const auto run = placement->shares(client);
    if (run.empty()) continue;
    if (cursor != nullptr) {
      EXPECT_EQ(run.data(), cursor);
    }
    cursor = run.data() + run.size();
  }
}

TEST(Placement, StatsTrackSharesAndAllocations) {
  Placement p(10);
  p.reserveShares(8);
  for (VertexId client = 5; client < 10; ++client)
    p.assign(client, 0, 1);
  const PlacementStats stats = p.stats();
  EXPECT_EQ(stats.shareCount, 5u);
  EXPECT_EQ(stats.assignCalls, 5u);
  EXPECT_GE(stats.poolBytes, 8 * sizeof(ServedShare));
  // 3 fixed buffers + 1 pool reserve.
  EXPECT_EQ(stats.heapAllocs, 4u);
}

TEST(PlacementArena, RecyclingAvoidsAllocations) {
  PlacementArena arena;
  // Warm the arena with one build/recycle cycle.
  {
    Placement p = arena.acquire(16);
    p.reserveShares(8);
    for (VertexId client = 8; client < 16; ++client) p.assign(client, 0, 2);
    arena.recycle(std::move(p));
  }
  Placement p = arena.acquire(16);
  for (VertexId client = 8; client < 16; ++client) p.assign(client, 0, 2);
  EXPECT_EQ(p.stats().heapAllocs, 0u);  // everything came from recycled buffers
  EXPECT_EQ(p.serverLoad(0), 16);
  EXPECT_EQ(p.shares(9).size(), 1u);
}

TEST(PlacementArena, AcquiredPlacementsStartEmpty) {
  PlacementArena arena;
  {
    Placement p = arena.acquire(5);
    p.addReplica(1);
    p.assign(3, 1, 7);
    arena.recycle(std::move(p));
  }
  const Placement p = arena.acquire(5);
  EXPECT_EQ(p.replicaCount(), 0u);
  EXPECT_EQ(p.serverLoad(1), 0);
  EXPECT_TRUE(p.shares(3).empty());
  EXPECT_EQ(p, Placement(5));
}

}  // namespace
}  // namespace treeplace

#include "core/placement.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace treeplace {

Placement::Placement(std::size_t vertexCount)
    : runs_(vertexCount), serverLoad_(vertexCount, 0), isReplica_(vertexCount, 0) {
  heapAllocs_ = vertexCount > 0 ? 3 : 0;  // runs_ + serverLoad_ + isReplica_
}

Placement::Placement(std::size_t vertexCount, PlacementArena& arena) {
  if (!arena.free_.empty()) {
    PlacementArena::Buffers& buffers = arena.free_.back();
    pool_ = std::move(buffers.pool);
    runs_ = std::move(buffers.runs);
    serverLoad_ = std::move(buffers.serverLoad);
    isReplica_ = std::move(buffers.isReplica);
    arena.free_.pop_back();
  }
  pool_.clear();
  const auto reuse = [this, vertexCount](auto& buffer, auto value) {
    if (buffer.capacity() < vertexCount) ++heapAllocs_;
    buffer.assign(vertexCount, value);
  };
  reuse(runs_, ShareRun{});
  reuse(serverLoad_, Requests{0});
  reuse(isReplica_, char{0});
}

void Placement::addReplica(VertexId node) {
  TREEPLACE_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < runs_.size(),
                    "replica id out of range");
  auto& flag = isReplica_[static_cast<std::size_t>(node)];
  if (!flag) {
    flag = 1;
    ++replicaCount_;
  }
}

void Placement::removeReplica(VertexId node) {
  TREEPLACE_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < runs_.size(),
                    "replica id out of range");
  auto& flag = isReplica_[static_cast<std::size_t>(node)];
  if (flag) {
    flag = 0;
    --replicaCount_;
  }
}

bool Placement::hasReplica(VertexId node) const {
  TREEPLACE_REQUIRE(node >= 0 && static_cast<std::size_t>(node) < runs_.size(),
                    "replica id out of range");
  return isReplica_[static_cast<std::size_t>(node)] != 0;
}

std::vector<VertexId> Placement::replicaList() const {
  std::vector<VertexId> out;
  out.reserve(replicaCount_);
  for (std::size_t i = 0; i < isReplica_.size(); ++i)
    if (isReplica_[i]) out.push_back(static_cast<VertexId>(i));
  return out;
}

void Placement::reserveShares(std::size_t expectedShares) {
  if (pool_.capacity() < expectedShares) {
    ++heapAllocs_;
    pool_.reserve(expectedShares);
  }
}

void Placement::growRun(ShareRun& run, const ServedShare& share) {
  if (run.size < run.capacity) {
    pool_[run.begin + run.size] = share;
    ++run.size;
    return;
  }
  const auto oldCapacity = pool_.capacity();
  if (static_cast<std::size_t>(run.begin) + run.capacity == pool_.size()) {
    // The run sits at the pool top: extend it in place.
    pool_.push_back(share);
    ++run.size;
    ++run.capacity;
  } else {
    // Relocate the run to the pool top with geometric headroom; the old slots
    // become an abandoned hole (arena semantics, bounded by the growth
    // factor). A brand-new run starts tight: most clients keep one share.
    const std::uint32_t newCapacity = std::max<std::uint32_t>(1, 2 * run.capacity);
    const auto newBegin = static_cast<std::uint32_t>(pool_.size());
    for (std::uint32_t k = 0; k < run.size; ++k)
      pool_.push_back(pool_[run.begin + k]);
    pool_.push_back(share);
    pool_.resize(static_cast<std::size_t>(newBegin) + newCapacity);
    run = {newBegin, static_cast<std::uint32_t>(run.size + 1), newCapacity};
  }
  if (pool_.capacity() != oldCapacity) ++heapAllocs_;
}

void Placement::assign(VertexId client, VertexId server, Requests amount) {
  TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                    "client id out of range");
  TREEPLACE_REQUIRE(server >= 0 && static_cast<std::size_t>(server) < runs_.size(),
                    "server id out of range");
  TREEPLACE_REQUIRE(amount > 0, "assignment amount must be positive");
  ++assignCalls_;
  ShareRun& run = runs_[static_cast<std::size_t>(client)];
  ServedShare* data = runData(run);
  for (std::uint32_t k = 0; k < run.size; ++k) {
    if (data[k].server == server) {
      data[k].amount += amount;
      serverLoad_[static_cast<std::size_t>(server)] += amount;
      return;
    }
  }
  growRun(run, {server, amount});
  ++liveShares_;
  serverLoad_[static_cast<std::size_t>(server)] += amount;
}

Requests Placement::unassign(VertexId client, VertexId server) {
  TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                    "client id out of range");
  TREEPLACE_REQUIRE(server >= 0 && static_cast<std::size_t>(server) < runs_.size(),
                    "server id out of range");
  ShareRun& run = runs_[static_cast<std::size_t>(client)];
  ServedShare* data = runData(run);
  for (std::uint32_t k = 0; k < run.size; ++k) {
    if (data[k].server != server) continue;
    const Requests amount = data[k].amount;
    data[k] = data[run.size - 1];
    --run.size;
    --liveShares_;
    serverLoad_[static_cast<std::size_t>(server)] -= amount;
    return amount;
  }
  return 0;
}

void Placement::clearClient(VertexId client) {
  TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                    "client id out of range");
  ShareRun& run = runs_[static_cast<std::size_t>(client)];
  const ServedShare* data = runData(run);
  for (std::uint32_t k = 0; k < run.size; ++k)
    serverLoad_[static_cast<std::size_t>(data[k].server)] -= data[k].amount;
  liveShares_ -= run.size;
  run.size = 0;
}

void Placement::assignRun(VertexId client, std::span<const ServedShare> run) {
  TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                    "client id out of range");
  ShareRun& slot = runs_[static_cast<std::size_t>(client)];
  TREEPLACE_REQUIRE(slot.size == 0, "assignRun requires a client without shares");
  if (run.empty()) return;
  const auto oldCapacity = pool_.capacity();
  const auto begin = static_cast<std::uint32_t>(pool_.size());
  for (std::size_t k = 0; k < run.size(); ++k) {
    const ServedShare& share = run[k];
    TREEPLACE_REQUIRE(share.server >= 0 &&
                          static_cast<std::size_t>(share.server) < runs_.size(),
                      "server id out of range");
    TREEPLACE_REQUIRE(share.amount > 0, "assignment amount must be positive");
    for (std::size_t j = 0; j < k; ++j)
      TREEPLACE_REQUIRE(run[j].server != share.server,
                        "assignRun requires distinct servers");
    pool_.push_back(share);
    serverLoad_[static_cast<std::size_t>(share.server)] += share.amount;
  }
  slot = {begin, static_cast<std::uint32_t>(run.size()),
          static_cast<std::uint32_t>(run.size())};
  liveShares_ += run.size();
  assignCalls_ += run.size();
  if (pool_.capacity() != oldCapacity) ++heapAllocs_;
}

void Placement::compact() {
  compact(std::span<const VertexId>{});  // empty: ascending client-id order
}

void Placement::compact(std::span<const VertexId> clientOrder) {
  const auto runOf = [this](VertexId client) -> ShareRun& {
    TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                      "compact order entry out of range");
    return runs_[static_cast<std::size_t>(client)];
  };

  if (pool_.size() == liveShares_) {
    // No holes and no spare capacity; only the order can be off.
    std::uint32_t next = 0;
    bool ordered = true;
    const auto check = [&](const ShareRun& run) {
      if (run.size == 0) return;
      if (run.begin != next) ordered = false;
      next += run.size;
    };
    if (clientOrder.empty()) {
      for (const ShareRun& run : runs_) check(run);
    } else {
      for (const VertexId c : clientOrder) check(runOf(c));
      ordered = ordered && next == liveShares_;  // order covers every run
    }
    if (ordered) return;
  }

  std::vector<ServedShare> packed;
  if (liveShares_ > 0) {
    packed.reserve(liveShares_);
    ++heapAllocs_;
  }
  const auto relocate = [&](ShareRun& run) {
    const auto begin = static_cast<std::uint32_t>(packed.size());
    for (std::uint32_t k = 0; k < run.size; ++k)
      packed.push_back(pool_[run.begin + k]);
    run = {begin, run.size, run.size};
  };
  if (clientOrder.empty()) {
    for (ShareRun& run : runs_) relocate(run);
  } else {
    // Transient scratch, not part of the placement's buffers — a repeated
    // client would re-copy from packed-space garbage and strand the omitted
    // run's offsets past the shrunken pool.
    std::vector<char> seen(runs_.size(), 0);
    for (const VertexId c : clientOrder) {
      ShareRun& run = runOf(c);
      auto& mark = seen[static_cast<std::size_t>(c)];
      TREEPLACE_REQUIRE(!mark, "compact order must not repeat clients");
      mark = 1;
      relocate(run);
    }
    TREEPLACE_REQUIRE(packed.size() == liveShares_,
                      "compact order must cover every served client");
  }
  pool_ = std::move(packed);
}

std::span<const ServedShare> Placement::shares(VertexId client) const {
  TREEPLACE_REQUIRE(client >= 0 && static_cast<std::size_t>(client) < runs_.size(),
                    "client id out of range");
  const ShareRun& run = runs_[static_cast<std::size_t>(client)];
  return {runData(run), run.size};
}

Requests Placement::serverLoad(VertexId server) const {
  TREEPLACE_REQUIRE(server >= 0 && static_cast<std::size_t>(server) < runs_.size(),
                    "server id out of range");
  return serverLoad_[static_cast<std::size_t>(server)];
}

Requests Placement::assignedOf(VertexId client) const {
  Requests total = 0;
  for (const auto& share : shares(client)) total += share.amount;
  return total;
}

double Placement::storageCost(const ProblemInstance& instance) const {
  TREEPLACE_REQUIRE(instance.tree.vertexCount() == runs_.size(),
                    "placement/instance size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < isReplica_.size(); ++i)
    if (isReplica_[i]) total += instance.storageCost[i];
  return total;
}

PlacementStats Placement::stats() const {
  PlacementStats stats;
  stats.poolBytes = pool_.capacity() * sizeof(ServedShare);
  stats.shareCount = liveShares_;
  stats.assignCalls = assignCalls_;
  stats.heapAllocs = heapAllocs_;
  stats.holeSlots = pool_.size() - liveShares_;
  return stats;
}

bool operator==(const Placement& a, const Placement& b) {
  if (a.runs_.size() != b.runs_.size() || a.replicaCount_ != b.replicaCount_ ||
      a.liveShares_ != b.liveShares_ || a.isReplica_ != b.isReplica_ ||
      a.serverLoad_ != b.serverLoad_)
    return false;
  for (std::size_t c = 0; c < a.runs_.size(); ++c) {
    const auto sa = a.shares(static_cast<VertexId>(c));
    const auto sb = b.shares(static_cast<VertexId>(c));
    if (sa.size() != sb.size()) return false;
    // Servers are unique within a run and order is unspecified: compare as
    // sets. Runs are tiny (usually 1-3 shares), so the quadratic scan wins
    // over sorting copies.
    for (const ServedShare& share : sa) {
      bool found = false;
      for (const ServedShare& other : sb) {
        if (other.server == share.server) {
          if (other.amount != share.amount) return false;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

Placement PlacementArena::acquire(std::size_t vertexCount) {
  return Placement(vertexCount, *this);
}

void PlacementArena::recycle(Placement&& placement) {
  free_.push_back({std::move(placement.pool_), std::move(placement.runs_),
                   std::move(placement.serverLoad_),
                   std::move(placement.isReplica_)});
}

VertexId firstReplicaAbove(const Tree& tree, const Placement& placement,
                           VertexId v) {
  for (VertexId hop = tree.parent(v); hop != kNoVertex; hop = tree.parent(hop))
    if (placement.hasReplica(hop)) return hop;
  return kNoVertex;
}

void assignClientsToClosest(const ProblemInstance& instance, Placement& placement) {
  const Tree& tree = instance.tree;
  placement.reserveShares(tree.clients().size());
  for (const VertexId client : tree.clients()) {
    const auto ci = static_cast<std::size_t>(client);
    if (instance.requests[ci] == 0) continue;
    const VertexId server = firstReplicaAbove(tree, placement, client);
    TREEPLACE_REQUIRE(server != kNoVertex,
                      "closest assignment: client has no replica on its root path");
    const ServedShare share{server, instance.requests[ci]};
    placement.assignRun(client, {&share, 1});
  }
}

}  // namespace treeplace

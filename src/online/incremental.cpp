#include "online/incremental.hpp"

#include <algorithm>
#include <utility>

#include "exact/multiple_homogeneous.hpp"
#include "support/require.hpp"

namespace treeplace {

IncrementalSolver::IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy)
    : instance_(&instance), policy_(policy) {
  instance.validate();
  stats_.trackedVertices = instance.tree.vertexCount();
  const TreeDecomposition decomp(instance.tree);
  withMemo([&](auto& memo) { memo.init(decomp, true); });
  rebuildPositions();
}

void IncrementalSolver::rebuildPositions() {
  const Tree& tree = instance_->tree;
  const std::size_t n = tree.vertexCount();
  postPos_.assign(n, 0);
  const auto& post = tree.postorder();
  for (std::size_t i = 0; i < post.size(); ++i)
    postPos_[static_cast<std::size_t>(post[i])] = static_cast<std::int32_t>(i);
  clientIndex_.assign(n, -1);
  const auto& clients = tree.clients();
  for (std::size_t i = 0; i < clients.size(); ++i)
    clientIndex_[static_cast<std::size_t>(clients[i])] =
        static_cast<std::int32_t>(i);
  pathMark_.resize(n, 0);
  clientMark_.resize(n, 0);
  remainingScratch_.resize(n, 0);
  chosenEntry_.resize(n, -1);
  chosenEpoch_.resize(n, 0);
  replicaBit_.resize(n, 0);
  if (policy_ == OnlinePolicy::Multiple)
    serverTakes_.resize(n);
  else
    serverClients_.resize(n);
}

void IncrementalSolver::noteDelta(const DeltaApplication& app) {
  if (app.structural) {
    const TreeDecomposition decomp(instance_->tree);
    withMemo([&](auto& memo) { memo.grow(decomp); });
    stats_.trackedVertices = instance_->tree.vertexCount();
    rebuildPositions();
    // The incumbent assignment is sized for the old vertex range; the next
    // feasible resolve rebuilds it wholesale.
    assignRebuildNeeded_ = true;
  }
  withMemo([&](auto& memo) {
    stats_.invalidations += memo.stamp(instance_->tree, app.touched, app.global);
  });
  if (app.global) {
    ++stats_.globalInvalidations;
    // W is every Multiple server's absorption budget: no assignment survives
    // a homogeneous capacity shift, so repair cannot patch it. Closest
    // assignments never read W — they follow the (possibly flipped) replica
    // set, which the ordinary repair path handles.
    if (policy_ == OnlinePolicy::Multiple) assignRebuildNeeded_ = true;
  }
  switch (app.kind) {
    case DeltaKind::RateChange:
    case DeltaKind::ClientLeave:
    case DeltaKind::SubtreeDetach:
      pendingChangedClients_.insert(pendingChangedClients_.end(),
                                    app.touched.begin(), app.touched.end());
      break;
    default:
      break;  // structural kinds force a rebuild; capacity changes touch no rate
  }
}

DeltaApplication IncrementalSolver::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  noteDelta(app);
  return app;
}

DeltaApplication IncrementalSolver::applyWithoutInvalidation(
    const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  if (app.structural) noteDelta(app);
  return app;
}

std::optional<Placement> IncrementalSolver::resolve(BudgetGuard* guard) {
  try {
    return resolveOnce(guard);
  } catch (const SolveInterrupted&) {
    // Budget trips are clean by construction (the checkpoint precedes the
    // vertex stamp): caches and dirty set are exact, so the verdict goes
    // straight to the caller and a later resolve continues where this one
    // stopped.
    throw;
  } catch (...) {
    // Anything else — an injected bad_alloc inside arena growth, a repair
    // invariant trip — may have left a stamped-but-garbage frontier or a
    // half-repaired incumbent behind. Self-check is by reconstruction: drop
    // everything, re-solve the same instance from scratch once.
    ++stats_.scratchFallbacks;
    invalidateCaches();
    try {
      return resolveOnce(guard);
    } catch (...) {
      invalidateCaches();  // leave a coherent (empty) state for the next call
      throw;
    }
  }
}

void IncrementalSolver::invalidateCaches() {
  const TreeDecomposition decomp(instance_->tree);
  withMemo([&](auto& memo) { memo.init(decomp, true); });
  chosenEntry_.clear();
  chosenEpoch_.clear();
  replicaBit_.clear();
  rebuildPositions();
  pendingChangedClients_.clear();
  flips_.clear();
  placement_.reset();
  assignRebuildNeeded_ = true;
}

// Mirror of BasicFrontierDp::reconstruct over the memo's span tables, with
// subtree pruning: a vertex reached with the same entry index as the last
// walk and no stamp anywhere in its subtree since (chosenEpoch >= dirtySince
// — the dirty set is closed under parents, so the single stamp check covers
// the whole subtree) still has exact replicaBit_ state below it, and the walk
// skips the entire subtree. A localized mutation therefore costs O(changed
// region), not O(s), per reconstruction. Replica bits that flip are
// collected into flips_ — they drive the assignment repair.
template <typename Entry>
void IncrementalSolver::reconstruct(const FrontierMemo<Entry>& memo,
                                    std::int32_t rootEntryIndex) {
  const TreeDecomposition decomp(instance_->tree);
  const std::uint64_t epoch = memo.epoch();
  struct Todo {
    BagId node;
    std::int32_t entryIndex;
  };
  std::vector<Todo> stack{{decomp.rootBag(), rootEntryIndex}};
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    const auto ni = static_cast<std::size_t>(todo.node);
    if (chosenEntry_[ni] == todo.entryIndex && chosenEpoch_[ni] >= memo.dirtySince(todo.node)) {
      chosenEpoch_[ni] = epoch;
      continue;  // same choice, untouched subtree: bits below are exact
    }
    chosenEntry_[ni] = todo.entryIndex;
    chosenEpoch_[ni] = epoch;
    if (decomp.anchorIsClient(todo.node)) continue;
    const Entry& entry =
        memo.arena.at(memo.frontier[ni], static_cast<std::size_t>(todo.entryIndex));
    const char newBit = entry.child == 1 ? 1 : 0;
    if (replicaBit_[ni] != newBit) {
      replicaBit_[ni] = newBit;
      flips_.push_back(decomp.anchor(todo.node));
    }
    const std::span<const BagId> children = decomp.mergeChildren(todo.node);
    const auto base = static_cast<std::size_t>(memo.comboOffset[ni]);
    std::int32_t combIdx = entry.prev;
    for (std::size_t ci = children.size(); ci-- > 0;) {
      const Entry& comb =
          memo.arena.at(memo.comboSpans[base + ci], static_cast<std::size_t>(combIdx));
      stack.push_back({children[ci], comb.child});
      combIdx = comb.prev;
    }
  }
}

std::optional<Placement> IncrementalSolver::resolveOnce(BudgetGuard* guard) {
  if (policy_ == OnlinePolicy::ClosestQos)
    return resolveWith(ClosestQosKernel(*instance_), memoQos_, guard);
  if (policy_ == OnlinePolicy::Multiple)
    return resolveWith(MultipleKernel::homogeneous(*instance_), memo2d_, guard);
  return resolveWith(ClosestKernel(*instance_), memo2d_, guard);
}

// One deliberate divergence from the batch driver: a QoS fold that kills
// every state does not end the pass. The empty span is carried forward — it
// empties every ancestor accumulator, so the root frontier ends without a
// zero-flow entry and the verdict (infeasible) is identical, but the memo
// stays coherent for the next mutation.
template <typename Kernel>
std::optional<Placement> IncrementalSolver::resolveWith(
    const Kernel& kernel, FrontierMemo<typename Kernel::Entry>& memo, BudgetGuard* guard) {
  const std::size_t n = instance_->tree.vertexCount();
  if (memo.compactIfBloated()) ++stats_.compactions;
  const TreeDecomposition decomp(instance_->tree);
  const std::size_t misses = memo.refold(kernel, decomp, guard);
  stats_.misses += misses;
  stats_.hits += n - misses;
  stats_.arenaEntries = memo.arena.entryCount();
  stats_.arenaBytes = memo.arena.bytes();

  const ArenaStore<typename Kernel::Entry> store(memo.arena);
  const std::int32_t root =
      rootEntry(store, memo.frontier[static_cast<std::size_t>(decomp.rootBag())]);
  if (root < 0) return std::nullopt;
  flips_.clear();
  reconstruct(memo, root);
  if (policy_ == OnlinePolicy::Multiple)
    refreshMultipleAssignment(replicaBit_);
  else
    refreshClosestAssignment(replicaBit_);
  return *placement_;
}

void IncrementalSolver::refreshClosestAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const std::size_t n = instance.tree.vertexCount();
  if (assignRebuildNeeded_ || !placement_.has_value()) {
    Placement fresh(n);
    for (std::size_t vi = 0; vi < n; ++vi)
      if (replicaBit[vi] != 0) fresh.addReplica(static_cast<VertexId>(vi));
    assignClientsToClosest(instance, fresh);
    placement_ = std::move(fresh);
    // The per-server index mirrors the fresh assignment; clients() order is
    // the scan order, so every list comes out sorted by construction.
    for (auto& list : serverClients_) list.clear();
    serverClients_.resize(n);
    for (const VertexId c : instance.tree.clients()) {
      const auto sh = placement_->shares(c);
      if (!sh.empty())
        serverClients_[static_cast<std::size_t>(sh[0].server)].push_back(c);
    }
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  repairClosestAssignment(replicaBit);
}

// Closest (and Closest+QoS) assignment repair: the policy serves each client
// wholly from the nearest replica above it, so the only clients whose share
// can change are (a) the served clients of a removed replica, (b) clients of
// an added replica's subtree currently served from strictly above it — any
// such client sits in some strict ancestor's server list, sliced out by the
// subtree's client-index interval — and (c) clients whose own rate mutated.
// The per-server index pins those groups down exactly, so a flip near the
// root costs O(moved clients), not O(subtree).
void IncrementalSolver::repairClosestAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  Placement& placement = *placement_;
  const auto& clients = tree.clients();

  // 1. Candidates, read off the pre-flip index.
  const std::uint64_t candidateGen = ++markGen_;
  std::vector<VertexId> moved;
  const auto candidate = [&](VertexId c) {
    auto& mark = clientMark_[static_cast<std::size_t>(c)];
    if (mark == candidateGen) return;  // nested flips / repeated mutations
    mark = candidateGen;
    moved.push_back(c);
  };
  const auto indexLess = [this](VertexId c, std::int32_t pos) {
    return clientIndex_[static_cast<std::size_t>(c)] < pos;
  };
  for (const VertexId v : flips_) {
    const auto vi = static_cast<std::size_t>(v);
    if (replicaBit[vi] == 0) {
      for (const VertexId c : serverClients_[vi]) candidate(c);
      continue;
    }
    const auto span = tree.clientsInSubtree(v);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    for (VertexId u = tree.parent(v); u != kNoVertex; u = tree.parent(u)) {
      const auto& list = serverClients_[static_cast<std::size_t>(u)];
      if (list.empty()) continue;
      for (auto it = std::lower_bound(list.begin(), list.end(), lo, indexLess);
           it != list.end() && clientIndex_[static_cast<std::size_t>(*it)] < hi;
           ++it)
        candidate(*it);
    }
  }
  for (const VertexId c : pendingChangedClients_) candidate(c);
  pendingChangedClients_.clear();

  // 2. Replica set next: the walk-ups below must see the new set.
  for (const VertexId v : flips_) {
    if (replicaBit[static_cast<std::size_t>(v)] != 0)
      placement.addReplica(v);
    else
      placement.removeReplica(v);
  }

  // 3. Reassign each candidate against the new set, collecting index edits:
  // leavers are flagged per client (a client has at most one old server),
  // arrivals are grouped per new server and merged below.
  const std::uint64_t leftGen = ++markGen_;
  const std::uint64_t serverGen = ++markGen_;
  std::vector<VertexId> touchedServers;
  std::vector<std::pair<VertexId, VertexId>> arrivals;  // (server, client)
  const auto touchServer = [&](VertexId s) {
    auto& mark = pathMark_[static_cast<std::size_t>(s)];
    if (mark == serverGen) return;
    mark = serverGen;
    touchedServers.push_back(s);
  };
  for (const VertexId c : moved) {
    const auto sh = placement.shares(c);
    const VertexId oldServer = sh.empty() ? kNoVertex : sh[0].server;
    const Requests rate = instance.requests[static_cast<std::size_t>(c)];
    const VertexId newServer =
        rate > 0 ? firstReplicaAbove(tree, placement, c) : kNoVertex;
    TREEPLACE_REQUIRE(rate == 0 || newServer != kNoVertex,
                      "closest repair: client lost every replica on its root path");
    if (newServer == oldServer) {
      if (rate > 0 && rate != sh[0].amount) {  // same server, mutated rate
        placement.clearClient(c);
        placement.assign(c, newServer, rate);
      }
      continue;
    }
    placement.clearClient(c);
    if (newServer != kNoVertex) {
      placement.assign(c, newServer, rate);
      arrivals.push_back({newServer, c});
    }
    if (oldServer != kNoVertex) {
      clientMark_[static_cast<std::size_t>(c)] = leftGen;
      touchServer(oldServer);
    }
  }

  // 4. Index maintenance, batched per server: one filtering pass over each
  // old list, one sorted merge per receiving list (kept in client scan
  // order, matching the full-rebuild layout).
  for (const VertexId s : touchedServers) {
    auto& list = serverClients_[static_cast<std::size_t>(s)];
    std::erase_if(list, [&](VertexId c) {
      return clientMark_[static_cast<std::size_t>(c)] == leftGen;
    });
  }
  const auto scanLess = [this](VertexId a, VertexId b) {
    return clientIndex_[static_cast<std::size_t>(a)] <
           clientIndex_[static_cast<std::size_t>(b)];
  };
  std::sort(arrivals.begin(), arrivals.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return scanLess(a.second, b.second);
            });
  for (std::size_t i = 0; i < arrivals.size();) {
    auto& list = serverClients_[static_cast<std::size_t>(arrivals[i].first)];
    const auto mid = static_cast<std::ptrdiff_t>(list.size());
    const VertexId s = arrivals[i].first;
    for (; i < arrivals.size() && arrivals[i].first == s; ++i)
      list.push_back(arrivals[i].second);
    std::inplace_merge(list.begin(), list.begin() + mid, list.end(), scanLess);
  }
}

void IncrementalSolver::refreshMultipleAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  if (assignRebuildNeeded_ || !placement_.has_value()) {
    placement_ = assignMultipleRequests(instance, replicaBit);
    for (auto& takes : serverTakes_) takes.clear();
    serverTakes_.resize(tree.vertexCount());
    for (const VertexId c : tree.clients())
      for (const ServedShare& share : placement_->shares(c))
        serverTakes_[static_cast<std::size_t>(share.server)].push_back(
            {c, share.amount});
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  repairMultipleAssignment(replicaBit);
}

// Multiple assignment repair by undo/replay. The greedy pass 3 absorbs, per
// replica in postorder, the still-unsatisfied clients of its subtree in
// client-scan order. Locality argument: a server with no changed vertex
// (rate mutation or replica flip) in its subtree sees an identical subtree
// state at its turn and absorbs identically — by induction bottom-up, only
// servers that are ancestors-or-self of a changed vertex can differ. Undoing
// *all* of those servers' takes closes the tracked-client set: any client a
// replayed server could need to absorb either had its rate changed or was
// served by an affected server (every server later in postorder that serves
// a client of subtree(s) is an ancestor of s, hence affected too) — so the
// replay only ever touches tracked clients, and the result is bit-identical
// to rerunning the full greedy.
void IncrementalSolver::repairMultipleAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  Placement& placement = *placement_;
  const Requests W = instance.homogeneousCapacity();
  const auto& clients = tree.clients();

  // 1. Affected servers: replica holders (old or new set) on the root path
  // of any changed vertex. Path walks stop at a vertex already visited this
  // repair, so shared path suffixes are walked once.
  const std::uint64_t pathGen = ++markGen_;
  std::vector<VertexId> affected;
  const auto walkUp = [&](VertexId start) {
    for (VertexId u = start; u != kNoVertex; u = tree.parent(u)) {
      auto& mark = pathMark_[static_cast<std::size_t>(u)];
      if (mark == pathGen) break;
      mark = pathGen;
      if (tree.isInternal(u) &&
          (placement.hasReplica(u) || replicaBit[static_cast<std::size_t>(u)] != 0))
        affected.push_back(u);
    }
  };
  for (const VertexId v : flips_) walkUp(v);
  for (const VertexId c : pendingChangedClients_) walkUp(c);

  // 2. Undo every affected server completely and track its clients; apply
  // the replica flips along the way (flipped vertices are on their own root
  // path, so every flip is in `affected`).
  const std::uint64_t clientGen = ++markGen_;
  std::vector<VertexId> tracked;
  const auto track = [&](VertexId c) {
    auto& mark = clientMark_[static_cast<std::size_t>(c)];
    if (mark == clientGen) return;
    mark = clientGen;
    tracked.push_back(c);
  };
  for (const VertexId u : affected) {
    auto& takes = serverTakes_[static_cast<std::size_t>(u)];
    for (const auto& [c, amount] : takes) {
      const Requests undone = placement.unassign(c, u);
      TREEPLACE_REQUIRE(undone == amount,
                        "multiple repair: take list out of sync with placement");
      track(c);
    }
    takes.clear();
    if (replicaBit[static_cast<std::size_t>(u)] != 0)
      placement.addReplica(u);
    else
      placement.removeReplica(u);
  }
  for (const VertexId c : pendingChangedClients_) track(c);
  pendingChangedClients_.clear();

  // 3. Residual demand of the tracked clients (untracked clients stay fully
  // served by unaffected servers).
  for (const VertexId c : tracked)
    remainingScratch_[static_cast<std::size_t>(c)] =
        instance.requests[static_cast<std::size_t>(c)] - placement.assignedOf(c);

  // 4. Replay in the exact greedy's order: servers in postorder, clients in
  // scan order within the server's subtree, absorb min(rest, budget).
  std::sort(affected.begin(), affected.end(), [this](VertexId a, VertexId b) {
    return postPos_[static_cast<std::size_t>(a)] <
           postPos_[static_cast<std::size_t>(b)];
  });
  std::sort(tracked.begin(), tracked.end(), [this](VertexId a, VertexId b) {
    return clientIndex_[static_cast<std::size_t>(a)] <
           clientIndex_[static_cast<std::size_t>(b)];
  });
  for (const VertexId s : affected) {
    if (replicaBit[static_cast<std::size_t>(s)] == 0) continue;  // lost its replica
    const auto span = tree.clientsInSubtree(s);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    Requests budget = W;
    auto it = std::lower_bound(
        tracked.begin(), tracked.end(), lo, [this](VertexId c, std::int32_t pos) {
          return clientIndex_[static_cast<std::size_t>(c)] < pos;
        });
    auto& takes = serverTakes_[static_cast<std::size_t>(s)];
    for (; it != tracked.end() &&
           clientIndex_[static_cast<std::size_t>(*it)] < hi && budget > 0;
         ++it) {
      const VertexId c = *it;
      auto& rest = remainingScratch_[static_cast<std::size_t>(c)];
      if (rest == 0) continue;
      const Requests take = std::min(rest, budget);
      placement.assign(c, s, take);
      takes.push_back({c, take});
      rest -= take;
      budget -= take;
    }
  }
  for (const VertexId c : tracked)
    TREEPLACE_REQUIRE(remainingScratch_[static_cast<std::size_t>(c)] == 0,
                      "multiple repair left unassigned demand — locality bug");
}

IncrementalBounds::IncrementalBounds(ProblemInstance& instance) : instance_(&instance) {
  stats_.trackedVertices = instance.tree.vertexCount();
  memo_.init(TreeDecomposition(instance.tree), false);
  refresh();
}

void IncrementalBounds::noteDelta(const DeltaApplication& app) {
  if (app.structural) {
    memo_.grow(TreeDecomposition(instance_->tree));
    stats_.trackedVertices = instance_->tree.vertexCount();
  }
  stats_.invalidations += memo_.stamp(instance_->tree, app.touched, app.global);
  if (app.global) ++stats_.globalInvalidations;
}

DeltaApplication IncrementalBounds::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  noteDelta(app);
  return app;
}

// The relaxation pass of FrontierSubtreeRelaxation::build, memoized: the
// shared relaxation step runs only for dirty bags, while the derived scalar
// passes — ancestor capacities, per-subtree floors, the decomposition bound —
// are linear scans rerun wholesale.
void IncrementalBounds::refresh() {
  const ProblemInstance& instance = *instance_;
  if (memo_.compactIfBloated()) ++stats_.compactions;
  ArenaStore<FrontierEntry> store(memo_.arena);
  const TreeDecomposition decomp(instance.tree);
  const std::size_t misses = memo_.refoldWith(decomp, nullptr, [&](BagId b, std::uint64_t) {
    return detail::relaxationStep(instance, decomp, b, store, memo_.frontier);
  });
  stats_.misses += misses;
  stats_.hits += instance.tree.vertexCount() - misses;
  stats_.arenaEntries = memo_.arena.entryCount();
  stats_.arenaBytes = memo_.arena.bytes();
  floors_ = detail::deriveRelaxationFloors(instance, memo_.arena, memo_.frontier);
}

}  // namespace treeplace

// Worker-pool branch-and-bound engine: every warm solveMip runs here, with
// max(1, MipOptions::workers) workers.
//
// Threading model, in one breath: N workers each own a private LpWorkspace
// (worker 0 the caller's persistent one or a fresh parse, the others clones
// of it; bound changes stay pure box updates, so per-worker memory is
// tableau-height-bounded); open nodes live in N
// granularity-bucketed shards (one per worker, each a mutex-guarded
// NodePool); workers pop best-bound from their own shard, steal from a
// foreign shard when theirs runs dry, and push children to their own shard;
// the incumbent objective is a lock-free atomic (the incumbent point sits
// behind a small mutex); and termination is detected with an epoch-counted
// outstanding-node protocol — a push bumps the epoch, an idle worker parks
// on (epoch unchanged && outstanding > 0) and exits when the outstanding
// count of unfinished nodes reaches zero.
//
// Node records live in a chunked arena with a preallocated chunk table, so
// concurrent appends never move published nodes and cross-worker delta-chain
// walks need no locks: every node id travels through a shard mutex (or the
// chunk-ready acquire/release edge), which carries the happens-before chain
// from its writer.
//
// One worker runs inline on the calling thread: a strict best-bound search
// whose node counts, solve mix, pivot counts, bounds and budget use
// tests/test_parallel_bb.cpp pins down.

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "lp/bb_detail.hpp"
#include "lp/workspace.hpp"
#include "support/require.hpp"

namespace treeplace::lp::detail {
namespace {

/// Chunked node storage shared by all workers. The chunk-pointer table is
/// sized once from the node budget (every explored node creates at most two
/// children), so readers index it without synchronisation; chunk creation
/// publishes through readyChunks_ with release/acquire.
class NodeArena {
 public:
  static constexpr int kChunkShift = 10;
  static constexpr long kChunkSize = 1L << kChunkShift;
  static constexpr long kChunkMask = kChunkSize - 1;

  explicit NodeArena(long nodeCapacity)
      : capacity_(nodeCapacity),
        chunks_(static_cast<std::size_t>((nodeCapacity + kChunkSize - 1) /
                                         kChunkSize) +
                1) {}

  /// Append a node and return its id, or -1 when the arena is full (the
  /// caller abandons the subtree and keeps its bound — sound, never wrong).
  long tryCreate(const BbNode& node) {
    const long id = next_.fetch_add(1);
    if (id >= capacity_) return -1;
    const long c = id >> kChunkShift;
    if (c >= readyChunks_.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(growMutex_);
      while (readyChunks_.load(std::memory_order_relaxed) <= c) {
        const long r = readyChunks_.load(std::memory_order_relaxed);
        chunks_[static_cast<std::size_t>(r)] =
            std::make_unique<BbNode[]>(static_cast<std::size_t>(kChunkSize));
        readyChunks_.store(r + 1, std::memory_order_release);
      }
    }
    chunks_[static_cast<std::size_t>(c)][id & kChunkMask] = node;
    return id;
  }

  const BbNode& get(long id) const {
    return chunks_[static_cast<std::size_t>(id >> kChunkShift)][id & kChunkMask];
  }

 private:
  long capacity_;
  std::vector<std::unique_ptr<BbNode[]>> chunks_;
  std::atomic<long> next_{0};
  std::atomic<long> readyChunks_{0};
  std::mutex growMutex_;
};

/// One open-node shard: a granularity-bucketed best-bound pool behind its own
/// mutex. Only the owning worker pushes here (children of its expansions);
/// any worker may pop (stealing), so pops stay best-bound per shard.
struct Shard {
  std::mutex mutex;
  NodePool pool;

  explicit Shard(double granularity) : pool(granularity) {}
};

struct SharedState {
  const Model& model;
  const MipOptions& options;
  const std::vector<int>& integers;
  NodeArena arena;
  std::vector<std::unique_ptr<Shard>> shards;

  std::atomic<long> explored{0};      ///< budget-reserved node pops
  std::atomic<long> outstanding{0};   ///< nodes in shards + nodes being expanded
  std::atomic<unsigned long> pushEpoch{0};
  std::atomic<bool> budgetExhausted{false};
  std::atomic<bool> guardTripped{false};  ///< options.guard stopped a node pop
  std::atomic<bool> abortUnbounded{false};
  std::atomic<bool> sawIterationLimit{false};

  std::atomic<double> incumbentObj;
  std::mutex incumbentMutex;
  std::vector<double> incumbentValues;

  SharedState(const Model& m, const MipOptions& o, const std::vector<int>& ints,
              long nodeCapacity, int workerCount)
      : model(m), options(o), integers(ints), arena(nodeCapacity) {
    shards.reserve(static_cast<std::size_t>(workerCount));
    for (int s = 0; s < workerCount; ++s)
      shards.push_back(std::make_unique<Shard>(o.objectiveGranularity));
    double objective = o.initialUpperBound;
    seedIncumbent(m, o, ints, objective, incumbentValues);
    incumbentObj.store(objective);
  }
};

/// Per-worker mutable state: the worker's workspace, the delta-chain
/// reconstruction scratch, and the locally accumulated result pieces that
/// the main thread merges after the join.
struct WorkerState {
  LpWorkspace& workspace;
  std::vector<unsigned> stamp;
  std::vector<int> touched;
  unsigned epoch = 0;
  double minClosedBound = kInfinity;
  double lpMillis = 0.0;
  long steals = 0;
  double idleMs = 0.0;

  WorkerState(LpWorkspace& own, int variableCount)
      : workspace(own), stamp(static_cast<std::size_t>(variableCount), 0) {}
};

struct Claim {
  long id = -1;
  double bound = -kInfinity;
  int shard = -1;
};

/// Pop one node, own shard first, then foreign shards in round-robin order.
/// The node-budget slot is reserved (CAS) and options.guard ticked before
/// popping, under the shard mutex, so both budgets are only charged when a
/// node is available, after the maxNodes check. Returns false via `stop`
/// when either budget is spent; the node then stays in its shard.
bool tryClaim(SharedState& shared, int self, Claim& claim, bool& stop,
              long& steals) {
  // The root is worker 0's: its workspace is the caller's persistent one,
  // whose basis from the previous solve warm-starts the root LP and keeps
  // the root's basis for the next solve. The others wait for its children.
  if (self != 0 && shared.explored.load() == 0) return false;
  const int shardCount = static_cast<int>(shared.shards.size());
  for (int k = 0; k < shardCount; ++k) {
    const int s = (self + k) % shardCount;
    Shard& shard = *shared.shards[static_cast<std::size_t>(s)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.pool.empty()) continue;
    long cur = shared.explored.load();
    bool reserved = false;
    while (cur < shared.options.maxNodes) {
      if (shared.explored.compare_exchange_weak(cur, cur + 1)) {
        reserved = true;
        break;
      }
    }
    if (!reserved) {
      // Open nodes remain but the budget is gone: the search is truncated.
      shared.budgetExhausted.store(true);
      stop = true;
      return false;
    }
    if (shared.options.guard != nullptr &&
        shared.options.guard->tick() != BudgetVerdict::Ok) {
      // Shared budget tripped: stop like the node cap — incumbent and global
      // dual bound stay valid, the result just loses its optimality proof.
      shared.explored.fetch_sub(1);
      shared.guardTripped.store(true);
      shared.budgetExhausted.store(true);
      stop = true;
      return false;
    }
    const auto [bound, id] = shard.pool.pop();
    claim = {id, bound, s};
    if (k != 0) ++steals;
    return true;
  }
  return false;
}

void workerLoop(SharedState& shared, WorkerState& worker, int self) {
  const MipOptions& options = shared.options;
  const double cutoffGap = options.absoluteGap;
  const Model& model = shared.model;
  Shard& ownShard = *shared.shards[static_cast<std::size_t>(self)];

  const auto applyNodeBounds = [&](long id) {
    for (const int v : worker.touched)
      worker.workspace.setBounds(v, model.lower(v), model.upper(v));
    worker.touched.clear();
    ++worker.epoch;
    for (long cur = id; cur >= 0; cur = shared.arena.get(cur).parent) {
      const BbNode& node = shared.arena.get(cur);
      if (node.branchVar < 0) continue;
      auto& mark = worker.stamp[static_cast<std::size_t>(node.branchVar)];
      if (mark == worker.epoch) continue;
      mark = worker.epoch;
      worker.workspace.setBounds(node.branchVar, node.lower, node.upper);
      worker.touched.push_back(node.branchVar);
    }
  };

  for (;;) {
    if (shared.abortUnbounded.load()) return;

    // Epoch before the scan: a push that lands after this read bumps the
    // epoch, so a failed scan followed by an epoch-equality park cannot miss
    // it (no lost wake-ups).
    const unsigned long epochBefore = shared.pushEpoch.load();
    Claim claim;
    bool stop = false;
    if (!tryClaim(shared, self, claim, stop, worker.steals)) {
      if (stop) return;  // node budget or guard spent
      // Nothing claimable: park until the topology changes. Spin briefly
      // (a push usually lands within a node solve, ~µs), then back off to
      // bounded sleeps so an oversubscribed or end-of-search worker stops
      // competing with the workers doing actual pivots.
      const auto idleStart = std::chrono::steady_clock::now();
      int spins = 0;
      for (;;) {
        if (shared.outstanding.load() == 0 || shared.abortUnbounded.load() ||
            shared.budgetExhausted.load()) {
          stop = true;
          break;
        }
        if (shared.pushEpoch.load() != epochBefore) break;  // new pushes
        if (++spins < 64) {
          std::this_thread::yield();
        } else {
          const int exponent = std::min(spins / 64, 5);  // 10 µs .. 320 µs
          std::this_thread::sleep_for(std::chrono::microseconds(10 << exponent));
        }
      }
      worker.idleMs += millisSince(idleStart);
      if (stop) return;
      continue;
    }

    const double inheritedBound = claim.bound;

    if (std::max(inheritedBound, options.knownLowerBound) >=
        shared.incumbentObj.load() - cutoffGap) {
      worker.minClosedBound = std::min(worker.minClosedBound, inheritedBound);
      if (claim.shard == self) {
        // Own shard: only this worker pushes here, and shard pops are
        // best-bound, so every remaining entry is at least as bad — drain it
        // wholesale, like a single best-bound search's early break. (A stolen
        // shard may receive concurrent pushes below this bound from its
        // owner, so only the single node is pruned there.)
        long drained = 0;
        {
          const std::lock_guard<std::mutex> lock(ownShard.mutex);
          drained = static_cast<long>(ownShard.pool.size());
          if (drained > 0)
            worker.minClosedBound =
                std::min(worker.minClosedBound, ownShard.pool.drainMinBound());
        }
        if (drained > 0) shared.outstanding.fetch_sub(drained);
      }
      shared.outstanding.fetch_sub(1);
      continue;
    }

    applyNodeBounds(claim.id);
    const auto t0 = std::chrono::steady_clock::now();
    const SolveStatus status = worker.workspace.solve();
    worker.lpMillis += millisSince(t0);

    if (status == SolveStatus::Infeasible) {
      shared.outstanding.fetch_sub(1);
      continue;
    }
    if (status == SolveStatus::Unbounded) {
      shared.abortUnbounded.store(true);
      shared.outstanding.fetch_sub(1);
      return;
    }
    if (status == SolveStatus::IterationLimit) {
      shared.sawIterationLimit.store(true);
      worker.minClosedBound = std::min(worker.minClosedBound, inheritedBound);
      shared.outstanding.fetch_sub(1);
      continue;
    }

    const double lpBound =
        roundBound(worker.workspace.objective(), options.objectiveGranularity);
    const double nodeBound = std::max(inheritedBound, lpBound);
    if (std::max(nodeBound, options.knownLowerBound) >=
        shared.incumbentObj.load() - cutoffGap) {
      worker.minClosedBound = std::min(worker.minClosedBound, nodeBound);
      shared.outstanding.fetch_sub(1);
      continue;
    }

    const std::span<const double> values = worker.workspace.values();
    const int branchVar = pickBranchVariable(values, shared.integers,
                                             options.branchPriority,
                                             options.integralityTol);

    if (branchVar < 0) {
      // Integral: candidate incumbent. The atomic objective is the cheap
      // gate; the point itself is swapped under the mutex, double-checked so
      // the stored objective stays monotone.
      const double objective = worker.workspace.objective();
      if (objective < shared.incumbentObj.load() - cutoffGap) {
        const std::lock_guard<std::mutex> lock(shared.incumbentMutex);
        if (objective < shared.incumbentObj.load() - cutoffGap) {
          shared.incumbentValues.assign(values.begin(), values.end());
          for (const int j : shared.integers)
            shared.incumbentValues[static_cast<std::size_t>(j)] =
                std::round(shared.incumbentValues[static_cast<std::size_t>(j)]);
          shared.incumbentObj.store(objective);
        }
      }
      worker.minClosedBound = std::min(worker.minClosedBound, objective);
      shared.outstanding.fetch_sub(1);
      continue;
    }

    const double value = values[static_cast<std::size_t>(branchVar)];
    const double curLo = worker.workspace.currentLower(branchVar);
    const double curHi = worker.workspace.currentUpper(branchVar);
    const double downHi = std::floor(value);
    const double upLo = std::ceil(value);
    long childIds[2] = {-1, -1};
    int children = 0;
    bool arenaFull = false;
    if (curLo <= downHi) {
      const long id =
          shared.arena.tryCreate({claim.id, branchVar, curLo, downHi, nodeBound});
      if (id >= 0)
        childIds[children++] = id;
      else
        arenaFull = true;
    }
    if (upLo <= curHi) {
      const long id =
          shared.arena.tryCreate({claim.id, branchVar, upLo, curHi, nodeBound});
      if (id >= 0)
        childIds[children++] = id;
      else
        arenaFull = true;
    }
    if (arenaFull) {
      // Abandoned subtree: its bound keeps the global lower bound valid, and
      // nodeBound < incumbent - gap here, so `proven` can never be claimed.
      shared.budgetExhausted.store(true);
      worker.minClosedBound = std::min(worker.minClosedBound, nodeBound);
    }
    if (children > 0) {
      // Outstanding rises before the push so the count can never transiently
      // hit zero while claimable work exists (this node still counts as 1
      // until the final decrement below).
      shared.outstanding.fetch_add(children);
      {
        const std::lock_guard<std::mutex> lock(ownShard.mutex);
        for (int c = 0; c < children; ++c)
          ownShard.pool.push(childIds[c], nodeBound);
      }
      shared.pushEpoch.fetch_add(1);
    }
    shared.outstanding.fetch_sub(1);
  }
}

}  // namespace

MipResult solveMipParallel(const Model& model, const MipOptions& options,
                           const std::vector<int>& integers) {
  const int workerCount =
      std::max(1, std::min(options.workers, 64));  // shard table stays small

  // Every explored node creates at most two children (plus the root); capping
  // the arena at the budget keeps the chunk table preallocatable. A budget
  // beyond the cap degrades to a truncated (never wrong) search.
  const long budget = std::max<long>(1, std::min<long>(options.maxNodes, 1L << 26));
  const long nodeCapacity = 2 * budget + 8;

  SharedState shared(model, options, integers, nodeCapacity, workerCount);

  const long rootId = shared.arena.tryCreate({});
  TREEPLACE_REQUIRE(rootId == 0, "parallel B&B root allocation failed");
  shared.outstanding.store(1);
  {
    Shard& shard0 = *shared.shards[0];
    const std::lock_guard<std::mutex> lock(shard0.mutex);
    shard0.pool.push(rootId, -kInfinity);
  }

  // Worker 0 runs on the caller's persistent workspace, re-synced with the
  // (possibly patched) model: the final basis of the previous run then
  // warm-starts the root LP. Without one it parses the model afresh. The
  // other workers clone worker 0's (a memcpy of the standard form and basis).
  std::optional<LpWorkspace> owned;
  if (options.workspace != nullptr) {
    options.workspace->syncFromModel(model);
    options.workspace->resetStats();
  } else {
    owned.emplace(model, options.lp);
  }
  LpWorkspace& first = options.workspace != nullptr ? *options.workspace : *owned;
  std::vector<LpWorkspace> clones;
  clones.reserve(static_cast<std::size_t>(workerCount - 1));
  for (int w = 1; w < workerCount; ++w) clones.push_back(first.clone());
  std::vector<WorkerState> workers;
  workers.reserve(static_cast<std::size_t>(workerCount));
  workers.emplace_back(first, model.variableCount());
  for (LpWorkspace& clone : clones) workers.emplace_back(clone, model.variableCount());

  if (workerCount == 1) {
    // Inline on the calling thread: zero spawn cost, fully deterministic.
    workerLoop(shared, workers[0], 0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workerCount));
    for (int w = 0; w < workerCount; ++w)
      threads.emplace_back(
          [&shared, &workers, w] { workerLoop(shared, workers[w], w); });
    for (auto& t : threads) t.join();
  }

  MipResult result;
  result.nodesExplored = shared.explored.load();
  for (WorkerState& w : workers) {
    result.warm.merge(w.workspace.stats());
    result.warm.stealCount += w.steals;
    result.warm.idleMs += w.idleMs;
    result.lpMillis += w.lpMillis;
  }
  result.warm.workers = workerCount;
  result.objective = shared.incumbentObj.load();
  result.values = std::move(shared.incumbentValues);

  if (shared.abortUnbounded.load()) {
    result.status = SolveStatus::Unbounded;
    result.lowerBound = -kInfinity;
    return result;
  }

  double minClosedBound = kInfinity;
  for (const WorkerState& w : workers)
    minClosedBound = std::min(minClosedBound, w.minClosedBound);
  long remaining = 0;
  double openMin = kInfinity;
  for (const auto& shard : shared.shards) {
    remaining += static_cast<long>(shard->pool.size());
    openMin = std::min(openMin, shard->pool.drainMinBound());
  }
  if (shared.guardTripped.load()) result.stopReason = options.guard->verdict();
  // A tripped guard leaves its node in the shard, so remaining > 0 then too.
  const bool hitNodeLimit = shared.budgetExhausted.load() && remaining > 0;
  const bool sawIterationLimit = shared.sawIterationLimit.load();

  double bound = std::min(minClosedBound, openMin);
  if (bound == kInfinity) {
    if (result.objective == kInfinity) {
      result.status = SolveStatus::Infeasible;
      result.proven = !sawIterationLimit;
      result.lowerBound = kInfinity;
      return result;
    }
    bound = result.objective;
  }
  bound = std::max(bound, options.knownLowerBound);
  result.lowerBound = std::min(bound, result.objective);
  result.proven = !hitNodeLimit && !sawIterationLimit &&
                  result.lowerBound >= result.objective - options.absoluteGap * 2;
  result.status = SolveStatus::Optimal;
  return result;
}

}  // namespace treeplace::lp::detail

#include "core/frontier_stream.hpp"

#include <algorithm>
#include <limits>

#include "core/qos_dominance.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr Requests kNoFlow = std::numeric_limits<Requests>::max();
constexpr double kInfiniteSlack = std::numeric_limits<double>::infinity();

/// The width cap of both streamers over one swept frontier (its counts in
/// `counts`): calls keep(k) for every surviving index, in order. A frontier
/// wider than widthCap is downsampled by a stride that always keeps the
/// first (min count) and last (min flow) points. Survivors are real
/// reachable states, so capped frontiers stay achievable — answers become
/// upper bounds, not guesses.
template <typename Keep>
void capWidth(const std::vector<std::int32_t>& counts, std::int32_t widthCap,
              FrontierStreamStats& stats, Keep keep) {
  const std::size_t width = counts.size();
  const auto cap = static_cast<std::size_t>(widthCap);
  if (width <= cap || cap < 2) {
    for (std::size_t k = 0; k < width; ++k) keep(k);
    return;
  }
  ++stats.cappedMerges;
  stats.exact = false;
  // Dropping an interior point can cost later steps at most the count gap to
  // the next kept point (whose flow is no worse, flows being strictly
  // decreasing); the merge's worst case is the max such gap, and the gaps of
  // successive capped merges add. See FrontierStreamStats::capGapBound: with
  // the QoS slack lane the next kept point may carry worse slack than a
  // dropped one, so there the accumulated gap is diagnostic only.
  std::size_t kept = 0;
  std::int32_t maxGap = 0;
  std::size_t last = width;  // sentinel: nothing kept yet
  for (std::size_t k = 0; k < cap; ++k) {
    const std::size_t idx = k * (width - 1) / (cap - 1);
    if (idx == last) continue;
    if (last != width && idx > last + 1)
      maxGap = std::max(maxGap, counts[idx] - counts[last] - 1);
    last = idx;
    ++kept;
    keep(idx);
  }
  stats.droppedPoints += width - kept;
  stats.capGapBound += maxGap;
}

}  // namespace

// --------------------------------------------------------------------------
// FrontierStreamer
// --------------------------------------------------------------------------

void FrontierStreamer::foldChild(std::size_t accBegin, std::size_t childBegin,
                                 std::int32_t maxCount) {
  TREEPLACE_REQUIRE(accBegin < childBegin && childBegin < top(),
                    "foldChild needs two non-empty frontiers on top of the slab");
  ++stats_.convolutions;

  const std::int32_t* aCount = counts_.data() + accBegin;
  const Requests* aFlow = flows_.data() + accBegin;
  const std::size_t aSize = childBegin - accBegin;
  const std::int32_t* bCount = counts_.data() + childBegin;
  const Requests* bFlow = flows_.data() + childBegin;
  const std::size_t bSize = top() - childBegin;

  // Both inputs are count-ascending, so the reachable sums span one interval.
  const std::int32_t minSum = aCount[0] + bCount[0];
  const std::int32_t maxSum =
      std::min(maxCount, aCount[aSize - 1] + bCount[bSize - 1]);
  if (maxSum < minSum) {
    // Even the cheapest pair exceeds the cap. Callers never trigger this
    // (accumulators always keep a count-0 entry), but fold to empty cleanly.
    resize(accBegin);
    return;
  }
  const std::size_t range = static_cast<std::size_t>(maxSum - minSum) + 1;
  bucketFlow_.assign(range, kNoFlow);

  // Scatter each pair into its count bucket, keeping the min flow. The child
  // usually has contiguous counts (leaf seeds and fresh sweeps often do), in
  // which case the bucket index walks stride-1 with j and the loop
  // auto-vectorizes; the guard costs O(bSize) once.
  bool bContiguous = true;
  for (std::size_t j = 1; j < bSize; ++j) {
    if (bCount[j] != bCount[0] + static_cast<std::int32_t>(j)) {
      bContiguous = false;
      break;
    }
  }
  Requests* bucket = bucketFlow_.data();
  for (std::size_t i = 0; i < aSize; ++i) {
    const std::int32_t base = aCount[i] + bCount[0];
    if (base > maxSum) break;  // counts ascend: later i only grow
    const Requests fa = aFlow[i];
    if (bContiguous) {
      const std::size_t lanes =
          std::min(bSize, static_cast<std::size_t>(maxSum - base) + 1);
      Requests* slot = bucket + static_cast<std::size_t>(base - minSum);
      for (std::size_t j = 0; j < lanes; ++j)
        slot[j] = std::min(slot[j], fa + bFlow[j]);
      stats_.pairsMerged += lanes;
    } else {
      for (std::size_t j = 0; j < bSize; ++j) {
        const std::int32_t s = aCount[i] + bCount[j];
        if (s > maxSum) break;
        Requests& slot = bucket[static_cast<std::size_t>(s - minSum)];
        slot = std::min(slot, fa + bFlow[j]);
        ++stats_.pairsMerged;
      }
    }
  }

  sweepAndCommit(accBegin, minSum, range);
}

void FrontierStreamer::commitPruned(std::size_t begin, std::int32_t maxCount) {
  ++stats_.convolutions;
  stats_.pairsMerged += candCounts_.size();
  std::int32_t minSum = maxCount;
  std::int32_t maxSum = -1;
  for (const std::int32_t c : candCounts_) {
    if (c > maxCount) continue;
    minSum = std::min(minSum, c);
    maxSum = std::max(maxSum, c);
  }
  if (maxSum < 0) {
    resize(begin);
    return;
  }
  const std::size_t range = static_cast<std::size_t>(maxSum - minSum) + 1;
  bucketFlow_.assign(range, kNoFlow);
  for (std::size_t k = 0; k < candCounts_.size(); ++k) {
    const std::int32_t c = candCounts_[k];
    if (c > maxCount) continue;
    Requests& slot = bucketFlow_[static_cast<std::size_t>(c - minSum)];
    slot = std::min(slot, candFlows_[k]);
  }
  sweepAndCommit(begin, minSum, range);
}

void FrontierStreamer::sweepAndCommit(std::size_t accBegin, std::int32_t minSum,
                                      std::size_t range) {
  // Ascending sweep: keep only strict flow improvements (Pareto frontier).
  outCounts_.clear();
  outFlows_.clear();
  Requests best = kNoFlow;
  const Requests* bucket = bucketFlow_.data();
  for (std::size_t k = 0; k < range; ++k) {
    const Requests f = bucket[k];
    if (f >= best) continue;
    best = f;
    outCounts_.push_back(minSum + static_cast<std::int32_t>(k));
    outFlows_.push_back(f);
  }
  stats_.peakWidth = std::max(stats_.peakWidth, outCounts_.size());
  resize(accBegin);
  capWidth(outCounts_, options_.widthCap, stats_,
           [this](std::size_t k) { pushEntry(outCounts_[k], outFlows_[k]); });
}

// --------------------------------------------------------------------------
// QosFrontierStreamer
// --------------------------------------------------------------------------

void QosFrontierStreamer::noteStack() {
  // O(1) per push: bucket headers are counted, their per-bucket heap capacity
  // is not (bounded by the widest fold, negligible next to the slab).
  stats_.peakStackEntries = std::max(stats_.peakStackEntries, counts_.size());
  const std::size_t bytes = counts_.capacity() * sizeof(std::int32_t) +
                            flows_.capacity() * sizeof(Requests) +
                            slacks_.capacity() * sizeof(double) +
                            buckets_.headerBytes();
  stats_.peakBytes = std::max(stats_.peakBytes, bytes);
  if (options_.guard != nullptr) options_.guard->noteMemory(bytes);
}

std::size_t QosFrontierStreamer::pushUnit() {
  const std::size_t begin = top();
  pushEntry(0, 0, kInfiniteSlack);
  return begin;
}

void QosFrontierStreamer::bucketAdd(std::int32_t count, Requests flow,
                                    double slack) {
  ++stats_.pairsMerged;
  buckets_.add(count, {flow, slack});
}

void QosFrontierStreamer::foldChild(std::size_t accBegin, std::size_t childBegin,
                                    std::int32_t maxCount, double uplink) {
  TREEPLACE_REQUIRE(accBegin < childBegin && childBegin < top(),
                    "foldChild needs two non-empty frontiers on top of the slab");
  ++stats_.convolutions;
  buckets_.begin(maxCount);

  const std::size_t aSize = childBegin - accBegin;
  const std::size_t bSize = top() - childBegin;
  for (std::size_t j = 0; j < bSize; ++j) {
    const std::size_t bj = childBegin + j;
    const Requests fb = flows_[bj];
    // The child pays its uplink before joining the parent; zero-flow states
    // carry no deadline at all.
    const double sb = fb > 0 ? slacks_[bj] - uplink : kInfiniteSlack;
    if (sb < -kSlackTolerance) continue;  // dead: some client unreachable in time
    const std::int32_t cb = counts_[bj];
    for (std::size_t i = 0; i < aSize; ++i) {
      const std::size_t ai = accBegin + i;
      const std::int32_t c = counts_[ai] + cb;
      if (c > maxCount) break;  // accumulator counts ascend
      bucketAdd(c, flows_[ai] + fb, std::min(slacks_[ai], sb));
    }
  }
  sweepAndCommit(accBegin);
}

void QosFrontierStreamer::clearCandidates() {
  candCounts_.clear();
  candFlows_.clear();
  candSlacks_.clear();
}

void QosFrontierStreamer::addCandidate(std::int32_t count, Requests flow,
                                       double slack) {
  candCounts_.push_back(count);
  candFlows_.push_back(flow);
  candSlacks_.push_back(slack);
}

void QosFrontierStreamer::commitPruned(std::size_t begin, std::int32_t maxCount) {
  ++stats_.convolutions;
  buckets_.begin(maxCount);
  for (std::size_t k = 0; k < candCounts_.size(); ++k) {
    if (candCounts_[k] > maxCount) continue;
    bucketAdd(candCounts_[k], candFlows_[k], candSlacks_[k]);
  }
  sweepAndCommit(begin);
}

void QosFrontierStreamer::sweepAndCommit(std::size_t accBegin) {
  outCounts_.clear();
  outFlows_.clear();
  outSlacks_.clear();
  buckets_.sweep([this](std::int32_t c, const Step& step) {
    outCounts_.push_back(c);
    outFlows_.push_back(step.flow);
    outSlacks_.push_back(step.slack);
  });
  stats_.peakWidth = std::max(stats_.peakWidth, outCounts_.size());
  resize(accBegin);
  capWidth(outCounts_, options_.widthCap, stats_, [this](std::size_t k) {
    pushEntry(outCounts_[k], outFlows_[k], outSlacks_[k]);
  });
  noteStack();
}

}  // namespace treeplace

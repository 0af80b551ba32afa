#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace treeplace {

/// Slack tolerance of the QoS frontier DPs: a state whose remaining QoS
/// budget is at least -kSlackTolerance is still alive, and a replica may sit
/// where the budget covers the computation time up to this tolerance.
inline constexpr double kSlackTolerance = 1e-9;

/// Insert into a (flow, slack) staircase — flow strictly ascending, slack
/// strictly ascending — unless a step dominates the entry (flow <=, slack >=,
/// non-strict: the incumbent wins exact ties); steps the entry dominates are
/// removed. Returns false when the entry was dominated. `Step` is any type
/// with `flow` and `slack` members.
template <typename Step>
bool staircaseInsert(std::vector<Step>& steps, const Step& entry) {
  // p = first step with flow >= entry.flow; everything before it has smaller
  // flow, and the last of those carries their best slack (slack ascends).
  std::size_t p = 0;
  while (p < steps.size() && steps[p].flow < entry.flow) ++p;
  if (p > 0 && steps[p - 1].slack >= entry.slack) return false;  // dominated
  if (p < steps.size() && steps[p].flow == entry.flow &&
      steps[p].slack >= entry.slack)
    return false;  // dominated by the equal-flow step (incumbent wins ties)
  // The entry survives: it dominates every step with flow >= its flow and
  // slack <= its slack — a contiguous range starting at p.
  std::size_t q = p;
  while (q < steps.size() && steps[q].slack <= entry.slack) ++q;
  if (q == p) {
    steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(p), entry);
  } else {
    steps[p] = entry;
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(p) + 1,
                steps.begin() + static_cast<std::ptrdiff_t>(q));
  }
  return true;
}

/// The 3-D dominance filter of the QoS frontiers (QosFrontierSweep,
/// QosFrontierStreamer): an entry is dominated when another has count <=,
/// flow <= and slack >= it. Candidates are scattered into count-indexed
/// buckets, each a (flow, slack) staircase under insertion, so within-bucket
/// dominance is resolved on the fly; sweep() then visits buckets by
/// ascending count, testing each survivor against the running staircase of
/// all lower counts, and emits the non-dominated points in (count, flow)
/// order. Bucket vectors are recycled across batches: steady-state filtering
/// performs no heap allocations.
template <typename Step>
class StaircaseBuckets {
 public:
  /// Start a batch whose counts lie in [0, maxCount].
  void begin(std::int32_t maxCount) {
    const auto needed = static_cast<std::size_t>(maxCount) + 1;
    if (buckets_.size() < needed) buckets_.resize(needed);
    for (std::int32_t c = 0; c < inUse_; ++c) buckets_[static_cast<std::size_t>(c)].clear();
    inUse_ = maxCount + 1;
  }

  /// One past the largest count the current batch accepts.
  std::int32_t bound() const { return inUse_; }

  void add(std::int32_t count, const Step& step) {
    staircaseInsert(buckets_[static_cast<std::size_t>(count)], step);
  }

  /// Calls emit(count, step) for every non-dominated candidate, in (count,
  /// flow) order.
  template <typename Emit>
  void sweep(Emit emit) {
    skyline_.clear();
    // A bucket's steps are mutually non-dominated and flow-ascending, so
    // folding each survivor into the skyline as it is emitted cannot shadow
    // a same-count sibling; the skyline check doubles as the cross-bucket
    // dominance test (lower counts entered first and win non-strict ties).
    for (std::int32_t c = 0; c < inUse_; ++c)
      for (const Step& step : buckets_[static_cast<std::size_t>(c)])
        if (staircaseInsert(skyline_, step)) emit(c, step);
  }

  std::size_t headerBytes() const { return buckets_.capacity() * sizeof(std::vector<Step>); }

 private:
  std::vector<std::vector<Step>> buckets_;
  std::int32_t inUse_ = 0;
  std::vector<Step> skyline_;  ///< sweep()'s running lower-count staircase
};

}  // namespace treeplace

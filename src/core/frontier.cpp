#include "core/frontier.hpp"

#include <algorithm>
#include <limits>

#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr Requests kHugeFlow = std::numeric_limits<Requests>::max() / 4;

}  // namespace

void FrontierStats::merge(const FrontierStats& other) {
  peakWidth = std::max(peakWidth, other.peakWidth);
  arenaBytes = std::max(arenaBytes, other.arenaBytes);
  entriesMerged += other.entriesMerged;
  convolutions += other.convolutions;
}

FrontierSpan FrontierConvolver::unit() {
  const std::uint32_t begin = arena_->beginSpan();
  arena_->push({0, 0, -1, -1});
  return arena_->endSpan(begin);
}

void FrontierConvolver::ensureBuckets(std::size_t width) {
  if (bucketFlow_.size() < width) {
    bucketFlow_.resize(width);
    bucketPrev_.resize(width);
    bucketChild_.resize(width);
  }
  std::fill_n(bucketFlow_.begin(), width, kHugeFlow);
}

FrontierSpan FrontierConvolver::sweep(std::int32_t maxCount) {
  const std::uint32_t begin = arena_->beginSpan();
  Requests bestFlow = kHugeFlow;
  for (std::int32_t c = 0; c <= maxCount; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    if (bucketFlow_[ci] >= bestFlow) continue;  // dominated or empty
    bestFlow = bucketFlow_[ci];
    arena_->push({c, bestFlow, bucketPrev_[ci], bucketChild_[ci]});
  }
  const FrontierSpan out = arena_->endSpan(begin);
  stats_.peakWidth = std::max(stats_.peakWidth, static_cast<std::size_t>(out.size));
  return out;
}

FrontierSpan FrontierConvolver::convolve(FrontierSpan a, FrontierSpan b,
                                         std::int32_t maxCount) {
  const std::span<const FrontierEntry> fa = arena_->view(a);
  const std::span<const FrontierEntry> fb = arena_->view(b);
  ++stats_.convolutions;
  if (fa.empty() || fb.empty()) return {arena_->beginSpan(), 0};

  const std::int32_t reach =
      std::min(maxCount, fa.back().count + fb.back().count);
  ensureBuckets(static_cast<std::size_t>(reach) + 1);

  std::size_t pairs = 0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const std::int32_t ca = fa[i].count;
    if (ca > reach) break;  // counts ascend: nothing below fits either
    const Requests flowA = fa[i].flow;
    for (std::size_t j = 0; j < fb.size(); ++j) {
      const std::int32_t c = ca + fb[j].count;
      if (c > reach) break;  // fb counts ascend too
      ++pairs;
      const Requests flow = flowA + fb[j].flow;
      const auto ci = static_cast<std::size_t>(c);
      if (flow < bucketFlow_[ci]) {
        bucketFlow_[ci] = flow;
        bucketPrev_[ci] = static_cast<std::int32_t>(i);
        bucketChild_[ci] = static_cast<std::int32_t>(j);
      }
    }
  }
  stats_.entriesMerged += pairs;
  return sweep(reach);
}

FrontierSpan FrontierConvolver::pruneCandidates(
    std::span<const FrontierEntry> candidates, std::int32_t maxCount) {
  std::int32_t reach = -1;
  for (const FrontierEntry& e : candidates)
    reach = std::max(reach, std::min(e.count, maxCount));
  if (reach < 0) return {arena_->beginSpan(), 0};
  ensureBuckets(static_cast<std::size_t>(reach) + 1);

  for (const FrontierEntry& e : candidates) {
    if (e.count > reach) continue;
    const auto ci = static_cast<std::size_t>(e.count);
    if (e.flow < bucketFlow_[ci]) {
      bucketFlow_[ci] = e.flow;
      bucketPrev_[ci] = e.prev;
      bucketChild_[ci] = e.child;
    }
  }
  stats_.entriesMerged += candidates.size();
  return sweep(reach);
}

void FrontierConvolver::noteArenaUsage() {
  stats_.arenaBytes = std::max(stats_.arenaBytes, arena_->bytes());
}

// --------------------------------------------------------------------------
// QosFrontierSweep
// --------------------------------------------------------------------------

void QosFrontierSweep::begin(std::int32_t maxCount) { buckets_.begin(maxCount); }

void QosFrontierSweep::add(const QosFrontierEntry& entry) {
  TREEPLACE_REQUIRE(entry.count >= 0 && entry.count < buckets_.bound(),
                    "sweep candidate count outside the begin() bound");
  ++stats_.entriesMerged;
  buckets_.add(entry.count, {entry.flow, entry.slack, entry.prev, entry.child});
}

FrontierSpan QosFrontierSweep::emit() {
  ++stats_.convolutions;
  const std::uint32_t begin = arena_->beginSpan();
  buckets_.sweep([this](std::int32_t c, const Step& step) {
    arena_->push({c, step.flow, step.slack, step.prev, step.child});
  });
  const FrontierSpan out = arena_->endSpan(begin);
  stats_.peakWidth = std::max(stats_.peakWidth, static_cast<std::size_t>(out.size));
  return out;
}

void QosFrontierSweep::noteArenaUsage() {
  stats_.arenaBytes = std::max(stats_.arenaBytes, arena_->bytes());
}

}  // namespace treeplace

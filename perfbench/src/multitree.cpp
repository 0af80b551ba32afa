// Workload `multitree`: serial solveMultitreeClosest on k-tree gateway
// overlays, k in {2, 3, 4}, 12 shared gateways, member trees of s=3000.
// One operation is one solve. Solve times differ a lot between overlays, so
// a run draws more distinct overlays than it can solve in --seconds on this
// host and takes them in order; medians then rest on many overlays rather
// than on repeats of a few. Every overlay's placement is validated with the
// overlay checker on its first solve and must repeat exactly on any later
// one (a faster host wraps around).

#include <algorithm>

#include "core/validate.hpp"
#include "exact/multitree_closest.hpp"
#include "tree/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr int kMemberSize = 3000;
constexpr int kOverlaysPerK = 32;
constexpr std::size_t kTracedOverlays = 12;  ///< traced pass: the first ones solved
constexpr double kTailPct = 75.0;

std::vector<MultitreeInstance> makeOverlays(std::uint64_t seed) {
  // Feasible-at-scale profile: unit requests at light load, edge clients.
  MultitreeConfig config;
  config.sharedInternals = 12;
  config.base.clientFraction = 0.8;
  config.base.leafClientBias = 1.0;
  config.base.minRequests = config.base.maxRequests = 1;
  config.base.lambda = 0.2;
  config.base.unitCosts = true;
  config.base.minSize = config.base.maxSize = kMemberSize;
  // Interleaved by k, so a run that stops part-way through a pass still
  // weighs the three overlay sizes alike.
  std::vector<MultitreeInstance> overlays;
  for (int j = 0; j < kOverlaysPerK; ++j) {
    for (int k = 2; k <= 4; ++k) {
      config.trees = k;
      const auto index = static_cast<std::uint64_t>(kOverlaysPerK * k + j);
      const Span span("tree.generate", static_cast<std::int64_t>(index));
      overlays.push_back(generateMultitreeInstance(config, seed, index));
    }
  }
  return overlays;
}

std::string digestOf(const std::vector<MultitreeInstance>& overlays) {
  Digest d;
  for (const MultitreeInstance& mt : overlays) d.multitree(mt);
  return d.hex();
}

}  // namespace

void runMultitree(const RunConfig& cfg, Report& report) {
  report.referenceDigest = digestOf(makeOverlays(kReferenceSeed));

  tracer::setEnabled(cfg.trace);
  std::vector<MultitreeInstance> overlays;
  const double setupS = timedSetup(
      [&] {
        overlays.clear();
        tracer::clear();
      },
      [&] { overlays = makeOverlays(cfg.seed); });
  const auto setupSpans = tracer::summarize();
  tracer::setEnabled(false);
  report.inputDigest = digestOf(overlays);

  // ---------------------------------------------------------------- timed
  std::vector<double> opMs;
  std::vector<std::vector<double>> perOverlayMs(overlays.size());
  std::vector<std::vector<VertexId>> replicas(overlays.size());
  const auto start = Clock::now();
  for (std::size_t n = 0; n == 0 || msSince(start) < 1000.0 * cfg.seconds; ++n) {
    const std::size_t i = n % overlays.size();
    const auto t0 = Clock::now();
    const MultitreeSolveResult result = solveMultitreeClosest(overlays[i]);
    const double ms = msSince(t0);
    opMs.push_back(ms);
    perOverlayMs[i].push_back(ms);
    const std::string where = "overlay " + std::to_string(i) + ": ";
    if (result.stats.exhausted) report.fail(where + "gateway search exhausted");
    if (!result.placement) {
      report.fail(where + "no placement on the feasible profile");
      continue;
    }
    if (n < overlays.size()) {
      if (!isValidMultitreePlacement(overlays[i], *result.placement, Policy::Closest))
        report.fail(where + "placement invalid");
      replicas[i] = result.placement->replicas;
    } else if (result.placement->replicas != replicas[i]) {
      report.fail(where + "replica set changed between passes");
    }
  }
  const double wallMs = msSince(start);
  const double peakRss = peakRssMb();  // before anything but the timed loop allocates
  report.attempted = opMs.size();

  const Tail tail = tailOf(opMs, kTailPct);
  report.line(std::to_string(opMs.size()) + " solves over " + std::to_string(overlays.size()) +
              " overlays: p50 " + fmt(medianOf(opMs)) + " ms, p" + fmt(tail.percentile, 1) + " " +
              fmt(tail.valueMs) + " ms (" + std::to_string(tail.beyond) + " beyond)");
  report.line("fail_ratio " + fmt(static_cast<double>(report.failed) / static_cast<double>(opMs.size()), 6));

  if (!cfg.trace) {
    report.metric("p50_ms", medianOf(opMs), "ms");
    report.metric("tail_ms", tail.valueMs, "ms");
    report.metric("ops_per_s", 1000.0 * static_cast<double>(opMs.size()) / wallMs, "1/s");
    report.metric("relative_cost", 1.0, "ratio");  // exact answers: bound == cost
    report.metric("setup_s", setupS, "s");
    report.metric("peak_rss_mb", peakRss, "MB");
    return;
  }

  // ---------------------------------------------------------------- traced
  tracer::setEnabled(true);
  double tracedMs = 0.0, untracedMs = 0.0;
  MultitreeSolveStats sum;
  std::size_t traced = 0;
  for (std::size_t i = 0; i < overlays.size() && traced < kTracedOverlays; ++i) {
    if (perOverlayMs[i].empty()) continue;  // not reached in the timed window
    ++traced;
    const auto t0 = Clock::now();
    MultitreeSolveResult result;
    {
      const Span span("multitree.solve", static_cast<std::int64_t>(i));
      result = solveMultitreeClosest(overlays[i]);
    }
    tracedMs += msSince(t0);
    untracedMs += medianOf(perOverlayMs[i]);
    if (!result.placement || result.placement->replicas != replicas[i])
      report.fail("traced solve differs on overlay " + std::to_string(i));
    sum.dfsNodes += result.stats.dfsNodes;
    sum.dpResolves += result.stats.dpResolves;
    sum.dirtyRecomputes += result.stats.dirtyRecomputes;
    sum.lexicoTests += result.stats.lexicoTests;
  }
  tracer::setEnabled(false);
  const auto spans = tracer::summarize();
  const double n = static_cast<double>(traced);
  emitLayerMetrics(report, {
      {"multitree.solve_ms", tracer::stats(spans, "multitree.solve").meanMs()},
      {"multitree.dfs_nodes", static_cast<double>(sum.dfsNodes) / n},
      {"multitree.dp_resolves", static_cast<double>(sum.dpResolves) / n},
      {"multitree.dirty_recomputes", static_cast<double>(sum.dirtyRecomputes) / n},
      {"multitree.lexico_tests", static_cast<double>(sum.lexicoTests) / n},
      {"multitree.dirty_per_resolve",
       sum.dpResolves ? static_cast<double>(sum.dirtyRecomputes) / static_cast<double>(sum.dpResolves) : 0.0},
      {"tree.generate_ms", tracer::stats(setupSpans, "tree.generate").meanMs()},
      {"trace.overhead_pct", 100.0 * (tracedMs / untracedMs - 1.0)},
  });
  report.line("tracing overhead: " + fmt(untracedMs, 1) + " ms untraced (per-overlay medians) vs " +
              fmt(tracedMs, 1) + " ms traced");
}

}  // namespace perfbench

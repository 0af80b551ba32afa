// Workload `scale`: cold, serial, single-thread exact solves at s=10^5 —
// Table 1's polynomial rows as treeplace_solve and quickstart call them.
// One operation is one instance through the whole solver set: the Closest
// DP, the Multiple 3-pass algorithm, the Multiple frontier DP, the
// ClosestQos DP and the three count-only streaming twins at width cap 512.
// Neither the online layer nor the LP runs here.

#include <algorithm>

#include "core/frontier_stream.hpp"
#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "tree/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr int kSize = 100'000;
constexpr std::size_t kPool = 6;   ///< instances the timed loop cycles through
constexpr std::int32_t kWidthCap = 512;
constexpr double kTailPct = 75.0;

GeneratorConfig scaleProfile() {
  // Feasible under all three policies at this size: unit requests, edge
  // clients, light load; 30% QoS clients bind only on the QoS solver.
  GeneratorConfig config;
  config.minSize = config.maxSize = kSize;
  config.clientFraction = 0.8;
  config.leafClientBias = 1.0;
  config.minRequests = config.maxRequests = 1;
  config.lambda = 0.2;
  config.unitCosts = true;
  config.qosFraction = 0.3;
  config.qosMinHops = 6;
  config.qosMaxHops = 12;
  return config;
}

std::vector<ProblemInstance> makePool(std::uint64_t seed) {
  std::vector<ProblemInstance> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const Span span("tree.generate", static_cast<std::int64_t>(i));
    pool.push_back(generateInstance(scaleProfile(), seed, i));
  }
  return pool;
}

std::string digestOf(const std::vector<ProblemInstance>& pool) {
  Digest d;
  for (const ProblemInstance& inst : pool) d.instance(inst);
  return d.hex();
}

/// Every answer of one operation.
struct Answers {
  std::optional<Placement> closest, multiple, multipleDp, qos;
  StreamCountResult streamClosest, streamMultiple, streamQos;
  FrontierStats frontier;  ///< merged over the three frontier DPs (traced only)
};

/// One operation. Frontier telemetry is only collected when traced, so the
/// timed calls are exactly what treeplace_solve makes.
Answers solveAll(const ProblemInstance& inst, std::int64_t op, bool telemetry) {
  Answers a;
  FrontierStats closestStats, dpStats, qosStats;
  FrontierStreamOptions so;
  so.widthCap = kWidthCap;
  const Span root("instance", op);
  {
    const Span span("exact.closest", op);
    a.closest = solveClosestHomogeneous(inst, telemetry ? &closestStats : nullptr);
  }
  {
    const Span span("exact.multiple", op);
    a.multiple = solveMultipleHomogeneous(inst);
  }
  {
    const Span span("exact.multiple_dp", op);
    a.multipleDp = solveMultipleHomogeneousDP(inst, telemetry ? &dpStats : nullptr);
  }
  {
    const Span span("exact.qos", op);
    a.qos = solveClosestHomogeneousQos(inst, telemetry ? &qosStats : nullptr);
  }
  {
    const Span span("stream.closest", op);
    a.streamClosest = countClosestHomogeneousStreaming(inst, so);
  }
  {
    const Span span("stream.multiple", op);
    a.streamMultiple = countMultipleHomogeneousStreaming(inst, so);
  }
  {
    const Span span("stream.qos", op);
    a.streamQos = countClosestQosStreaming(inst, so);
  }
  a.frontier = closestStats;
  a.frontier.merge(dpStats);
  a.frontier.merge(qosStats);
  return a;
}

long count(const std::optional<Placement>& p) {
  return p ? static_cast<long>(p->replicaCount()) : -1;
}

/// The replica counts that must repeat exactly on every pass.
std::vector<long> signature(const Answers& a) {
  const auto sc = [](const StreamCountResult& r) { return r.feasible ? static_cast<long>(r.replicas) : -1; };
  return {count(a.closest), count(a.multiple), count(a.multipleDp), count(a.qos),
          sc(a.streamClosest), sc(a.streamMultiple), sc(a.streamQos)};
}

/// The output checks of one instance's answers; returns the failures.
std::vector<std::string> check(const ProblemInstance& inst, const Answers& a) {
  std::vector<std::string> bad;
  ValidationOptions blind;
  blind.checkQos = false;
  blind.checkBandwidth = false;
  ValidationOptions qos;
  qos.checkBandwidth = false;
  if (!a.closest || !a.multiple || !a.multipleDp || !a.qos) {
    bad.push_back("an exact solver reported the feasible profile infeasible");
    return bad;
  }
  if (!isValidPlacement(inst, *a.closest, Policy::Closest, blind)) bad.push_back("Closest placement invalid");
  if (!isValidPlacement(inst, *a.multiple, Policy::Multiple, blind)) bad.push_back("Multiple 3-pass placement invalid");
  if (!isValidPlacement(inst, *a.multipleDp, Policy::Multiple, blind)) bad.push_back("Multiple DP placement invalid");
  if (!isValidPlacement(inst, *a.qos, Policy::Closest, qos)) bad.push_back("ClosestQos placement invalid");
  const long c = count(a.closest), m = count(a.multiple), md = count(a.multipleDp), q = count(a.qos);
  if (m != md) bad.push_back("3-pass count " + std::to_string(m) + " != Multiple DP count " + std::to_string(md));
  if (!(m <= c && c <= q)) bad.push_back("policy order Multiple <= Closest <= ClosestQos broken");
  // Streaming: floor <= exact <= capped, equality when no merge was capped.
  // The QoS streamer's floor is not certified, so only its upper side counts.
  const auto bracket = [&](const StreamCountResult& r, long exact, bool floorCertified,
                           const char* name) {
    if (!r.feasible) {
      bad.push_back(std::string(name) + " streaming reported infeasible");
      return;
    }
    if (floorCertified && r.replicasFloor() > exact) bad.push_back(std::string(name) + " streaming floor above the exact count");
    if (r.replicas < exact) bad.push_back(std::string(name) + " streaming count below the exact count");
    if (r.stats.exact && r.replicas != exact) bad.push_back(std::string(name) + " uncapped streaming count differs");
  };
  bracket(a.streamClosest, c, true, "Closest");
  bracket(a.streamMultiple, md, true, "Multiple");
  bracket(a.streamQos, q, false, "ClosestQos");
  return bad;
}

}  // namespace

void runScale(const RunConfig& cfg, Report& report) {
  report.referenceDigest = digestOf(makePool(kReferenceSeed));

  tracer::setEnabled(cfg.trace);
  std::vector<ProblemInstance> pool;
  const double setupS = timedSetup(
      [&] {
        pool.clear();
        tracer::clear();
      },
      [&] { pool = makePool(cfg.seed); });
  const auto setupSpans = tracer::summarize();
  tracer::setEnabled(false);
  report.inputDigest = digestOf(pool);

  // ---------------------------------------------------------------- timed
  // Round-robin over the pool until the time is up; an instance's answers
  // are checked on its first pass (outside the timed call) and must repeat
  // exactly afterwards.
  std::vector<double> opMs;
  std::vector<std::vector<double>> perInstanceMs(kPool);
  std::vector<std::vector<long>> signatures(kPool);
  const auto start = Clock::now();
  for (std::size_t n = 0; n == 0 || msSince(start) < 1000.0 * cfg.seconds; ++n) {
    const std::size_t i = n % kPool;
    const auto t0 = Clock::now();
    Answers a = solveAll(pool[i], static_cast<std::int64_t>(i), false);
    const double ms = msSince(t0);
    opMs.push_back(ms);
    perInstanceMs[i].push_back(ms);
    if (n < kPool) {
      for (const std::string& what : check(pool[i], a))
        report.fail("instance " + std::to_string(i) + ": " + what);
      signatures[i] = signature(a);
    } else if (signature(a) != signatures[i]) {
      report.fail("instance " + std::to_string(i) + ": answers changed between passes");
    }
  }
  const double wallMs = msSince(start);
  const double peakRss = peakRssMb();  // before anything but the timed loop allocates
  report.attempted = opMs.size();

  const Tail tail = tailOf(opMs, kTailPct);
  report.line(std::to_string(opMs.size()) + " instances at s=" + std::to_string(kSize) + ": p50 " +
              fmt(medianOf(opMs)) + " ms, p" + fmt(tail.percentile, 1) + " " + fmt(tail.valueMs) +
              " ms (" + std::to_string(tail.beyond) + " beyond)");
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
  std::size_t merged = 0, peakWidth = 0, arenaBytes = 0, pairs = 0, traced = 0;
  for (std::size_t i = 0; i < kPool; ++i) {
    if (perInstanceMs[i].empty()) continue;  // not reached in the timed window
    ++traced;
    const auto t0 = Clock::now();
    const Answers a = solveAll(pool[i], static_cast<std::int64_t>(i), true);
    tracedMs += msSince(t0);
    untracedMs += medianOf(perInstanceMs[i]);
    if (signature(a) != signatures[i]) report.fail("traced answers differ on instance " + std::to_string(i));
    merged += a.frontier.entriesMerged;
    peakWidth = std::max(peakWidth, a.frontier.peakWidth);
    arenaBytes = std::max(arenaBytes, a.frontier.arenaBytes);
    pairs += a.streamClosest.stats.pairsMerged + a.streamMultiple.stats.pairsMerged +
             a.streamQos.stats.pairsMerged;
  }
  tracer::setEnabled(false);
  const auto spans = tracer::summarize();
  const auto mean = [&](const char* name) { return tracer::stats(spans, name).meanMs(); };
  const double n = static_cast<double>(traced);
  emitLayerMetrics(report, {
      {"exact.closest_ms", mean("exact.closest")},
      {"exact.multiple_ms", mean("exact.multiple")},
      {"exact.multiple_dp_ms", mean("exact.multiple_dp")},
      {"exact.qos_ms", mean("exact.qos")},
      {"frontier.entries_merged", static_cast<double>(merged) / n},
      {"frontier.peak_width", static_cast<double>(peakWidth)},
      {"frontier.arena_bytes", static_cast<double>(arenaBytes)},
      {"stream.closest_ms", mean("stream.closest")},
      {"stream.multiple_ms", mean("stream.multiple")},
      {"stream.qos_ms", mean("stream.qos")},
      {"stream.pairs_merged", static_cast<double>(pairs) / n},
      {"tree.generate_ms", tracer::stats(setupSpans, "tree.generate").meanMs()},
      {"trace.overhead_pct", 100.0 * (tracedMs / untracedMs - 1.0)},
  });
  report.line("tracing overhead: " + fmt(untracedMs, 1) + " ms untraced (per-instance medians) vs " +
              fmt(tracedMs, 1) + " ms traced; instance self time " +
              fmt(tracer::stats(spans, "instance").selfMs / n, 4) + " ms");
}

}  // namespace perfbench

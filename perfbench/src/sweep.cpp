// Workload `sweep`: the paper's Section 7.2 plan at paper scale — 30 trees
// per lambda in 0.1..0.9, 15 <= s <= 400, fanout-2 skeleton, refined lower
// bound with 200 B&B nodes — as one homogeneous (Figs 9/10) and one
// heterogeneous (Figs 11/12) family, evaluated in rounds of both until the
// time is up, each round on the families of a successive seed. Instances
// are generated exactly as runExperiment generates them
// and evaluated with its per-instance evaluateInstance on one ThreadPool of
// every core, so each instance's latency is visible; a reduced plan is
// checked against runExperiment itself after the timed window.

#include <algorithm>
#include <thread>

#include "core/validate.hpp"
#include "experiments/batch_driver.hpp"
#include "experiments/runner.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "tree/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr double kTailPct = 99.0;

ExperimentPlan paperPlan(bool heterogeneous, std::uint64_t seed) {
  ExperimentPlan plan;
  plan.treesPerLambda = 30;
  plan.generator.minSize = 15;
  plan.generator.maxSize = 400;
  plan.generator.heterogeneous = heterogeneous;
  plan.generator.unitCosts = !heterogeneous;  // Replica Counting vs Replica Cost
  plan.generator.maxChildren = 2;
  plan.lbMaxNodes = 200;
  plan.seed = seed;
  return plan;
}

/// The instance runExperiment evaluates at flat index `flat` of `plan`.
ProblemInstance planInstance(const ExperimentPlan& plan, std::size_t flat) {
  GeneratorConfig config = plan.generator;
  config.lambda = plan.lambdas[flat / static_cast<std::size_t>(plan.treesPerLambda)];
  return generateInstance(config, plan.seed, flat);
}

std::size_t planSize(const ExperimentPlan& plan) {
  return plan.lambdas.size() * static_cast<std::size_t>(plan.treesPerLambda);
}

struct Family {
  ExperimentPlan plan;
  std::vector<ProblemInstance> instances;
};

/// The homogeneous and the heterogeneous family of one seed.
std::vector<Family> makeFamilies(std::uint64_t seed, ThreadPool* pool) {
  std::vector<Family> families;
  for (const bool het : {false, true}) {
    Family f{paperPlan(het, seed), {}};
    f.instances.resize(planSize(f.plan));
    families.push_back(std::move(f));
  }
  for (Family& f : families) {
    BatchOptions batch;
    batch.pool = pool;
    if (pool == nullptr) batch.threads = 1;
    runBatch(f.instances.size(), [&](std::size_t i, BatchArenas&) {
      const Span span("tree.generate", static_cast<std::int64_t>(i));
      f.instances[i] = planInstance(f.plan, i);
    }, batch);
  }
  return families;
}

std::string digestOf(const std::vector<Family>& families) {
  Digest d;
  for (const Family& f : families) {
    d.value(f.plan.seed);
    for (const ProblemInstance& inst : f.instances) d.instance(inst);
  }
  return d.hex();
}

/// The per-instance fields runExperiment aggregates, for equality checks.
bool sameOutcome(const TreeOutcome& a, const TreeOutcome& b) {
  if (a.lpFeasible != b.lpFeasible || a.lowerBound != b.lowerBound ||
      a.lbExact != b.lbExact || a.mbWinner != b.mbWinner)
    return false;
  for (std::size_t k = 0; k < kSeriesCount; ++k)
    if (a.series[k].success != b.series[k].success || a.series[k].valid != b.series[k].valid ||
        a.series[k].cost != b.series[k].cost)
      return false;
  return true;
}

struct FamilyRun {
  std::vector<TreeOutcome> outcomes;
  std::vector<double> instanceMs;
  double wallMs = 0.0;
};

FamilyRun evaluateFamily(const Family& f, ThreadPool& pool) {
  FamilyRun run;
  run.outcomes.resize(f.instances.size());
  run.instanceMs.resize(f.instances.size());
  BatchOptions batch;
  batch.pool = &pool;
  const auto t0 = Clock::now();
  runBatch(f.instances.size(), [&](std::size_t i, BatchArenas& arenas) {
    const auto ti = Clock::now();
    run.outcomes[i] = evaluateInstance(f.instances[i], f.plan.lbMaxNodes, &arenas);
    run.instanceMs[i] = msSince(ti);
  }, batch);
  run.wallMs = msSince(t0);
  return run;
}

/// evaluateInstance's steps, called one by one from here with a span around
/// each layer call.
struct TracedInstance {
  TreeOutcome outcome;
  long lbNodes = 0;
};

TracedInstance evaluateTraced(const ProblemInstance& instance, long lbMaxNodes,
                              BatchArenas& arenas, std::int64_t op) {
  const Span root("instance", op);
  TracedInstance t;
  TreeOutcome& outcome = t.outcome;
  outcome.vertices = static_cast<int>(instance.tree.vertexCount());
  outcome.lambda = instance.load();
  double bestCost = lp::kInfinity;
  std::size_t k = 0;
  for (const HeuristicInfo& h : allHeuristics()) {
    std::optional<Placement> placement;
    {
      const Span span("heuristics", op);
      placement = h.run(instance);
    }
    auto& slot = outcome.series[k++];
    if (!placement) continue;
    slot.success = true;
    slot.cost = placement->storageCost(instance);
    {
      const Span span("validate", op);
      slot.valid = isValidPlacement(instance, *placement, h.policy);
    }
    bestCost = std::min(bestCost, slot.cost);
  }
  std::optional<MixedBestResult> mb;
  {
    const Span span("mixed_best", op);
    mb = runMixedBest(instance);
  }
  if (mb) {
    auto& slot = outcome.series[kMixedBestIndex];
    slot.success = true;
    slot.cost = mb->cost;
    {
      const Span span("validate", op);
      slot.valid = isValidPlacement(instance, mb->placement, Policy::Multiple);
    }
    outcome.mbWinner = std::string(mb->winner);
    bestCost = std::min(bestCost, slot.cost);
  }
  LowerBoundOptions lbo;
  lbo.maxNodes = lbMaxNodes;
  lbo.knownUpperBound = bestCost;
  lbo.boundsArena = &arenas.bounds;
  LowerBoundResult lb;
  {
    const Span span("lower_bound", op);
    lb = refinedLowerBound(instance, lbo);
  }
  outcome.lpFeasible = lb.lpFeasible;
  outcome.lowerBound = lb.lpFeasible ? lb.bound : 0.0;
  outcome.lbExact = lb.exact;
  t.lbNodes = lb.nodesExplored;
  return t;
}

}  // namespace

void runSweep(const RunConfig& cfg, Report& report) {
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  report.referenceDigest = digestOf(makeFamilies(kReferenceSeed, nullptr));

  tracer::setEnabled(cfg.trace);
  std::optional<ThreadPool> pool;
  std::vector<Family> families;
  const double setupS = timedSetup(
      [&] {
        families.clear();
        pool.reset();
        tracer::clear();
      },
      [&] {
        pool.emplace(workers);
        families = makeFamilies(cfg.seed, &*pool);
      });
  const auto setupSpans = tracer::summarize();
  tracer::setEnabled(false);
  report.inputDigest = digestOf(families);

  // ---------------------------------------------------------------- timed
  // Whole rounds (both families) until the time is up, so every run weighs
  // the two families alike. Round 0 evaluates the set-up's families; each
  // later round draws fresh families from the seed first (untimed), so the
  // figures rest on thousands of distinct instances, not one family
  // repeated. Claimed placements are checked as each round ends, outside
  // the timed evaluation.
  std::vector<std::optional<FamilyRun>> runs(families.size());  // round 0
  std::vector<double> instanceMs;
  double wallMs = 0.0, busyMs = 0.0;
  std::size_t evaluated = 0, invalid = 0;
  const auto start = Clock::now();
  for (std::uint64_t round = 0; round == 0 || msSince(start) < 1000.0 * cfg.seconds; ++round) {
    const std::vector<Family> fresh =
        round == 0 ? std::vector<Family>{} : makeFamilies(Prng(cfg.seed).split(round).next(), &*pool);
    const std::vector<Family>& current = round == 0 ? families : fresh;
    for (std::size_t fi = 0; fi < current.size(); ++fi) {
      FamilyRun run = evaluateFamily(current[fi], *pool);
      wallMs += run.wallMs;
      evaluated += run.outcomes.size();
      for (const double ms : run.instanceMs) busyMs += ms;
      instanceMs.insert(instanceMs.end(), run.instanceMs.begin(), run.instanceMs.end());
      for (const TreeOutcome& o : run.outcomes)
        for (const auto& series : o.series)
          if (series.success && !series.valid) {
            ++invalid;
            break;
          }
      if (round == 0) runs[fi] = std::move(run);
    }
  }
  const double peakRss = peakRssMb();  // before the checks allocate

  // ---------------------------------------------------------------- checks
  // relative_cost is round 0's, so it does not depend on how many rounds ran.
  report.attempted = evaluated;
  double rcostSum = 0.0;
  std::size_t feasible = 0;
  for (const auto& run : runs) {
    for (const TreeOutcome& o : run->outcomes) {
      if (o.lpFeasible) {
        ++feasible;
        const auto& mb = o.series[kMixedBestIndex];
        if (mb.success && mb.cost > 0.0) rcostSum += o.lowerBound / mb.cost;
      }
    }
  }
  report.failed += invalid;
  if (invalid) report.line("CHECK FAILED: " + std::to_string(invalid) + " instances with an invalid claimed placement");
  {
    // The per-instance path must be runExperiment's: a reduced plan of the
    // same seed family through runExperiment against evaluateInstance.
    ExperimentPlan small = families[0].plan;
    small.treesPerLambda = 2;
    const ExperimentResult reference = runExperiment(small, &*pool);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      TreeOutcome mine = evaluateInstance(planInstance(small, i), small.lbMaxNodes);
      mine.lambda = reference.outcomes[i].lambda;
      if (!sameOutcome(mine, reference.outcomes[i])) ++differ;
    }
    if (differ) report.fail(std::to_string(differ) + " outcomes differ from runExperiment");
  }

  const double opsPerS = 1000.0 * static_cast<double>(evaluated) / wallMs;
  const double relativeCost = feasible ? rcostSum / static_cast<double>(feasible) : 0.0;
  const Tail tail = tailOf(instanceMs, kTailPct);
  const double efficiency = busyMs / (static_cast<double>(pool->threadCount()) * wallMs);
  report.line("evaluated " + std::to_string(evaluated) + " instances in " + fmt(wallMs, 1) +
              " ms of fleet wall on " + std::to_string(pool->threadCount()) + " workers: " +
              fmt(opsPerS, 1) + " inst/s, p50 " + fmt(medianOf(instanceMs)) + " ms, p" +
              fmt(tail.percentile, 1) + " " + fmt(tail.valueMs) + " ms (" +
              std::to_string(tail.beyond) + " beyond)");
  report.line("MixedBest relative cost " + fmt(relativeCost, 6) + " over " +
              std::to_string(feasible) + " LP-feasible instances");
  report.line("fail_ratio " + fmt(static_cast<double>(report.failed) / static_cast<double>(evaluated), 6));

  if (!cfg.trace) {
    report.metric("p50_ms", medianOf(instanceMs), "ms");
    report.metric("tail_ms", tail.valueMs, "ms");
    report.metric("ops_per_s", opsPerS, "1/s");
    report.metric("relative_cost", relativeCost, "ratio");
    report.metric("setup_s", setupS, "s");
    report.metric("peak_rss_mb", peakRss, "MB");
    return;
  }

  // ---------------------------------------------------------------- traced
  // One more round, every layer call wrapped in a span.
  double tracedWallMs = 0.0, untracedWallMs = 0.0;
  long lbNodes = 0;
  std::size_t lbExact = 0, tracedCount = 0;
  tracer::setEnabled(true);
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const Family& f = families[fi];
    std::vector<TracedInstance> out(f.instances.size());
    BatchOptions batch;
    batch.pool = &*pool;
    const auto t0 = Clock::now();
    runBatch(f.instances.size(), [&](std::size_t i, BatchArenas& arenas) {
      out[i] = evaluateTraced(f.instances[i], f.plan.lbMaxNodes, arenas,
                              static_cast<std::int64_t>(fi * f.instances.size() + i));
    }, batch);
    tracedWallMs += msSince(t0);
    untracedWallMs += runs[fi]->wallMs;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].outcome.lambda = runs[fi]->outcomes[i].lambda;
      if (!sameOutcome(out[i].outcome, runs[fi]->outcomes[i]))
        report.fail("traced evaluation differs at instance " + std::to_string(i));
      lbNodes += out[i].lbNodes;
      if (out[i].outcome.lbExact) ++lbExact;
      ++tracedCount;
    }
  }
  tracer::setEnabled(false);
  const auto spans = tracer::summarize();
  const auto perInstance = [&](const char* name) {
    return tracer::stats(spans, name).totalMs / static_cast<double>(tracedCount);
  };
  emitLayerMetrics(report, {
      {"heuristics.ms", perInstance("heuristics")},
      {"mixed_best.ms", perInstance("mixed_best")},
      {"lower_bound.ms", perInstance("lower_bound")},
      {"lower_bound.nodes", static_cast<double>(lbNodes) / static_cast<double>(tracedCount)},
      {"lower_bound.exact_share", static_cast<double>(lbExact) / static_cast<double>(tracedCount)},
      {"validate.ms", tracer::stats(spans, "validate").meanMs()},
      {"batch.efficiency", efficiency},
      {"tree.generate_ms", tracer::stats(setupSpans, "tree.generate").meanMs()},
      {"trace.overhead_pct", 100.0 * (tracedWallMs / untracedWallMs - 1.0)},
  });
  report.line("tracing overhead: one round " + fmt(untracedWallMs, 1) + " ms untraced vs " +
              fmt(tracedWallMs, 1) + " ms traced; instance self time " +
              fmt(tracer::stats(spans, "instance").selfMs / static_cast<double>(tracedCount), 4) +
              " ms");
}

}  // namespace perfbench

#pragma once

#include <iosfwd>
#include <string>

#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "experiments/runner.hpp"
#include "lp/workspace.hpp"

namespace treeplace {

/// Render the Figure 9/11 series (percentage of trees with a solution per
/// heuristic, plus the LP feasibility line) as a fixed-width table.
std::string renderSuccessTable(const ExperimentResult& result);

/// Render the Figure 10/12 series (relative cost = LP bound / heuristic cost,
/// averaged over LP-feasible trees).
std::string renderRelativeCostTable(const ExperimentResult& result);

/// MixedBest composition: which heuristic provided MB's winning placement,
/// per lambda (the ablation the paper's Section 7.3 discusses in prose).
std::string renderMixedBestWinners(const ExperimentResult& result);

/// Dump both series in gnuplot-friendly CSV:
///   kind,lambda,<series...>   with kind in {success,rcost}.
void writeCsv(std::ostream& out, const ExperimentResult& result);

/// Dump both series as machine-readable JSON (one object per lambda with
/// success rates, relative costs and LP feasibility) so the perf/quality
/// trajectory can be tracked across PRs.
void writeJson(std::ostream& out, const ExperimentResult& result);

/// One-line human rendering of the per-solve frontier telemetry
/// (core/frontier.hpp): peak width, arena footprint, merged candidate pairs.
std::string renderFrontierStats(const FrontierStats& stats);

/// Human rendering of a byte count with a binary suffix ("37.2 MiB");
/// benches use it for peak-RSS and slab-footprint lines.
std::string renderByteSize(std::size_t bytes);

/// One-line human rendering of a streaming frontier solve
/// (core/frontier_stream.hpp): peak width, slab high-water, and whether the
/// width cap fired (answers become achievable upper bounds when it does).
struct FrontierStreamStats;  // core/frontier_stream.hpp
class JsonWriter;            // support/json.hpp
std::string renderFrontierStreamStats(const FrontierStreamStats& stats);

/// Emit the streaming telemetry as a JSON object {"peak_width":..,
/// "peak_stack_entries":.., "peak_bytes":.., "convolutions":..,
/// "pairs_merged":.., "capped_merges":.., "dropped_points":..,
/// "cap_gap_bound":.., "exact":..}.
void writeFrontierStreamStats(JsonWriter& json, const FrontierStreamStats& stats);

/// One-line human rendering of the incremental layer's frontier-cache
/// telemetry (online/incremental.hpp): hit rate, invalidation counts, and
/// the persistent arena footprint.
struct FrontierCacheStats;  // online/incremental.hpp
std::string renderFrontierCacheStats(const FrontierCacheStats& stats);

/// Emit the cache telemetry as a JSON object {"tracked_vertices":..,
/// "hits":.., "misses":.., "hit_rate":.., "invalidations":..,
/// "global_invalidations":.., "compactions":.., "arena_entries":..,
/// "arena_bytes":..} into an open writer position; the mutation bench
/// commits it to BENCH_table1.json so cache effectiveness is tracked per PR.
void writeFrontierCacheStats(JsonWriter& json, const FrontierCacheStats& stats);

/// Emit the telemetry as a JSON object {"peak_width":..,"arena_bytes":..,
/// "entries_merged":..,"convolutions":..} into an open writer position.
class JsonWriter;  // support/json.hpp
void writeFrontierStats(JsonWriter& json, const FrontierStats& stats);

/// One-line human rendering of a placement's storage telemetry
/// (core/placement.hpp): pool footprint, share/assign counts, and heap
/// allocations.
std::string renderPlacementStats(const PlacementStats& stats);

/// Emit the telemetry as a JSON object {"pool_bytes":..,"shares":..,
/// "assign_calls":..,"heap_allocs":..,"hole_slots":..} into an open writer
/// position, so benches can track allocations across changes.
void writePlacementStats(JsonWriter& json, const PlacementStats& stats);

/// One-line human rendering of a warm-started solve sequence's telemetry
/// (lp/workspace.hpp): solve mix, basis reuse, bound flips, and — for the
/// worker-pool engine — workers, steals, and summed idle time.
std::string renderWarmStartStats(const lp::WarmStartStats& stats);

/// Emit the telemetry as the `bb_warm` JSON object ({"warm_solves":..,
/// "basis_reuse_rate":.., "workers":.., "steal_count":.., "idle_ms":..,
/// ...}) into an open writer position; bench_table1_complexity commits it to
/// BENCH_table1.json so the reuse/parallelism trajectory is tracked per PR.
void writeWarmStartStats(JsonWriter& json, const lp::WarmStartStats& stats);

}  // namespace treeplace

#include "experiments/report.hpp"

#include <ostream>
#include <sstream>

#include "core/frontier_stream.hpp"
#include "online/incremental.hpp"
#include "support/csv.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace treeplace {
namespace {

std::vector<std::string> headerWith(std::initializer_list<const char*> extra) {
  std::vector<std::string> header{"lambda"};
  for (const auto& name : seriesNames()) header.push_back(name);
  for (const char* e : extra) header.emplace_back(e);
  return header;
}

}  // namespace

std::string renderSuccessTable(const ExperimentResult& result) {
  TextTable table;
  table.setHeader(headerWith({"LP"}));
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{formatDouble(agg.lambda, 1)};
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      row.push_back(formatPercent(
          agg.trees > 0 ? static_cast<double>(agg.successCount[k]) / agg.trees : 0.0));
    }
    row.push_back(formatPercent(
        agg.trees > 0 ? static_cast<double>(agg.lpFeasibleCount) / agg.trees : 0.0));
    table.addRow(std::move(row));
  }
  return table.render();
}

std::string renderRelativeCostTable(const ExperimentResult& result) {
  TextTable table;
  table.setHeader(headerWith({}));
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{formatDouble(agg.lambda, 1)};
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      // No LP-feasible tree at this lambda: the mean is undefined, not zero.
      row.push_back(agg.lpFeasibleCount > 0 ? formatDouble(agg.relativeCost[k], 3)
                                            : "-");
    }
    table.addRow(std::move(row));
  }
  return table.render();
}

std::string renderMixedBestWinners(const ExperimentResult& result) {
  TextTable table;
  table.setHeader({"lambda", "winners (heuristic x trees)"});
  for (const LambdaAggregate& agg : result.perLambda) {
    std::string cell;
    for (const auto& [name, count] : agg.mbWinners) {
      if (!cell.empty()) cell += "  ";
      cell += name + "x" + std::to_string(count);
    }
    table.addRow({formatDouble(agg.lambda, 1), cell.empty() ? "-" : cell});
  }
  return table.render(TextTable::Align::Left);
}

void writeCsv(std::ostream& out, const ExperimentResult& result) {
  CsvWriter csv(out);
  std::vector<std::string> header{"kind", "lambda"};
  for (const auto& name : seriesNames()) header.push_back(name);
  header.emplace_back("LP");
  csv.writeRow(header);
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{"success", CsvWriter::toCell(agg.lambda)};
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      row.push_back(CsvWriter::toCell(
          agg.trees > 0 ? static_cast<double>(agg.successCount[k]) / agg.trees : 0.0));
    row.push_back(CsvWriter::toCell(
        agg.trees > 0 ? static_cast<double>(agg.lpFeasibleCount) / agg.trees : 0.0));
    csv.writeRow(row);
  }
  for (const LambdaAggregate& agg : result.perLambda) {
    std::vector<std::string> row{"rcost", CsvWriter::toCell(agg.lambda)};
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      row.push_back(CsvWriter::toCell(agg.relativeCost[k]));
    row.emplace_back("");
    csv.writeRow(row);
  }
}

void writeJson(std::ostream& out, const ExperimentResult& result) {
  const auto names = seriesNames();
  JsonWriter json(out);
  json.beginObject();
  json.key("series").beginArray();
  for (const auto& name : names) json.value(name);
  json.endArray();
  json.key("per_lambda").beginArray();
  for (const LambdaAggregate& agg : result.perLambda) {
    json.beginObject();
    json.key("lambda").value(agg.lambda);
    json.key("trees").value(agg.trees);
    json.key("lp_feasible").value(agg.lpFeasibleCount);
    json.key("success").beginArray();
    for (std::size_t k = 0; k < kSeriesCount; ++k)
      json.value(agg.trees > 0
                     ? static_cast<double>(agg.successCount[k]) / agg.trees
                     : 0.0);
    json.endArray();
    json.key("relative_cost").beginArray();
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      if (agg.lpFeasibleCount > 0)
        json.value(agg.relativeCost[k]);
      else
        json.null();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  out << '\n';
}

std::string renderFrontierStats(const FrontierStats& stats) {
  std::ostringstream os;
  os << "peak frontier width " << stats.peakWidth << ", arena "
     << stats.arenaBytes / 1024 << " KiB, " << stats.entriesMerged
     << " pairs across " << stats.convolutions << " convolutions";
  return os.str();
}

void writeFrontierStats(JsonWriter& json, const FrontierStats& stats) {
  json.beginObject();
  json.key("peak_width").value(stats.peakWidth);
  json.key("arena_bytes").value(stats.arenaBytes);
  json.key("entries_merged").value(stats.entriesMerged);
  json.key("convolutions").value(stats.convolutions);
  json.endObject();
}

std::string renderByteSize(std::size_t bytes) {
  static const char* const suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  std::size_t s = 0;
  while (value >= 1024.0 && s + 1 < sizeof(suffixes) / sizeof(suffixes[0])) {
    value /= 1024.0;
    ++s;
  }
  std::ostringstream os;
  os << formatDouble(value, s == 0 ? 0 : 1) << ' ' << suffixes[s];
  return os.str();
}

std::string renderFrontierStreamStats(const FrontierStreamStats& stats) {
  std::ostringstream os;
  os << "peak width " << stats.peakWidth << ", slab high-water "
     << stats.peakStackEntries << " entries / " << renderByteSize(stats.peakBytes)
     << ", " << stats.pairsMerged << " pairs across " << stats.convolutions
     << " merges";
  if (stats.exact)
    os << ", exact";
  else
    os << ", " << stats.cappedMerges << " capped / " << stats.droppedPoints
       << " dropped (upper bound, gap <= " << stats.capGapBound << ")";
  return os.str();
}

void writeFrontierStreamStats(JsonWriter& json, const FrontierStreamStats& stats) {
  json.beginObject();
  json.key("peak_width").value(static_cast<std::int64_t>(stats.peakWidth));
  json.key("peak_stack_entries")
      .value(static_cast<std::int64_t>(stats.peakStackEntries));
  json.key("peak_bytes").value(static_cast<std::int64_t>(stats.peakBytes));
  json.key("convolutions").value(static_cast<std::int64_t>(stats.convolutions));
  json.key("pairs_merged").value(static_cast<std::int64_t>(stats.pairsMerged));
  json.key("capped_merges").value(static_cast<std::int64_t>(stats.cappedMerges));
  json.key("dropped_points")
      .value(static_cast<std::int64_t>(stats.droppedPoints));
  json.key("cap_gap_bound").value(stats.capGapBound);
  json.key("exact").value(stats.exact);
  json.endObject();
}

std::string renderFrontierCacheStats(const FrontierCacheStats& stats) {
  std::ostringstream os;
  os << stats.hits << " hits / " << stats.misses << " misses ("
     << static_cast<int>(stats.hitRate() * 100.0 + 0.5) << "% over "
     << stats.trackedVertices << " vertices), " << stats.invalidations
     << " invalidations (" << stats.globalInvalidations << " global), arena "
     << stats.arenaEntries << " entries / " << renderByteSize(stats.arenaBytes)
     << ", " << stats.compactions << " compactions";
  return os.str();
}

void writeFrontierCacheStats(JsonWriter& json, const FrontierCacheStats& stats) {
  json.beginObject();
  json.key("tracked_vertices")
      .value(static_cast<std::int64_t>(stats.trackedVertices));
  json.key("hits").value(static_cast<std::int64_t>(stats.hits));
  json.key("misses").value(static_cast<std::int64_t>(stats.misses));
  json.key("hit_rate").value(stats.hitRate());
  json.key("invalidations")
      .value(static_cast<std::int64_t>(stats.invalidations));
  json.key("global_invalidations")
      .value(static_cast<std::int64_t>(stats.globalInvalidations));
  json.key("compactions").value(static_cast<std::int64_t>(stats.compactions));
  json.key("arena_entries").value(static_cast<std::int64_t>(stats.arenaEntries));
  json.key("arena_bytes").value(static_cast<std::int64_t>(stats.arenaBytes));
  json.endObject();
}

std::string renderPlacementStats(const PlacementStats& stats) {
  std::ostringstream os;
  os << stats.shareCount << " shares in " << stats.poolBytes << " B pool ("
     << stats.holeSlots << " hole slots), " << stats.assignCalls << " assigns, "
     << stats.heapAllocs << " heap allocations";
  return os.str();
}

void writePlacementStats(JsonWriter& json, const PlacementStats& stats) {
  json.beginObject();
  json.key("pool_bytes").value(stats.poolBytes);
  json.key("shares").value(stats.shareCount);
  json.key("assign_calls").value(stats.assignCalls);
  json.key("heap_allocs").value(stats.heapAllocs);
  json.key("hole_slots").value(stats.holeSlots);
  json.endObject();
}

std::string renderWarmStartStats(const lp::WarmStartStats& stats) {
  std::ostringstream os;
  os << stats.warmSolves << " warm / " << stats.coldSolves << " cold solves ("
     << static_cast<int>(stats.basisReuseRate() * 100.0 + 0.5) << "% reuse), "
     << stats.dualIterations << " dual pivots, " << stats.boundFlips
     << " bound flips, tableau " << stats.tableauRows << "/"
     << stats.structuralRows;
  if (stats.etaCount > 0 || stats.refactorizations > 0 || stats.basisNnz > 0)
    os << "; sparse: " << stats.etaCount << " etas, " << stats.refactorizations
       << " refactorizations, " << stats.basisNnz << " basis nnz";
  if (stats.workers > 1)
    os << "; " << stats.workers << " workers, " << stats.stealCount
       << " steals, " << stats.idleMs << " ms idle";
  return os.str();
}

void writeWarmStartStats(JsonWriter& json, const lp::WarmStartStats& stats) {
  json.beginObject();
  json.key("warm_solves").value(static_cast<std::int64_t>(stats.warmSolves));
  json.key("cold_solves").value(static_cast<std::int64_t>(stats.coldSolves));
  json.key("basis_reuse_rate").value(stats.basisReuseRate());
  json.key("warm_already_optimal")
      .value(static_cast<std::int64_t>(stats.warmAlreadyOptimal));
  json.key("dual_iterations").value(static_cast<std::int64_t>(stats.dualIterations));
  json.key("dual_fallbacks").value(static_cast<std::int64_t>(stats.dualFallbacks));
  json.key("bound_flips").value(static_cast<std::int64_t>(stats.boundFlips));
  json.key("refactorizations")
      .value(static_cast<std::int64_t>(stats.refactorizations));
  json.key("eta_count").value(static_cast<std::int64_t>(stats.etaCount));
  json.key("basis_nnz").value(static_cast<std::int64_t>(stats.basisNnz));
  json.key("tableau_rows").value(stats.tableauRows);
  json.key("structural_rows").value(stats.structuralRows);
  json.key("workers").value(stats.workers);
  json.key("steal_count").value(static_cast<std::int64_t>(stats.stealCount));
  json.key("idle_ms").value(stats.idleMs);
  json.endObject();
}

}  // namespace treeplace

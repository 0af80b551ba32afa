#pragma once

#include "common.hpp"

namespace perfbench {

// Each workload builds its inputs from cfg.seed, runs its timed window with
// tracing off, checks every output outside that window, and fills `report`
// with the end-to-end metrics (cfg.trace == false) or the per-layer metrics
// of a traced pass over the same inputs (cfg.trace == true).
void runServe(const RunConfig& cfg, Report& report);
void runSweep(const RunConfig& cfg, Report& report);
void runScale(const RunConfig& cfg, Report& report);
void runMultitree(const RunConfig& cfg, Report& report);

/// Every per-layer metric the benchmark knows, with its unit, in output
/// order. A workload that does not call a layer reports 0 for its metrics.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layerMetrics();

/// Fill report.metrics with every name of layerMetrics(), taking values
/// from `values` (by name) and 0 for the rest.
void emitLayerMetrics(Report& report,
                      const std::vector<std::pair<std::string, double>>& values);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 11;

/// Median of kSetupReps timed runs of `build`, in seconds; `clear` (untimed)
/// drops the previous repetition's state first so memory never holds two
/// copies. The last repetition's state is what the workload goes on with.
template <typename Clear, typename Build>
double timedSetup(Clear&& clear, Build&& build) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupReps; ++r) {
    clear();
    const auto t0 = Clock::now();
    build();
    seconds.push_back(msSince(t0) / 1000.0);
  }
  return medianOf(seconds);
}

}  // namespace perfbench

// perfbench: one workload per process.
//
//   perfbench --workload=<serve|sweep|scale|multitree> --seed=<n>
//             --seconds=<n> --trace=<0|1> [--commit=<id>]
//
// Prints a host fingerprint, the workload's input digests and report lines,
// then as the last line one JSON object with the keys correct, attempted,
// failed and metrics. Exits 0 only when every output check passed; 2 on a
// malformed command line.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "support/cli.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<LayerMetric>& layerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"service.queue_ms.p50", "ms"},   {"service.queue_ms.p99", "ms"},
      {"service.serve_ms.p50", "ms"},   {"service.serve_ms.p99", "ms"},
      {"service.handoff_ms.p99", "ms"}, {"service.e2e_ms.p50", "ms"},
      {"service.e2e_ms.p99", "ms"},     {"service.peak_queue_depth", "count"},
      {"service.open_ms", "ms"},        {"gen.late_ms.p99", "ms"},
      {"delta.apply_ms.p50", "ms"},     {"delta.apply_ms.p99", "ms"},
      {"delta.touched", "count"},
      {"incremental.solve_ms.p50", "ms"}, {"incremental.solve_ms.p99", "ms"},
      {"incremental.hit_rate", "ratio"},  {"incremental.misses", "count"},
      {"incremental.compactions", "count"}, {"resilient.exact_share", "ratio"},
      {"warm_ilp.solve_ms.p50", "ms"},  {"warm_ilp.solve_ms.p99", "ms"},
      {"warm_ilp.nodes", "count"},      {"warm_ilp.seeded_share", "ratio"},
      {"lp.dual_pivots", "count"},      {"lp.refactorizations", "count"},
      {"heuristics.ms", "ms"},          {"mixed_best.ms", "ms"},
      {"lower_bound.ms", "ms"},         {"lower_bound.nodes", "count"},
      {"lower_bound.exact_share", "ratio"},
      {"validate.ms", "ms"},            {"batch.efficiency", "ratio"},
      {"exact.closest_ms", "ms"},       {"exact.multiple_ms", "ms"},
      {"exact.multiple_dp_ms", "ms"},   {"exact.qos_ms", "ms"},
      {"frontier.entries_merged", "count"}, {"frontier.peak_width", "count"},
      {"frontier.arena_bytes", "bytes"},
      {"stream.closest_ms", "ms"},      {"stream.multiple_ms", "ms"},
      {"stream.qos_ms", "ms"},          {"stream.pairs_merged", "count"},
      {"multitree.solve_ms", "ms"},     {"multitree.dfs_nodes", "count"},
      {"multitree.dp_resolves", "count"}, {"multitree.dirty_recomputes", "count"},
      {"multitree.lexico_tests", "count"}, {"multitree.dirty_per_resolve", "ratio"},
      {"tree.generate_ms", "ms"},       {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void emitLayerMetrics(Report& report,
                      const std::vector<std::pair<std::string, double>>& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& m : layerMetrics()) known = known || name == m.name;
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
  for (const LayerMetric& m : layerMetrics()) {
    double v = 0.0;
    for (const auto& [name, value] : values)
      if (name == m.name) v = value;
    report.metric(m.name, v, m.unit);
  }
}

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) && eax >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

long cacheBytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string hostFingerprint(const std::string& commit) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << jsonString(cpuModel())
     << ", \"l2_bytes\": " << cacheBytes(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << cacheBytes(_SC_LEVEL3_CACHE_SIZE)
     << ", \"compiler\": " << jsonString(compiler)
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << jsonString(commit) << "}";
  return os.str();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Only --name=value options from this list are accepted.
void rejectUnknown(int argc, char** argv) {
  static const std::set<std::string> known = {"workload", "seed", "seconds", "trace", "commit"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos ||
        known.count(arg.substr(2, eq - 2)) == 0)
      throw treeplace::OptionError("unknown or malformed argument '" + arg +
                                   "' (expected --workload=, --seed=, --seconds=, --trace=)");
  }
}

RunConfig parse(int argc, char** argv) {
  rejectUnknown(argc, argv);
  // A prefix no environment sets: flags come from the command line only.
  const treeplace::Options options(argc, argv, "PERFBENCH_FLAG_ONLY_");
  RunConfig cfg;
  cfg.workload = options.getOr("workload", "");
  const std::int64_t seed = options.getIntOr("seed", -1);
  const std::int64_t seconds = options.getIntOr("seconds", 10);
  const std::int64_t trace = options.getIntOr("trace", 0);
  if (cfg.workload != "serve" && cfg.workload != "sweep" && cfg.workload != "scale" &&
      cfg.workload != "multitree")
    throw treeplace::OptionError("--workload must be one of serve, sweep, scale, multitree");
  if (seed < 0) throw treeplace::OptionError("--seed must be given as a non-negative integer");
  if (seconds < 1 || seconds > 600) throw treeplace::OptionError("--seconds must be in [1, 600]");
  if (trace != 0 && trace != 1) throw treeplace::OptionError("--trace must be 0 or 1");
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.seconds = static_cast<int>(seconds);
  cfg.trace = trace == 1;
  return cfg;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string commit;
  try {
    cfg = parse(argc, argv);
    commit = treeplace::Options(argc, argv, "PERFBENCH_FLAG_ONLY_").getOr("commit", "unknown");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  Report report;
  try {
    if (cfg.workload == "serve") runServe(cfg, report);
    else if (cfg.workload == "sweep") runSweep(cfg, report);
    else if (cfg.workload == "scale") runScale(cfg, report);
    else runMultitree(cfg, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload " << cfg.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  std::cout << "host " << hostFingerprint(commit) << '\n';
  std::cout << "input_digest " << cfg.workload << " seed=" << cfg.seed << " " << report.inputDigest << '\n';
  std::cout << "reference_digest " << cfg.workload << " seed=" << kReferenceSeed << " "
            << report.referenceDigest << '\n';
  for (const std::string& line : report.lines) std::cout << "# " << line << '\n';

  bool finite = true;
  std::string metrics;
  for (const Metric& m : report.metrics) {
    finite = finite && std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += jsonString(m.name) + ": {\"value\": " + number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": " + jsonString(m.unit) + "}";
  }
  if (!finite) std::cout << "# CHECK FAILED: a metric is not finite\n";
  const bool correct = finite && report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, report.attempted)
            << ", \"failed\": " << report.failed << ", \"metrics\": {" << metrics << "}}"
            << std::endl;
  return correct ? 0 : 1;
}

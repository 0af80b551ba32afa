#pragma once

// Shared plumbing of the perfbench workloads: clocks, sample summaries, the
// input digest, the in-memory span tracer and the report every workload
// fills. Nothing here reaches into the library's internals; the tracer only
// wraps calls the workloads make into treeplace's public functions.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/placement.hpp"
#include "online/delta.hpp"
#include "tree/multitree.hpp"
#include "tree/problem.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double msSince(Clock::time_point t0) { return msBetween(t0, Clock::now()); }

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Seed whose input digest is pinned in perfbench/input_digests.json.
inline constexpr std::uint64_t kReferenceSeed = 1;

// ------------------------------------------------------------- samples

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentileOf(std::vector<double> values, double p);
double medianOf(std::vector<double> values);

/// A tail percentile together with how many samples lie beyond it. The
/// workload fixes the percentile (the highest one that keeps at least ten
/// samples beyond it at the workload's usual sample count), so the same
/// quantity is compared across commits even when a faster build collects
/// more samples.
struct Tail {
  double percentile = 0.0;
  double valueMs = 0.0;
  std::size_t beyond = 0;
};
Tail tailOf(const std::vector<double>& values, double percentile);

// ------------------------------------------------------------- digest

/// FNV-1a (word-wise) over every generated input, so a change to the
/// generator or to the benchmark's own delta drawer shows as a different
/// workload rather than passing unnoticed.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void instance(const treeplace::ProblemInstance& instance);
  void multitree(const treeplace::MultitreeInstance& instance);
  void delta(const treeplace::InstanceDelta& delta);
  /// Replica set plus every client's shares, in stored order.
  void placement(const treeplace::Placement& placement);
  std::uint64_t get() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are kept per thread and read once the run
/// ends; when tracing is off a Span costs one relaxed load.
struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  std::int64_t op = -1;        ///< request or instance id
  Clock::time_point start;
  Clock::time_point end;
};

struct SpanStats {
  std::vector<double> ms;  ///< duration of every span of the name
  double selfMs = 0.0;     ///< summed duration minus time covered by children
  double totalMs = 0.0;
  double meanMs() const { return ms.empty() ? 0.0 : totalMs / static_cast<double>(ms.size()); }
};

namespace tracer {
void setEnabled(bool on);
bool enabled();
/// Drop every recorded span (all threads).
void clear();
/// Per-name durations and self times over every span recorded so far.
/// Call only when no traced thread is running.
std::vector<std::pair<std::string, SpanStats>> summarize();
SpanStats stats(const std::vector<std::pair<std::string, SpanStats>>& all,
                std::string_view name);
}  // namespace tracer

class Span {
 public:
  Span(const char* name, std::int64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

// ------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the counts for the result line, the
/// metrics of the requested mode and the human-readable lines printed above it.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::string inputDigest;
  std::string referenceDigest;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void line(std::string text) { lines.push_back(std::move(text)); }
  /// Record a failed output check (outside any timed window).
  void fail(const std::string& what);
};

/// Peak resident set of this process in MiB (one workload per process).
double peakRssMb();

std::string fmt(double value, int digits = 3);

}  // namespace perfbench

#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "support/rss.hpp"

namespace perfbench {

double percentileOf(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0,
      static_cast<double>(values.size()))) - 1;
  return values[index];
}

double medianOf(std::vector<double> values) { return percentileOf(std::move(values), 50.0); }

Tail tailOf(const std::vector<double>& values, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  tail.valueMs = percentileOf(values, percentile);
  tail.beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > tail.valueMs; }));
  return tail;
}

// ------------------------------------------------------------- digest

void Digest::bytes(const void* data, std::size_t size) {
  // FNV-1a over 8-byte words (then the tail bytes): the collectors hash
  // every answer while the service runs, so this must stay cheap.
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h_ ^= word;
    h_ *= 1099511628211ULL;
  }
  for (; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::instance(const treeplace::ProblemInstance& instance) {
  const auto& tree = instance.tree;
  value(tree.vertexCount());
  for (std::size_t v = 0; v < tree.vertexCount(); ++v) {
    const auto id = static_cast<treeplace::VertexId>(v);
    value(tree.parent(id));
    value(static_cast<int>(tree.kind(id)));
  }
  values(instance.requests);
  values(instance.capacity);
  values(instance.storageCost);
  values(instance.commTime);
  values(instance.bandwidth);
  values(instance.qos);
  values(instance.compTime);
}

void Digest::multitree(const treeplace::MultitreeInstance& instance) {
  value(instance.sharedCount);
  value(instance.globalVertexCount);
  for (std::size_t t = 0; t < instance.treeCount(); ++t) {
    this->instance(instance.trees[t]);
    values(instance.toGlobal[t]);
  }
}

void Digest::delta(const treeplace::InstanceDelta& delta) {
  value(static_cast<int>(delta.kind));
  value(delta.node);
  value(delta.rate);
  value(delta.capacity);
  value(delta.qos);
  value(delta.commTime);
  value(delta.storageCost);
  values(delta.podRates);
}

void Digest::placement(const treeplace::Placement& placement) {
  value(placement.vertexCount());
  values(placement.replicaList());
  for (std::size_t v = 0; v < placement.vertexCount(); ++v) {
    for (const treeplace::ServedShare& share :
         placement.shares(static_cast<treeplace::VertexId>(v))) {
      const std::uint64_t words[2] = {
          (static_cast<std::uint64_t>(v) << 32) | static_cast<std::uint32_t>(share.server),
          static_cast<std::uint64_t>(share.amount)};
      bytes(words, sizeof words);
    }
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ------------------------------------------------------------- tracing

namespace {

std::atomic<bool> gEnabled{false};

struct ThreadSpans {
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

std::mutex gRegistryMutex;
std::vector<std::unique_ptr<ThreadSpans>> gRegistry;  // guarded by gRegistryMutex

ThreadSpans& threadSpans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    mine = owned.get();
    const std::lock_guard<std::mutex> lock(gRegistryMutex);
    gRegistry.push_back(std::move(owned));
  }
  return *mine;
}

}  // namespace

namespace tracer {

void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

void clear() {
  const std::lock_guard<std::mutex> lock(gRegistryMutex);
  for (auto& t : gRegistry) {
    t->spans.clear();
    t->open.clear();
  }
}

std::vector<std::pair<std::string, SpanStats>> summarize() {
  std::map<std::string, SpanStats> byName;
  const std::lock_guard<std::mutex> lock(gRegistryMutex);
  for (const auto& t : gRegistry) {
    std::vector<double> childMs(t->spans.size(), 0.0);
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      if (s.parent >= 0)
        childMs[static_cast<std::size_t>(s.parent)] += msBetween(s.start, s.end);
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const SpanRecord& s = t->spans[i];
      SpanStats& st = byName[s.name];
      const double ms = msBetween(s.start, s.end);
      st.ms.push_back(ms);
      st.totalMs += ms;
      st.selfMs += ms - childMs[i];
    }
  }
  return {byName.begin(), byName.end()};
}

SpanStats stats(const std::vector<std::pair<std::string, SpanStats>>& all,
                std::string_view name) {
  for (const auto& [n, s] : all)
    if (n == name) return s;
  return {};
}

}  // namespace tracer

Span::Span(const char* name, std::int64_t op) {
  if (!tracer::enabled()) return;
  ThreadSpans& t = threadSpans();
  SpanRecord record;
  record.name = name;
  record.parent = t.open.empty() ? -1 : t.open.back();
  record.op = op;
  index_ = static_cast<std::int32_t>(t.spans.size());
  t.spans.push_back(record);
  t.open.push_back(index_);
  t.spans.back().start = Clock::now();
}

Span::~Span() {
  if (index_ < 0) return;
  const auto end = Clock::now();
  ThreadSpans& t = threadSpans();
  t.spans[static_cast<std::size_t>(index_)].end = end;
  t.open.pop_back();
}

// ------------------------------------------------------------- report

void Report::fail(const std::string& what) {
  ++failed;
  if (failed <= 20) line("CHECK FAILED: " + what);
}

double peakRssMb() {
  return static_cast<double>(treeplace::peakRssBytes()) / (1024.0 * 1024.0);
}

std::string fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

}  // namespace perfbench

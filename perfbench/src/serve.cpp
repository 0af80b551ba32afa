// Workload `serve`: Poisson arrivals, then a saturating closed loop, into
// one PlacementService.
//
// Eight sessions share a 3-worker service: two each of Closest, Multiple and
// ClosestQos at s=10^4, and two warm-ILP (Multiple, exact Section-5 ILP)
// sessions at s=32 and load 0.2 (at s=48 a few B&B re-solves ran 0.1-2 s
// and set the tail on their own). Every request picks its session uniformly
// and carries a delta from the drawer below, which is seeded here and owns
// the delta mix, so a library change cannot change the workload. Budgets are
// step-only and large enough for rung A, so every answer is deterministic
// and is checked bit for bit against a serial per-session replay after the
// timed part.
//
// The timed part has two phases, half of --seconds each. The open-loop phase
// offers a fixed Poisson rate; it gives the per-layer service figures
// (queue, serve and hand-off times, the latency from due time to answer,
// the generator's lateness). In the closed-loop phase one client per
// session sends its next request as soon as its previous one is answered.
// It gives the end-to-end figures, each the median over kClosedSlices
// slices: p50_ms and tail_ms are the median and p99 of a request's latency
// from the submit call to its answer, which holds the service's submit
// path, queueing, strand dispatch and promise hand-off as well as the
// solve, and ops_per_s is the answers per second of wall time. On a shared
// 4-vCPU host the open-loop latency moved with the host: in one noisy run
// its p50 rose 130% and its p99 170% over a quiet run's, while the
// closed-loop p50 rose 20% and its p99 44%.

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <optional>
#include <thread>

#include <sched.h>

#include "core/validate.hpp"
#include "online/resilient.hpp"
#include "online/service.hpp"
#include "online/warm_ilp.hpp"
#include "support/prng.hpp"
#include "tree/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr std::size_t kWorkers = 3;
constexpr double kFixedRate = 1000.0;  ///< offered req/s of the open-loop phase
/// Share of --seconds given to the open-loop phase; the closed-loop phase
/// takes the rest.
constexpr double kOpenShare = 0.5;
/// Requests drawn per closed-loop second: about twice what three workers
/// answer on a 4-vCPU host, so no client runs out.
constexpr std::size_t kClosedDrawPerSecond = 8000;
/// The end-to-end figures are the median over this many equal slices of
/// the closed-loop phase (one second each at --seconds 20).
constexpr std::size_t kClosedSlices = 10;
/// tail_ms is this percentile of submit-to-answer in a closed-loop slice.
constexpr double kTailPercentile = 99.0;
/// In the open loop the generator records an answer only while its next
/// submit is further off than this.
constexpr auto kRecordSlack = std::chrono::microseconds(250);
constexpr long kPolySteps = 20'000'000;
constexpr long kIlpSteps = 200'000'000;

struct SessionSpec {
  bool ilp = false;
  OnlinePolicy policy = OnlinePolicy::Closest;
  GeneratorConfig config;
  Requests rateLo = 0;  ///< rate redraw range of the drawer
  Requests rateHi = 0;
};

std::vector<SessionSpec> sessionSpecs() {
  // The large-scale service profile: unit requests, edge clients, light
  // load, 30% QoS clients (binding only on the ClosestQos sessions). Rates
  // are redrawn in [0, 2], whose mean is the unit base rate, so the load
  // stays stationary however long the stream runs.
  GeneratorConfig poly;
  poly.minSize = poly.maxSize = 10'000;
  poly.clientFraction = 0.8;
  poly.leafClientBias = 1.0;
  poly.minRequests = poly.maxRequests = 1;
  poly.lambda = 0.2;
  poly.unitCosts = true;
  poly.qosFraction = 0.3;
  poly.qosMinHops = 6;
  poly.qosMaxHops = 12;

  GeneratorConfig ilp;
  ilp.minSize = ilp.maxSize = 32;
  ilp.clientFraction = 0.55;
  ilp.maxRequests = 8;
  ilp.lambda = 0.2;
  ilp.unitCosts = true;

  std::vector<SessionSpec> specs;
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos})
    for (int k = 0; k < 2; ++k) specs.push_back({false, policy, poly, 0, 2});
  for (int k = 0; k < 2; ++k)
    specs.push_back({true, OnlinePolicy::Multiple, ilp, ilp.minRequests, ilp.maxRequests});
  return specs;
}

/// The benchmark's own delta drawer: keeps a shadow of the session's
/// instance and draws only admissible deltas against it. The shares are the
/// repository's service soak mix (bench_table1 part (k), the defaults of
/// MutationWorkloadConfig): 55% rate redraws, 10% leaves, 5% global W
/// shifts, 10% joins, 10% pod attaches, 10% subtree detaches. Three things
/// differ from that drawer so the load stays stationary however long the
/// stream runs: rates are redrawn in the session's request range, a W shift
/// (±1 or ±2, part (k)'s step) returns to the base W on the next one, and a
/// detach takes a subtree of at most 16 vertices. A warm-ILP session's model
/// must not grow: there a join re-activates a quiet client and
/// attaches/detaches become rate redraws.
class DeltaDrawer {
 public:
  DeltaDrawer(const ProblemInstance& initial, const SessionSpec& spec, std::uint64_t seed)
      : shadow_(initial), spec_(spec), rng_(seed),
        baseW_(initial.homogeneousCapacity()) {}

  InstanceDelta next() {
    InstanceDelta d = draw();
    applyDelta(shadow_, d);
    return d;
  }

 private:
  Requests rate(Requests lo) { return rng_.uniformInt(lo, spec_.rateHi); }
  VertexId pick(const std::vector<VertexId>& ids) {
    return ids[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(ids.size()) - 1))];
  }

  InstanceDelta rateChange() {
    InstanceDelta d;
    d.kind = DeltaKind::RateChange;
    d.node = pick(shadow_.tree.clients());
    d.rate = rate(spec_.rateLo);
    return d;
  }

  /// A quiet client starts sending again: the join of a session whose
  /// model must not grow.
  InstanceDelta rejoin() {
    for (int tries = 0; tries < 16; ++tries) {
      const VertexId c = pick(shadow_.tree.clients());
      if (shadow_.requests[static_cast<std::size_t>(c)] == 0) {
        InstanceDelta d;
        d.kind = DeltaKind::RateChange;
        d.node = c;
        d.rate = rate(std::max<Requests>(1, spec_.rateLo));
        return d;
      }
    }
    return rateChange();
  }

  InstanceDelta leave() {  // a client that still sends requests
    for (int tries = 0; tries < 16; ++tries) {
      const VertexId c = pick(shadow_.tree.clients());
      if (shadow_.requests[static_cast<std::size_t>(c)] > 0) {
        InstanceDelta d;
        d.kind = DeltaKind::ClientLeave;
        d.node = c;
        return d;
      }
    }
    return rateChange();
  }

  InstanceDelta shiftW() {  // global, returning on the next one
    InstanceDelta d;
    d.kind = DeltaKind::CapacityChange;
    d.node = kNoVertex;
    const Requests W = shadow_.homogeneousCapacity();
    if (W != baseW_) {
      d.capacity = baseW_;
    } else {
      const Requests step = rng_.uniformInt(1, 2);
      d.capacity = rng_.bernoulli(0.5) ? baseW_ + step : std::max<Requests>(1, baseW_ - step);
    }
    return d;
  }

  InstanceDelta join() {
    InstanceDelta d;
    d.kind = DeltaKind::ClientJoin;
    d.node = pick(shadow_.tree.internals());
    d.rate = rate(std::max<Requests>(1, spec_.rateLo));
    if (rng_.bernoulli(spec_.config.qosFraction))
      d.qos = static_cast<double>(
          rng_.uniformInt(spec_.config.qosMinHops, spec_.config.qosMaxHops));
    return d;
  }

  InstanceDelta attach() {  // a pod at the current homogeneous W
    InstanceDelta d;
    d.kind = DeltaKind::SubtreeAttach;
    d.node = pick(shadow_.tree.internals());
    d.capacity = shadow_.homogeneousCapacity();
    d.storageCost = 1.0;
    const auto clients = rng_.uniformInt(1, 3);
    for (std::int64_t k = 0; k < clients; ++k)
      d.podRates.push_back(rate(std::max<Requests>(1, spec_.rateLo)));
    return d;
  }

  InstanceDelta detach() {  // a small subtree
    const Tree& tree = shadow_.tree;
    for (int tries = 0; tries < 16; ++tries) {
      const VertexId v = pick(rng_.bernoulli(0.5) ? tree.clients() : tree.internals());
      if (v != tree.root() && tree.subtreeSize(v) <= 16) {
        InstanceDelta d;
        d.kind = DeltaKind::SubtreeDetach;
        d.node = v;
        return d;
      }
    }
    return rateChange();
  }

  InstanceDelta draw() {
    const double u = rng_.uniformReal();
    if (u < 0.55) return rateChange();
    if (u < 0.65) return leave();
    if (u < 0.70) return shiftW();
    if (u < 0.80) return spec_.ilp ? rejoin() : join();
    if (spec_.ilp) return rateChange();
    return u < 0.90 ? attach() : detach();
  }

  ProblemInstance shadow_;
  SessionSpec spec_;
  Prng rng_;
  Requests baseW_;
};

struct Request {
  std::uint16_t session = 0;
  InstanceDelta delta;
};

/// Everything the seed determines: instances, the request sequence and the
/// unit-rate inter-arrival gaps (a phase at rate r waits gap / r). Request i
/// is the same however many are drawn.
struct Inputs {
  std::vector<SessionSpec> specs;
  std::vector<ProblemInstance> instances;
  std::vector<Request> requests;
  std::vector<double> unitGaps;

  Inputs(std::uint64_t seed, std::size_t requestCount)
      : specs(sessionSpecs()), instances(makeInstances(specs, seed)) {
    std::vector<DeltaDrawer> drawers;
    for (std::size_t s = 0; s < specs.size(); ++s)
      drawers.emplace_back(instances[s], specs[s], Prng(seed).split(100 + s).next());
    Prng pick = Prng(seed).split(1000);
    Prng gaps = Prng(seed).split(1001);
    while (requests.size() < requestCount) {
      const auto s = static_cast<std::uint16_t>(
          pick.uniformInt(0, static_cast<std::int64_t>(specs.size()) - 1));
      requests.push_back({s, drawers[s].next()});
      unitGaps.push_back(-std::log(1.0 - gaps.uniformReal()));
    }
  }

  static std::vector<ProblemInstance> makeInstances(const std::vector<SessionSpec>& specs,
                                                    std::uint64_t seed) {
    std::vector<ProblemInstance> out;
    const Prng root(seed);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const Span span("tree.generate", static_cast<std::int64_t>(s));
      out.push_back(generateInstance(specs[s].config, root.split(s).next(), s));
    }
    return out;
  }
};

std::string digestOf(const ProblemInstance& instance) {
  Digest d;
  d.instance(instance);
  return d.hex();
}

std::string digestOf(const Inputs& in) {
  Digest d;
  for (const ProblemInstance& inst : in.instances) d.instance(inst);
  for (const Request& r : in.requests) {
    d.value(r.session);
    d.delta(r.delta);
  }
  d.values(in.unitGaps);
  return d.hex();
}

SolveBudget budgetFor(const SessionSpec& spec) {
  SolveBudget b;
  b.maxSteps = spec.ilp ? kIlpSteps : kPolySteps;
  return b;
}

/// The fields of an answer that must match the serial replay bit for bit.
std::uint64_t outcomeHash(DeltaStatus deltaStatus, const SolveOutcome& o, long ilpNodes) {
  Digest d;
  d.value(static_cast<int>(deltaStatus));
  d.value(static_cast<int>(o.status));
  d.value(static_cast<int>(o.level));
  d.value(o.cost);
  d.value(o.lowerBound);
  d.value(ilpNodes);
  d.value(o.hasPlacement());
  if (o.placement) d.placement(*o.placement);
  return d.get();
}

struct Record {
  Clock::time_point due, submitted, done;
  double queueMs = 0.0;
  double serveMs = 0.0;
  std::uint64_t hash = 0;
  double boundRatio = 0.0;  ///< certified lowerBound / cost, 0 without a placement
  bool answered = false;
  bool failed = false;  ///< rejected/failed delta or Error/Cancelled outcome
  double e2eMs() const { return msBetween(due, done); }
  double lateMs() const { return msBetween(due, submitted); }
};

/// The generator's outstanding requests, one FIFO per session (a session
/// answers in submission order). The generator thread is the client side:
/// it calls collect() whenever it is not submitting, so no other thread
/// competes with the workers for their CPUs, and collect() timestamps an
/// answer as soon as it is seen. Taking, hashing and freeing an answer
/// (about 0.1 ms at s=10^4) is recordOne(), which the generator calls only
/// when it has nothing to submit soon.
class Outstanding {
 public:
  Outstanding(std::size_t sessions, std::vector<Record>& records)
      : records_(records), lanes_(sessions) {}

  void push(std::size_t session, std::size_t index, std::future<ServiceResponse> f) {
    lanes_[session].push_back({index, std::move(f)});
    ++count_;
  }

  /// Requests not yet recorded.
  std::size_t count() const { return count_; }
  /// Requests of `session` not yet answered.
  std::size_t inFlight(std::size_t session) const { return lanes_[session].size(); }

  /// Timestamp every answer that has arrived.
  void collect() {
    for (auto& lane : lanes_) {
      while (!lane.empty() &&
             lane.front().second.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        records_[lane.front().first].done = Clock::now();
        arrived_.push_back(std::move(lane.front()));
        lane.pop_front();
      }
    }
  }

  /// Record the oldest timestamped answer; false when there is none.
  bool recordOne() {
    if (arrived_.empty()) return false;
    record(records_[arrived_.front().first], arrived_.front().second.get());
    arrived_.pop_front();
    --count_;
    return true;
  }

  /// Collect and record until every request is recorded.
  void drain() {
    while (count_ > 0) {
      collect();
      recordOne();
    }
  }

 private:
  static void record(Record& r, const ServiceResponse& response) {
    r.queueMs = response.queueMs;
    r.serveMs = response.serveMs;
    r.hash = outcomeHash(response.deltaStatus, response.outcome, response.ilpNodes);
    if (response.outcome.hasPlacement() && response.outcome.cost > 0.0)
      r.boundRatio = response.outcome.lowerBound / response.outcome.cost;
    r.failed = response.deltaStatus != DeltaStatus::Applied ||
               response.outcome.status == OutcomeStatus::Error ||
               response.outcome.status == OutcomeStatus::Cancelled;
    r.answered = true;
  }

  using Item = std::pair<std::size_t, std::future<ServiceResponse>>;
  std::vector<Record>& records_;
  std::vector<std::deque<Item>> lanes_;
  std::deque<Item> arrived_;  ///< timestamped, not yet recorded
  std::size_t count_ = 0;
};

/// Gives the generator thread a CPU of its own. While this object lives,
/// the calling thread is bound to every allowed CPU but the last, so the
/// threads it starts meanwhile (the service's workers and watchdog) inherit
/// that mask; enterGenerator() then moves the calling thread alone onto the
/// CPU kept back. The destructor restores the calling thread's mask. With
/// fewer than two allowed CPUs it does nothing.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0 || CPU_COUNT(&original_) < 2)
      return;
    cpu_set_t others = original_;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        generatorCpu_ = cpu;
        CPU_CLR(cpu, &others);
        break;
      }
    }
    active_ = sched_setaffinity(0, sizeof others, &others) == 0;
  }
  ~CpuSplit() {
    if (active_) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  void enterGenerator() const {
    if (!active_) return;
    cpu_set_t mine;
    CPU_ZERO(&mine);
    CPU_SET(generatorCpu_, &mine);
    sched_setaffinity(0, sizeof mine, &mine);
  }

 private:
  cpu_set_t original_;
  int generatorCpu_ = -1;
  bool active_ = false;
};

/// The live service: sessions opened from the inputs.
struct Live {
  std::optional<PlacementService> service;
  std::vector<PlacementService::SessionId> ids;
};

void openLive(Live& live, const std::vector<SessionSpec>& specs,
              const std::vector<ProblemInstance>& instances) {
  live.service.emplace(ServiceOptions{.workers = kWorkers});
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const Span span("service.open", static_cast<std::int64_t>(s));
    live.ids.push_back(specs[s].ilp ? live.service->openIlpSession(instances[s])
                                    : live.service->openSession(instances[s], specs[s].policy));
  }
}

void submitOne(Live& live, const Inputs& in, std::vector<Record>& records,
               Outstanding& outstanding, std::size_t i, Clock::time_point due) {
  const Request& req = in.requests[i];
  ServiceRequest request;
  request.delta = req.delta;
  request.budget = budgetFor(in.specs[req.session]);
  Record& r = records[i];
  r.due = due;
  r.submitted = Clock::now();
  outstanding.push(req.session, i, live.service->submit(live.ids[req.session], std::move(request)));
}

/// Open loop: offer requests [begin, end) as a Poisson stream at `rate`,
/// collecting answers up to each due time, and wait until all are answered.
void runOpenLoop(Live& live, const Inputs& in, std::vector<Record>& records,
                 Outstanding& outstanding, std::size_t begin, std::size_t end, double rate) {
  auto due = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = begin; i < end; ++i) {
    due += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(in.unitGaps[i] / rate));
    while (Clock::now() < due) {
      outstanding.collect();
      if (Clock::now() + kRecordSlack < due) outstanding.recordOne();
    }
    submitOne(live, in, records, outstanding, i, due);
  }
  outstanding.drain();
}

/// Closed loop: one client per session, each submitting its session's next
/// request (its share of [begin, end), in order) as soon as its previous one
/// is answered, until `seconds` have passed; then wait until all are
/// answered. A session's cost holds back only its own client, and every
/// client waits for the workers like the others. Returns the indices
/// submitted, ascending; `ranOut` is set when a client used up its share.
std::vector<std::size_t> runClosedLoop(Live& live, const Inputs& in, std::vector<Record>& records,
                                       Outstanding& outstanding, std::size_t begin, double seconds,
                                       bool& ranOut) {
  std::vector<std::vector<std::size_t>> streams(in.specs.size());
  for (std::size_t i = begin; i < in.requests.size(); ++i)
    streams[in.requests[i].session].push_back(i);
  std::vector<std::size_t> next(in.specs.size(), 0);
  std::vector<std::size_t> submitted;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  while (Clock::now() < stop) {
    outstanding.collect();
    bool sent = false;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (outstanding.inFlight(s) > 0) continue;
      if (next[s] == streams[s].size()) {
        ranOut = true;
        continue;
      }
      submitted.push_back(streams[s][next[s]++]);
      submitOne(live, in, records, outstanding, submitted.back(), Clock::now());
      sent = true;
    }
    if (!sent) outstanding.recordOne();
  }
  outstanding.drain();
  std::sort(submitted.begin(), submitted.end());
  return submitted;
}

Policy checkedPolicy(const SessionSpec& spec) {
  return spec.policy == OnlinePolicy::Multiple ? Policy::Multiple : Policy::Closest;
}

/// Layer counts of one session's replay.
struct ReplayStats {
  std::size_t touched = 0, deltas = 0;
  std::size_t exact = 0, polySolves = 0;
  std::size_t ilpSolves = 0, ilpSeeded = 0;
  long ilpNodes = 0, dualPivots = 0, refactorizations = 0;
  FrontierCacheStats cache;
  std::size_t invalid = 0;
};

/// One session's serial replay: same instance, same deltas, same budgets.
/// Fills the answer hashes (the oracle), the apply + solve time of each
/// request and the validity count, and — when traced — the spans of every
/// layer call.
void replaySession(const Inputs& in, std::size_t s,
                   const std::vector<std::size_t>& indices, bool withLpTwin,
                   std::vector<std::uint64_t>& hashes, std::vector<double>& requestMs,
                   ReplayStats& stats) {
  const SessionSpec& spec = in.specs[s];
  ProblemInstance instance = in.instances[s];
  std::optional<ResilientSession> resilient;
  std::optional<WarmIlpSession> warm;
  // Twin ILP session driven through WarmIlpSession::resolve, only to read
  // the LP telemetry (ExactIlpResult.warm) the ladder's outcome hides.
  ProblemInstance twinInstance = in.instances[s];
  std::optional<WarmIlpSession> twin;
  if (spec.ilp) {
    warm.emplace(instance);
    if (withLpTwin) twin.emplace(twinInstance);
  } else {
    resilient.emplace(instance, spec.policy);
  }
  const SolveBudget budget = budgetFor(spec);
  ValidationOptions vo;
  vo.checkQos = spec.policy == OnlinePolicy::ClosestQos;
  vo.checkBandwidth = false;

  for (const std::size_t i : indices) {
    const auto op = static_cast<std::int64_t>(i);
    const InstanceDelta& delta = in.requests[i].delta;
    DeltaStatus status = DeltaStatus::Applied;
    SolveOutcome outcome;
    long nodes = -1;
    const auto t0 = Clock::now();
    {
      const Span request("request", op);
      try {
        const Span span("delta.apply", op);
        const DeltaApplication app = spec.ilp ? warm->apply(delta) : resilient->apply(delta);
        stats.touched += app.touched.size();
        ++stats.deltas;
      } catch (const DeltaError&) {
        status = DeltaStatus::Rejected;
      }
      if (spec.ilp) {
        const Span span("warm_ilp.solve", op);
        const std::size_t seededBefore = warm->stats().seededSolves;
        outcome = solveResilientIlp(*warm, budget);
        nodes = warm->stats().lastNodes;
        ++stats.ilpSolves;
        stats.ilpNodes += nodes;
        if (warm->stats().seededSolves > seededBefore) ++stats.ilpSeeded;
      } else {
        const Span span("incremental.solve", op);
        outcome = resilient->solve(budget);
        ++stats.polySolves;
        if (outcome.level == DegradationLevel::Exact) ++stats.exact;
      }
    }
    requestMs[i] = msSince(t0);
    hashes[i] = outcomeHash(status, outcome, nodes);
    if (outcome.placement) {
      const Span span("validate", op);
      if (!isValidPlacement(instance, *outcome.placement, checkedPolicy(spec), vo))
        ++stats.invalid;
    }
    if (twin) {
      twin->apply(delta);
      const ExactIlpResult r = twin->resolve();
      stats.dualPivots += r.warm.dualIterations;
      stats.refactorizations += r.warm.refactorizations;
    }
  }
  if (resilient) stats.cache = resilient->cacheStats();
}

/// Replays every session, sessions spread over up to four threads.
struct Replay {
  std::vector<std::uint64_t> hashes;
  std::vector<double> requestMs;
  std::vector<ReplayStats> perSession;
};

Replay replayAll(const Inputs& in, const std::vector<std::size_t>& served, bool withLpTwin) {
  Replay out;
  out.hashes.assign(in.requests.size(), 0);
  out.requestMs.assign(in.requests.size(), 0.0);
  out.perSession.resize(in.specs.size());
  std::vector<std::vector<std::size_t>> indices(in.specs.size());
  for (const std::size_t i : served) indices[in.requests[i].session].push_back(i);
  const std::size_t threads = std::min<std::size_t>(4, in.specs.size());
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t s = t; s < in.specs.size(); s += threads)
          replaySession(in, s, indices[s], withLpTwin, out.hashes, out.requestMs,
                        out.perSession[s]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

}  // namespace

void runServe(const RunConfig& cfg, Report& report) {
  const auto openCount = static_cast<std::size_t>(kFixedRate * cfg.seconds * kOpenShare);
  const double closedSeconds = cfg.seconds * (1.0 - kOpenShare);
  const std::size_t total =
      openCount + static_cast<std::size_t>(static_cast<double>(kClosedDrawPerSecond) * closedSeconds);

  // The request stream is the load generator's, drawn before set-up; set-up
  // is what the service needs before its first request: the instances and
  // the opened sessions.
  const Inputs in(cfg.seed, total);
  report.inputDigest = digestOf(in);
  tracer::setEnabled(cfg.trace);
  std::optional<CpuSplit> split;
  split.emplace();
  Live live;
  std::vector<ProblemInstance> fresh;
  const double setupS = timedSetup(
      [&] {
        live.service.reset();
        live.ids.clear();
        fresh.clear();
        tracer::clear();
      },
      [&] {
        fresh = Inputs::makeInstances(in.specs, cfg.seed);
        openLive(live, in.specs, fresh);
      });
  const auto setupSpans = tracer::summarize();
  tracer::setEnabled(false);
  for (std::size_t s = 0; s < fresh.size(); ++s)
    if (digestOf(fresh[s]) != digestOf(in.instances[s]))
      report.fail("session " + std::to_string(s) + " was opened on a different instance");
  fresh.clear();

  // ---------------------------------------------------------------- timed
  std::vector<Record> records(total);
  std::size_t peakQueue = 0;
  std::vector<std::size_t> servedIndices(openCount);
  for (std::size_t i = 0; i < openCount; ++i) servedIndices[i] = i;
  bool ranOut = false;
  Clock::time_point closedStart, closedStop;
  {
    Outstanding outstanding(in.specs.size(), records);
    split->enterGenerator();
    runOpenLoop(live, in, records, outstanding, 0, openCount, kFixedRate);
    peakQueue = live.service->stats().peakQueueDepth;  // the closed loop's is one per session
    closedStart = Clock::now();
    const std::vector<std::size_t> closed =
        runClosedLoop(live, in, records, outstanding, openCount, closedSeconds, ranOut);
    servedIndices.insert(servedIndices.end(), closed.begin(), closed.end());
    closedStop = closedStart + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(closedSeconds));
  }
  const double peakRss = peakRssMb();
  split.reset();

  // ---------------------------------------------------------------- checks
  // Canonical inputs of the reference seed: the instances and the first
  // 2000 requests, independent of --seconds.
  report.referenceDigest = digestOf(Inputs(kReferenceSeed, 2000));
  const Replay oracle = replayAll(in, servedIndices, false);
  std::size_t mismatches = 0, failedRequests = 0, invalid = 0;
  for (const std::size_t i : servedIndices) {
    const Record& r = records[i];
    const bool bad = !r.answered || r.failed || r.hash != oracle.hashes[i];
    if (r.hash != oracle.hashes[i]) ++mismatches;
    if (r.failed) ++failedRequests;
    if (bad) ++report.failed;
  }
  for (const ReplayStats& st : oracle.perSession) invalid += st.invalid;
  report.failed += invalid;
  report.attempted = servedIndices.size();
  if (ranOut) report.fail("a closed-loop client used up its requests; draw more per second");
  if (mismatches > 0) report.line("CHECK FAILED: " + std::to_string(mismatches) + " responses differ from the serial replay");
  if (failedRequests > 0) report.line("CHECK FAILED: " + std::to_string(failedRequests) + " requests failed (rejected delta or Error/Cancelled)");
  if (invalid > 0) report.line("CHECK FAILED: " + std::to_string(invalid) + " invalid placements");

  std::vector<double> answer, e2e, late, queue, serve, handoff;
  double ratioSum = 0.0;
  std::size_t placed = 0;
  for (const std::size_t i : servedIndices) {
    const Record& r = records[i];
    if (r.boundRatio > 0.0) {
      ratioSum += r.boundRatio;
      ++placed;
    }
    if (i >= openCount) continue;
    answer.push_back(msBetween(r.submitted, r.done));
    e2e.push_back(r.e2eMs());
    late.push_back(r.lateMs());
    queue.push_back(r.queueMs);
    serve.push_back(r.serveMs);
    handoff.push_back(r.e2eMs() - r.lateMs() - r.queueMs - r.serveMs);
  }
  const double lateP99 = percentileOf(late, 99.0);
  // The closed loop per slice of kClosedSlices: answers per second and the
  // submit-to-answer latency of the answers that arrived in it. The
  // end-to-end figures are the median slice's, so a burst of host noise over
  // a few slices does not move them.
  std::vector<std::vector<double>> sliceLatency(kClosedSlices);
  const double sliceMs = msBetween(closedStart, closedStop) / kClosedSlices;
  std::vector<std::size_t> perSession(in.specs.size(), 0);
  for (const std::size_t i : servedIndices) {
    if (i < openCount || records[i].done >= closedStop) continue;
    const auto k = static_cast<std::size_t>(msBetween(closedStart, records[i].done) / sliceMs);
    sliceLatency[std::min(k, kClosedSlices - 1)].push_back(
        msBetween(records[i].submitted, records[i].done));
    ++perSession[in.requests[i].session];
  }
  std::vector<double> sliceRate, sliceP50, sliceTail;
  std::size_t tailBeyond = servedIndices.size();
  for (const std::vector<double>& part : sliceLatency) {
    const Tail t = tailOf(part, kTailPercentile);
    sliceRate.push_back(1000.0 * static_cast<double>(part.size()) / sliceMs);
    sliceP50.push_back(medianOf(part));
    sliceTail.push_back(t.valueMs);
    tailBeyond = std::min(tailBeyond, t.beyond);
  }
  const double p50 = medianOf(sliceP50);
  const double tailMs = medianOf(sliceTail);
  const double throughput = medianOf(sliceRate);
  report.line("open loop: " + std::to_string(openCount) + " requests at " + fmt(kFixedRate, 0) +
              " req/s: submit to answer p50 " + fmt(medianOf(answer)) + " ms, p99 " +
              fmt(percentileOf(answer, 99.0)) + " ms; due time to answer p50 " +
              fmt(medianOf(e2e)) + " ms, p99 " + fmt(percentileOf(e2e, 99.0)) +
              " ms; generator lateness p99 " + fmt(lateP99, 4) + " ms");
  report.line("open loop parts: queue p50 " + fmt(medianOf(queue)) + " ms; serve time p50 " +
              fmt(medianOf(serve)) + " ms, p99 " + fmt(percentileOf(serve, 99.0)) +
              " ms; hand-off p50 " + fmt(medianOf(handoff)) + " ms");
  std::string slices, sessions;
  for (std::size_t k = 0; k < kClosedSlices; ++k)
    slices += (k ? ", " : "") + fmt(sliceRate[k], 0) + "/" + fmt(sliceP50[k]) + "/" +
              fmt(sliceTail[k], 1);
  for (const std::size_t n : perSession) sessions += (sessions.empty() ? "" : " ") + std::to_string(n);
  report.line("closed loop: " + std::to_string(servedIndices.size() - openCount) + " requests in " +
              fmt(closedSeconds, 2) + " s, one client per session (answers per session " +
              sessions + "); per slice answers/s / p50 ms / p" + fmt(kTailPercentile, 0) +
              " ms: " + slices + " (at least " + std::to_string(tailBeyond) +
              " beyond each p" + fmt(kTailPercentile, 0) + "); median slice " +
              fmt(throughput, 0) + " answers/s, p50 " + fmt(p50) + " ms, p" +
              fmt(kTailPercentile, 0) + " " + fmt(tailMs) + " ms");
  report.line("fail_ratio " + fmt(static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted), 6));

  if (!cfg.trace) {
    report.metric("p50_ms", p50, "ms");
    report.metric("tail_ms", tailMs, "ms");
    report.metric("ops_per_s", throughput, "1/s");
    report.metric("relative_cost", placed ? ratioSum / static_cast<double>(placed) : 0.0, "ratio");
    report.metric("setup_s", setupS, "s");
    report.metric("peak_rss_mb", peakRss, "MB");
    return;
  }

  // ---------------------------------------------------------------- traced
  tracer::setEnabled(true);
  const Replay traced = replayAll(in, servedIndices, true);
  tracer::setEnabled(false);
  const auto spans = tracer::summarize();
  for (const std::size_t i : servedIndices)
    if (traced.hashes[i] != oracle.hashes[i]) report.fail("traced replay differs at request " + std::to_string(i));

  ReplayStats sum;
  for (const ReplayStats& st : traced.perSession) {
    sum.touched += st.touched;
    sum.deltas += st.deltas;
    sum.exact += st.exact;
    sum.polySolves += st.polySolves;
    sum.ilpSolves += st.ilpSolves;
    sum.ilpSeeded += st.ilpSeeded;
    sum.ilpNodes += st.ilpNodes;
    sum.dualPivots += st.dualPivots;
    sum.refactorizations += st.refactorizations;
    sum.cache.hits += st.cache.hits;
    sum.cache.misses += st.cache.misses;
    sum.cache.compactions += st.cache.compactions;
  }
  double untracedMs = 0.0, tracedMs = 0.0;
  for (const std::size_t i : servedIndices) {
    untracedMs += oracle.requestMs[i];
    tracedMs += traced.requestMs[i];
  }
  const auto per = [](double x, std::size_t n) { return n ? x / static_cast<double>(n) : 0.0; };
  const SpanStats apply = tracer::stats(spans, "delta.apply");
  const SpanStats inc = tracer::stats(spans, "incremental.solve");
  const SpanStats ilp = tracer::stats(spans, "warm_ilp.solve");
  const std::size_t ilpSolves = sum.ilpSolves;
  const std::size_t hitsMisses = sum.cache.hits + sum.cache.misses;
  emitLayerMetrics(report, {
      {"service.queue_ms.p50", percentileOf(queue, 50)},
      {"service.queue_ms.p99", percentileOf(queue, 99)},
      {"service.serve_ms.p50", percentileOf(serve, 50)},
      {"service.serve_ms.p99", percentileOf(serve, 99)},
      {"service.handoff_ms.p99", percentileOf(handoff, 99)},
      {"service.e2e_ms.p50", medianOf(e2e)},
      {"service.e2e_ms.p99", percentileOf(e2e, 99)},
      {"service.peak_queue_depth", static_cast<double>(peakQueue)},
      {"service.open_ms", tracer::stats(setupSpans, "service.open").meanMs()},
      {"gen.late_ms.p99", lateP99},
      {"delta.apply_ms.p50", percentileOf(apply.ms, 50)},
      {"delta.apply_ms.p99", percentileOf(apply.ms, 99)},
      {"delta.touched", per(static_cast<double>(sum.touched), sum.deltas)},
      {"incremental.solve_ms.p50", percentileOf(inc.ms, 50)},
      {"incremental.solve_ms.p99", percentileOf(inc.ms, 99)},
      {"incremental.hit_rate", per(static_cast<double>(sum.cache.hits), hitsMisses)},
      {"incremental.misses", per(static_cast<double>(sum.cache.misses), sum.polySolves)},
      {"incremental.compactions", per(static_cast<double>(sum.cache.compactions), sum.polySolves)},
      {"resilient.exact_share", per(static_cast<double>(sum.exact), sum.polySolves)},
      {"warm_ilp.solve_ms.p50", percentileOf(ilp.ms, 50)},
      {"warm_ilp.solve_ms.p99", percentileOf(ilp.ms, 99)},
      {"warm_ilp.nodes", per(static_cast<double>(sum.ilpNodes), ilpSolves)},
      {"warm_ilp.seeded_share", per(static_cast<double>(sum.ilpSeeded), ilpSolves)},
      {"lp.dual_pivots", per(static_cast<double>(sum.dualPivots), ilpSolves)},
      {"lp.refactorizations", per(static_cast<double>(sum.refactorizations), ilpSolves)},
      {"validate.ms", tracer::stats(spans, "validate").meanMs()},
      {"tree.generate_ms", tracer::stats(setupSpans, "tree.generate").meanMs()},
      {"trace.overhead_pct", untracedMs > 0.0 ? 100.0 * (tracedMs / untracedMs - 1.0) : 0.0},
  });
  report.line("tracing overhead: serial replay " + fmt(untracedMs, 1) + " ms untraced vs " +
              fmt(tracedMs, 1) + " ms traced");
}

}  // namespace perfbench

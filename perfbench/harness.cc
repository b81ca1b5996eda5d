// Simulator-cost benchmark: how much host wall time the simulator spends.
//
// One process runs one workload. Simulated milliseconds are model output: the
// harness checks them (digest + invariants) but never times them. Every
// workload is an offline batch job whose arrivals exist only in virtual time,
// so there is no wall-clock schedule and no backlog; each reports work done
// per host second. See METHODOLOGY.md for the metric definitions.
//
// A run has two phases:
//
//   set-up  Build the workload's state from scratch (platform or cluster
//           construction plus every record phase). Single-host workloads set
//           up kSetupRepeats times and keep the last; the cluster's simulator
//           is one-shot, so it is set up again before every chunk.
//   timed   Run *chunks* until --seconds of host time are spent. Chunk i's
//           inputs derive only from (--seed, i), so the same seed always
//           gives the same inputs, and a long run samples many different
//           inputs rather than one input many times.
//
// Single-threaded workloads visit every CPU in turn (see CpuRotation). Every
// host-time figure is a median (or percentile) per CPU, averaged over the
// CPUs, which a stall on a shared machine moves far less than a total would.
//
// The digest and the work counts cover the first `checked_chunks` chunks,
// which every run executes, so they repeat exactly for a given seed.
//
//   faasnap_perfbench --workload restore-sweep --seed 1 --seconds 30 --trace 0
//   faasnap_perfbench --self-test
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics under
// --trace 1. A human-readable summary goes to stderr.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/span_recorder.h"
#include "src/cluster/cluster.h"
#include "src/common/json.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/runtime/arrivals.h"
#include "src/runtime/host_scheduler.h"
#include "src/runtime/platform.h"
#include "src/workloads/function_spec.h"
#include "src/workloads/trace_generator.h"

namespace faasnap {
namespace perfbench {
namespace {

constexpr char kUsage[] =
    "usage: faasnap_perfbench --workload NAME --seed N --seconds N --trace 0|1\n"
    "                         [--trace-out PATH]\n"
    "       faasnap_perfbench --self-test [--trace-out PATH]\n"
    "  NAME: restore-sweep | host-serving | cluster-fleet\n"
    "  --seed       workload seed (non-negative integer)\n"
    "  --seconds    host seconds to measure (1..600)\n"
    "  --trace      0: end-to-end metrics; 1: per-layer metrics from a traced run\n"
    "  --trace-out  where to write the wall-clock spans as Chrome trace JSON\n";

// ---------------------------------------------------------------------------
// Workload parameters. Each constant is part of the benchmark's definition:
// changing one changes what every metric means.

// restore-sweep: the paper's test phase over the four compared systems. One
// chunk is one round: every function under every mode.
constexpr RestoreMode kSweepModes[] = {RestoreMode::kFirecracker, RestoreMode::kCached,
                                       RestoreMode::kReap, RestoreMode::kFaasnap};

// Open-loop popularity skew for both serving workloads.
constexpr double kZipfS = 1.2;

// host-serving: one platform, open-loop arrivals. One chunk is one open-loop
// session (BeginOpenLoop .. FinishOpenLoop) of this many arrivals (fewer in
// the self-test); one op is one fixed virtual-time window.
constexpr int64_t kServingArrivalsPerChunk = 200;
constexpr int64_t kServingSelfTestArrivals = 40;
constexpr Duration kServingMeanGap = Duration::Millis(40);
constexpr Duration kServingWindow = Duration::Millis(20);

// cluster-fleet: ext_cluster's placement configuration on 2 worker threads
// (4 threads on a 4-core machine shared with other tenants ran 20-50% slower
// whenever a neighbour took a core; 2 threads stayed within 1% pass to pass).
constexpr int64_t kFleetArrivalsPerChunk = 300;
constexpr int64_t kFleetSelfTestArrivals = 40;
constexpr size_t kFleetHosts = 8;
constexpr int kFleetThreads = 2;
constexpr Duration kFleetMeanGap = Duration::Millis(6);

const std::vector<std::string>& FleetFunctions() {
  static const std::vector<std::string> kFunctions = {
      "hello-world", "read-list", "mmap", "json", "image", "pyaes", "chameleon", "compression"};
  return kFunctions;
}

// Single-host set-ups per run (four per CPU on a 4-CPU machine).
constexpr int kSetupRepeats = 16;

// Ops each CPU times at least, so that ten lie beyond its p99.
constexpr size_t kMinOpsPerCpu = 1000;

constexpr uint64_t kContentSalt = 0x5eed5eed0c0ffeeULL;

// ---------------------------------------------------------------------------
// Pinned digests of the checked chunks, seeds 1-10. The
// simulated outputs must stay byte-identical through speed-only changes; a
// deliberate model change re-pins these with a note in CHANGES.md.

struct PinnedDigest {
  const char* workload;
  uint64_t seed;
  uint64_t digest;
};

constexpr PinnedDigest kPinnedDigests[] = {
    {"restore-sweep", 1, 0xefc6c5261d7ec1feULL},
    {"restore-sweep", 2, 0xb4fc481bcdee7d59ULL},
    {"restore-sweep", 3, 0xc859b6fbadfc3b6dULL},
    {"restore-sweep", 4, 0x9ba3140266e28bf9ULL},
    {"restore-sweep", 5, 0xa95562c8e4e434e8ULL},
    {"restore-sweep", 6, 0x4f1f50b2773b27bbULL},
    {"restore-sweep", 7, 0x301bfd1053d57aaaULL},
    {"restore-sweep", 8, 0x56bf21e0d31b9238ULL},
    {"restore-sweep", 9, 0x9c546c2ff886ba49ULL},
    {"restore-sweep", 10, 0xbfd0426d13a4e712ULL},
    {"host-serving", 1, 0x54cdaf852ad4e369ULL},
    {"host-serving", 2, 0xfdea7502682385f4ULL},
    {"host-serving", 3, 0x26e18acfb98e1e46ULL},
    {"host-serving", 4, 0xdd3ff15bd0dd7df0ULL},
    {"host-serving", 5, 0x32e290edc9397c03ULL},
    {"host-serving", 6, 0xa51bd6835f80c012ULL},
    {"host-serving", 7, 0xe36a68564b10a8e8ULL},
    {"host-serving", 8, 0x3762e9a992cfa600ULL},
    {"host-serving", 9, 0xebefff91310a443fULL},
    {"host-serving", 10, 0xffc7e2cc9a9a4f7dULL},
    {"cluster-fleet", 1, 0x8d487b0e94a6d868ULL},
    {"cluster-fleet", 2, 0x51218c3548cc12bfULL},
    {"cluster-fleet", 3, 0x823a3c17e1709a19ULL},
    {"cluster-fleet", 4, 0xfd6bb2c31ade474fULL},
    {"cluster-fleet", 5, 0xc5f261dc232b7356ULL},
    {"cluster-fleet", 6, 0xdc593ec7aeb797f3ULL},
    {"cluster-fleet", 7, 0x47dc4904a96aa80aULL},
    {"cluster-fleet", 8, 0x74ea1996d96dbf7eULL},
    {"cluster-fleet", 9, 0xb46fd573999fe442ULL},
    {"cluster-fleet", 10, 0x45fcdf8192ae61ceULL},
};

// ---------------------------------------------------------------------------

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// FNV-1a over the simulated outputs, in a fixed field order.
class Digest {
 public:
  void Add(std::string_view s) {
    Add(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Add(int64_t v) { Bytes(&v, sizeof(v)); }
  void Add(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Add(double v) { Bytes(&v, sizeof(v)); }
  void Add(Duration d) { Add(d.nanos()); }
  void Add(ByteCount b) { Add(b.value()); }
  void Add(PageCount p) { Add(p.value()); }
  void Add(const RunningStats& s) {
    Add(s.count());
    Add(s.sum());
    Add(s.min());
    Add(s.max());
  }
  uint64_t value() const { return hash_; }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// The q-quantile of `samples` (nearest rank), or nothing when fewer than ten
// samples would lie beyond it: p50 needs 20 samples, p99 needs 1000.
std::optional<double> Percentile(std::vector<double> samples, double q) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (samples.empty() || beyond < 10.0 - 1e-9) {
    return std::nullopt;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Host-time samples keyed by the CPU slot (see CpuRotation) they ran on.
using ByCpu = std::map<size_t, std::vector<double>>;

// The mean over CPUs of each CPU's median. The CPUs of a shared machine run
// at different speeds; a median over all samples falls in the gap between the
// fast and the slow CPUs' samples and jumps with their mix. This mean weighs
// every CPU the same and moves in proportion to each one's speed.
double MeanOfCpuMedians(const ByCpu& samples) {
  double sum = 0;
  for (const auto& [cpu, values] : samples) {
    sum += Median(values);
  }
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

// The mean over CPUs of each CPU's q-quantile; nothing unless every CPU has
// enough samples for Percentile.
std::optional<double> MeanOfCpuPercentiles(const ByCpu& samples, double q) {
  double sum = 0;
  for (const auto& [cpu, values] : samples) {
    const std::optional<double> p = Percentile(values, q);
    if (!p) {
      return std::nullopt;
    }
    sum += *p;
  }
  if (samples.empty()) {
    return std::nullopt;
  }
  return sum / static_cast<double>(samples.size());
}

// Independent, well-mixed seed for chunk `index` of a run (splitmix64).
uint64_t ChunkSeed(uint64_t seed, int64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Open-loop arrivals for one chunk: Poisson arrivals conditioned on `count`
// landing in a window of count x mean_gap (sorted uniform arrival times), and
// Zipf(kZipfS) popularity with every function appearing exactly its share of
// `count` (largest-remainder rounding; rank i+1 is function index i, as in
// SampleArrivalMix), in seeded random order. The seed changes which arrival is
// which and when, not how much work a chunk holds, so chunks are comparable.
std::vector<Arrival> StratifiedZipfArrivals(size_t functions, int64_t count, Duration mean_gap,
                                            uint64_t seed) {
  std::vector<double> share(functions);
  double total = 0;
  for (size_t i = 0; i < functions; ++i) {
    share[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    total += share[i];
  }
  std::vector<size_t> order;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t i = 0; i < functions; ++i) {
    const double exact = static_cast<double>(count) * share[i] / total;
    const auto whole = static_cast<size_t>(exact);
    order.insert(order.end(), whole, i);
    remainders.emplace_back(exact - static_cast<double>(whole), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t j = 0; order.size() < static_cast<size_t>(count); ++j) {
    order.push_back(remainders[j].second);
  }

  Rng rng(seed);
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.NextBelow(k)]);
  }
  const double window_ns = static_cast<double>(count) * static_cast<double>(mean_gap.nanos());
  std::vector<int64_t> at(order.size());
  for (int64_t& t : at) {
    t = static_cast<int64_t>(rng.NextDouble() * window_ns);
  }
  std::sort(at.begin(), at.end());
  std::vector<Arrival> arrivals(order.size());
  int64_t previous = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    arrivals[k].function_index = order[k];
    arrivals[k].gap = Duration::Nanos(std::max<int64_t>(at[k] - previous, 1));
    previous += arrivals[k].gap.nanos();
  }
  return arrivals;
}

// Additive work totals of one or more chunks; the per-layer count metrics are
// derived from them (see CountMetrics).
using Counts = std::map<std::string, double>;

void AddCounts(Counts* into, const Counts& from) {
  for (const auto& [key, value] : from) {
    (*into)[key] += value;
  }
}

struct Chunk {
  int64_t arrivals = 0;     // simulated requests attempted
  int64_t invocations = 0;  // simulated invocations that ran to completion
  int64_t failed = 0;       // requests covered by a failed check
  double timed_s = 0;       // host seconds of the chunk
  size_t cpu = 0;           // CPU slot the chunk ran on
  std::vector<double> op_ms;
  uint64_t events = 0;      // simulation events processed by the harness's Run calls
  int64_t epochs = 0;       // cluster barrier epochs
  uint64_t digest = 0;
  Counts counts;
  std::vector<std::string> violations;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds all state: platform or cluster construction and every record phase.
  virtual void SetUp(SpanRecorder* spans) = 0;
  // Runs chunk `index` on the state SetUp built (and earlier chunks left).
  virtual Chunk RunChunk(int64_t index, SpanRecorder* spans) = 0;
};

// ---------------------------------------------------------------------------
// restore-sweep: each of the nine benchmark functions recorded once with input
// A on its own Platform; then rounds of function x {firecracker, cached, reap,
// faasnap}, closed loop, one invocation at a time, caches dropped before each.
// A round draws one fresh content seed shared by its four modes.

class RestoreSweep final : public Workload {
 public:
  explicit RestoreSweep(uint64_t seed) : seed_(seed) {}

  void SetUp(SpanRecorder* spans) override {
    for (const std::string& name : BenchmarkFunctionNames()) {
      Result<FunctionSpec> spec = FindFunction(name);
      FAASNAP_CHECK_OK(spec.status());
      PlatformConfig config;
      config.seed = seed_;
      Function f;
      {
        ScopedSpan s(spans, "runtime.platform_new");
        f.platform = std::make_unique<Platform>(config);
        f.generator = std::make_unique<TraceGenerator>(*spec, config.layout);
      }
      ScopedSpan s(spans, "core.record");
      f.snapshot = f.platform->Record(*f.generator, MakeInputA(*spec));
      functions_.push_back(std::move(f));
    }
  }

  Chunk RunChunk(int64_t index, SpanRecorder* spans) override {
    Chunk c;
    const uint64_t content_seed = Rng(ChunkSeed(seed_ ^ kContentSalt, index)).NextU64();
    Digest digest;
    const Clock::time_point start = Clock::now();
    for (Function& f : functions_) {
      const WorkloadInput input{.content_seed = content_seed,
                                .profile = f.generator->spec().input_a};
      for (RestoreMode mode : kSweepModes) {
        Invoke(&f, mode, input, spans, &c, &digest);
      }
    }
    c.timed_s = SecondsBetween(start, Clock::now());
    c.digest = digest.value();
    c.counts["invocations"] = static_cast<double>(c.invocations);
    c.counts["sim.events"] = static_cast<double>(c.events);
    return c;
  }

 private:
  struct Function {
    std::unique_ptr<Platform> platform;
    std::unique_ptr<TraceGenerator> generator;
    FunctionSnapshot snapshot;
  };

  // One op: drop caches, generate the trace, restore and run to completion.
  void Invoke(Function* f, RestoreMode mode, const WorkloadInput& input, SpanRecorder* spans,
              Chunk* c, Digest* digest) {
    InvocationReport report;
    bool done = false;
    Simulation* sim = f->platform->sim();
    const uint64_t events_before = sim->processed_events();
    const int64_t op = next_op_++;
    const Clock::time_point op_start = Clock::now();
    {
      ScopedSpan op_span(spans, "harness.op", op);
      {
        ScopedSpan s(spans, "mem.drop_caches", op);
        f->platform->DropCaches();
      }
      InvocationTrace trace;
      {
        ScopedSpan s(spans, "workloads.generate", op);
        trace = f->generator->Generate(input);
      }
      {
        ScopedSpan s(spans, "runtime.invoke_async", op);
        f->platform->InvokeAsync(f->snapshot, mode, std::move(trace),
                                 [&](InvocationReport r) {
                                   report = std::move(r);
                                   done = true;
                                 });
      }
      ScopedSpan s(spans, "sim.run", op);
      sim->Run();
    }
    c->op_ms.push_back(SecondsBetween(op_start, Clock::now()) * 1e3);
    c->events += sim->processed_events() - events_before;
    ++c->arrivals;

    if (!done || report.outcome != InvocationOutcome::kOk || report.disk.failed_requests != 0) {
      ++c->failed;
      c->violations.push_back(f->generator->spec().name + "/" +
                              std::string(RestoreModeName(mode)) + " ended " +
                              report.OutcomeTag());
    } else {
      ++c->invocations;
    }
    digest->Add(report.function);
    digest->Add(report.mode);
    digest->Add(report.OutcomeTag());
    digest->Add(report.setup_time);
    digest->Add(report.invocation_time);
    for (int64_t count : report.faults.counts) {
      digest->Add(count);
    }
    digest->Add(report.faults.total_fault_time);
    digest->Add(report.faults.total_wait_time);
    digest->Add(report.faults.fault_disk_requests);
    digest->Add(report.fetch_time);
    digest->Add(report.fetch_bytes);
    digest->Add(report.guest_pagefault_bytes);
    digest->Add(report.mmap_calls);
    digest->Add(report.disk.read_requests);
    digest->Add(report.disk.bytes_read);
    digest->Add(report.disk.demand_wait_ns);
    digest->Add(report.anon_resident_pages);
    digest->Add(report.page_cache_pages);

    static constexpr std::pair<const char*, FaultClass> kClasses[] = {
        {"faults.anonymous", FaultClass::kAnonymous},
        {"faults.minor", FaultClass::kMinor},
        {"faults.major", FaultClass::kMajor},
        {"faults.inflight-wait", FaultClass::kInFlightWait},
        {"faults.uffd-preinstalled", FaultClass::kUffdPreinstalled},
        {"faults.uffd-handled", FaultClass::kUffdHandled}};
    for (const auto& [key, fault_class] : kClasses) {
      c->counts[key] += static_cast<double>(report.faults.count(fault_class));
    }
    c->counts["storage.read_requests"] += static_cast<double>(report.disk.read_requests);
    c->counts["storage.read_bytes"] += static_cast<double>(report.disk.bytes_read);
    c->counts["storage.demand_wait_ms"] += report.disk.demand_wait_ns.millis();
    c->counts["core.fetch_bytes"] += static_cast<double>(report.fetch_bytes.value());
  }

  uint64_t seed_;
  std::vector<Function> functions_;
  int64_t next_op_ = 0;
};

// ---------------------------------------------------------------------------
// host-serving: one Platform plus an open-loop HostScheduler serving the nine
// functions from a 1 GiB warm pool. Each chunk is one open-loop session; the
// harness offers each window's arrivals, then advances the simulation to the
// window's end. The warm pool and page cache carry over between sessions.

void AddHostStats(Digest* d, const HostSchedulerStats& s) {
  for (int64_t v : {s.arrivals, s.invocations, s.warm_hits, s.misses, s.evictions,
                    s.expirations, s.restore_failures, s.quarantines, s.quarantined_serves,
                    s.shed_queue_full, s.shed_deadline, s.queued, s.fairness_deferrals,
                    s.pressure_demotions, s.pressure_transitions}) {
    d->Add(v);
  }
  d->Add(static_cast<int64_t>(s.max_in_flight));
  d->Add(static_cast<uint64_t>(s.max_queue_depth));
  d->Add(static_cast<int64_t>(s.max_pressure_level));
  d->Add(static_cast<int64_t>(s.final_pressure_level));
  d->Add(s.latency_ms);
  d->Add(s.miss_latency_ms);
  d->Add(s.queue_wait_ms);
  d->Add(s.avg_pool_bytes);
  d->Add(s.span);
  d->Add(s.drain_time);
  for (double q : {0.5, 0.9, 0.99}) {
    d->Add(s.accepted_latency.EstimateQuantile(q));
  }
  for (int64_t v : s.per_function_hits) {
    d->Add(v);
  }
  for (int64_t v : s.per_function_invocations) {
    d->Add(v);
  }
}

class HostServing final : public Workload {
 public:
  HostServing(uint64_t seed, int64_t arrivals) : seed_(seed), arrivals_(arrivals) {}

  void SetUp(SpanRecorder* spans) override {
    PlatformConfig platform_config;
    platform_config.seed = seed_;
    HostSchedulerConfig config;
    config.open_loop = true;
    config.warm_pool_budget_bytes = GiB(1);
    {
      ScopedSpan s(spans, "runtime.platform_new");
      platform_ = std::make_unique<Platform>(platform_config);
      scheduler_ = std::make_unique<HostScheduler>(platform_.get(), config);
    }
    for (const std::string& name : BenchmarkFunctionNames()) {
      Result<FunctionSpec> spec = FindFunction(name);
      FAASNAP_CHECK_OK(spec.status());
      ScopedSpan s(spans, "core.record");
      scheduler_->AddFunction(*spec);
    }
  }

  Chunk RunChunk(int64_t index, SpanRecorder* spans) override {
    Chunk c;
    const std::vector<Arrival> arrivals = StratifiedZipfArrivals(
        scheduler_->function_count(), arrivals_, kServingMeanGap, ChunkSeed(seed_, index));
    Simulation* sim = platform_->sim();
    const BlockDeviceStats disk_before = platform_->disk()->stats();
    const std::vector<TimedArrival> schedule =
        BuildOpenLoopSchedule(arrivals, sim->now(), nullptr);

    const Clock::time_point start = Clock::now();
    HostSchedulerStats stats;
    {
      ScopedSpan s(spans, "runtime.begin_open_loop");
      scheduler_->BeginOpenLoop();
    }
    size_t next = 0;
    SimTime window_end = sim->now();
    while (next < schedule.size() || !scheduler_->OpenLoopIdle()) {
      window_end = window_end + kServingWindow;
      const int64_t op = next_op_++;
      const Clock::time_point op_start = Clock::now();
      {
        ScopedSpan op_span(spans, "harness.op", op);
        while (next < schedule.size() && schedule[next].at < window_end) {
          ScopedSpan s(spans, "runtime.offer", op);
          scheduler_->OfferAt(schedule[next].function_index, schedule[next].at);
          ++next;
        }
        const uint64_t events_before = sim->processed_events();
        {
          ScopedSpan s(spans, "sim.run", op);
          sim->RunUntil(window_end);
        }
        c.events += sim->processed_events() - events_before;
      }
      c.op_ms.push_back(SecondsBetween(op_start, Clock::now()) * 1e3);
    }
    {
      ScopedSpan s(spans, "runtime.finish_open_loop");
      stats = scheduler_->FinishOpenLoop();
    }
    c.timed_s = SecondsBetween(start, Clock::now());
    const BlockDeviceStats disk = platform_->disk()->stats() - disk_before;

    c.arrivals = static_cast<int64_t>(schedule.size());
    c.invocations = stats.invocations;
    if (stats.arrivals != c.arrivals || stats.invocations + stats.shed() != stats.arrivals) {
      c.violations.push_back("arrivals != invocations + sheds");
    }
    if (stats.restore_failures != 0 || disk.failed_requests != 0) {
      c.violations.push_back("failed restores or disk requests in a run without chaos");
    }
    if (!c.violations.empty()) {
      c.failed = c.arrivals;
    }
    Digest digest;
    AddHostStats(&digest, stats);
    digest.Add(disk.read_requests);
    digest.Add(disk.bytes_read);
    digest.Add(disk.demand_wait_ns);
    c.digest = digest.value();

    c.counts["invocations"] = static_cast<double>(stats.invocations);
    c.counts["sim.events"] = static_cast<double>(c.events);
    c.counts["storage.read_requests"] = static_cast<double>(disk.read_requests);
    c.counts["storage.read_bytes"] = static_cast<double>(disk.bytes_read);
    c.counts["storage.demand_wait_ms"] = disk.demand_wait_ns.millis();
    c.counts["runtime.warm_hits"] = static_cast<double>(stats.warm_hits);
    c.counts["runtime.shed"] = static_cast<double>(stats.shed());
    c.counts["runtime.evictions"] = static_cast<double>(stats.evictions);
    c.counts["runtime.queue_wait_sum_ms"] = stats.queue_wait_ms.sum();
    c.counts["runtime.queue_waits"] = static_cast<double>(stats.queue_wait_ms.count());
    return c;
  }

 private:
  uint64_t seed_;
  int64_t arrivals_;
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<HostScheduler> scheduler_;  // declared after platform_: destroyed first
  int64_t next_op_ = 0;
};

// ---------------------------------------------------------------------------
// cluster-fleet: 8 hosts with a 64 MiB pool each, locality routing, 8
// functions. Set-up is AddFunction x 8 (every shard records every function);
// the chunk is one ClusterSimulator::Run. The simulator is one-shot, so the
// harness sets it up again before every chunk. There is no per-op timing.

class ClusterFleet final : public Workload {
 public:
  ClusterFleet(uint64_t seed, int64_t arrivals) : seed_(seed), arrivals_(arrivals) {}

  void SetUp(SpanRecorder* spans) override {
    ClusterConfig config;
    config.hosts = kFleetHosts;
    config.worker_threads = kFleetThreads;
    config.sync_quantum = Duration::Millis(5);
    config.host.warm_pool_budget_bytes = MiB(64);
    config.host.admission.max_concurrency = 4;
    config.host.admission.queue_capacity = 32;
    config.host.admission.queue_deadline = Duration::Seconds(5);
    config.router.policy = RoutingPolicy::kLocality;
    config.platform.seed = seed_;
    {
      ScopedSpan s(spans, "cluster.new");
      cluster_ = std::make_unique<ClusterSimulator>(config);
    }
    for (const std::string& name : FleetFunctions()) {
      Result<FunctionSpec> spec = FindFunction(name);
      FAASNAP_CHECK_OK(spec.status());
      ScopedSpan s(spans, "cluster.add_function");
      cluster_->AddFunction(*spec);
    }
  }

  Chunk RunChunk(int64_t index, SpanRecorder* spans) override {
    Chunk c;
    const std::vector<Arrival> arrivals = StratifiedZipfArrivals(
        FleetFunctions().size(), arrivals_, kFleetMeanGap, ChunkSeed(seed_, index));
    const Clock::time_point start = Clock::now();
    ClusterStats stats;
    {
      ScopedSpan s(spans, "cluster.run");
      stats = cluster_->Run(arrivals);
    }
    c.timed_s = SecondsBetween(start, Clock::now());
    c.epochs = static_cast<int64_t>(stats.epochs);

    c.arrivals = static_cast<int64_t>(arrivals.size());
    c.invocations = stats.invocations;
    int64_t host_arrivals = 0;
    double wait_sum = 0;
    int64_t waits = 0;
    int64_t restore_failures = 0;
    for (const HostSchedulerStats& host : stats.per_host) {
      host_arrivals += host.arrivals;
      restore_failures += host.restore_failures;
      wait_sum += host.queue_wait_ms.sum();
      waits += host.queue_wait_ms.count();
    }
    const RouterStats& routing = stats.routing;
    if (stats.arrivals != c.arrivals || host_arrivals != c.arrivals ||
        routing.routed != c.arrivals ||
        routing.warm_routes + routing.cached_routes + routing.spills + routing.cold_routes !=
            routing.routed) {
      c.violations.push_back("cluster arrivals not conserved across router and hosts");
    }
    if (stats.invocations + stats.shed() != stats.arrivals) {
      c.violations.push_back("arrivals != invocations + sheds");
    }
    if (restore_failures != 0) {
      c.violations.push_back("failed restores in a run without chaos");
    }
    if (!c.violations.empty()) {
      c.failed = c.arrivals;
    }
    JsonWriter summary;
    stats.AppendJson(&summary);
    Digest digest;
    digest.Add(summary.TakeString());
    c.digest = digest.value();

    c.counts["invocations"] = static_cast<double>(stats.invocations);
    c.counts["runtime.warm_hits"] = static_cast<double>(stats.warm_hits);
    c.counts["runtime.shed"] = static_cast<double>(stats.shed());
    c.counts["runtime.evictions"] = static_cast<double>(stats.evictions);
    c.counts["runtime.queue_wait_sum_ms"] = wait_sum;
    c.counts["runtime.queue_waits"] = static_cast<double>(waits);
    c.counts["cluster.epochs"] = static_cast<double>(stats.epochs);
    c.counts["cluster.misses"] = static_cast<double>(stats.misses);
    c.counts["cluster.warm_routes"] = static_cast<double>(routing.warm_routes);
    c.counts["cluster.cached_routes"] = static_cast<double>(routing.cached_routes);
    c.counts["cluster.cold_routes"] = static_cast<double>(routing.cold_routes);
    c.counts["cluster.spills"] = static_cast<double>(routing.spills);
    return c;
  }

 private:
  uint64_t seed_;
  int64_t arrivals_;
  std::unique_ptr<ClusterSimulator> cluster_;
};

// ---------------------------------------------------------------------------
// On a shared machine each vCPU is slowed by its own neighbours, in phases
// that last seconds and differ from CPU to CPU (a fixed loop pinned to each of
// 4 CPUs took a median 0.0063 s to 0.0096 s per slice, uncorrelated across
// CPUs). A single-threaded run left where the scheduler put it measures
// whichever CPU it landed on. So the harness thread visits every CPU it may
// run on in turn, one per set-up and per chunk, and the metrics weigh the
// CPUs equally (MeanOfCpuMedians).
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Number of CPU slots the rotation cycles through (1 when it cannot move).
  size_t slots() const { return std::max<size_t>(cpus_.size(), 1); }

  // Moves the calling thread to the CPU of slot index % slots() and returns
  // that slot. Best effort: if the call fails the thread stays where it is.
  size_t MoveTo(int64_t index) const {
    const size_t slot = static_cast<size_t>(index) % slots();
    if (cpus_.size() >= 2) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[slot], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    return slot;
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  int64_t checked_chunks;   // chunks covered by the digest and the work counts
  // The cluster simulator is one-shot and runs worker threads: it is set up
  // again before every chunk, is not moved between CPUs, and has no public
  // call to time per op.
  bool one_shot;
  // `small`: the self-test's smaller chunks.
  std::unique_ptr<Workload> (*make)(uint64_t seed, bool small);
};

std::unique_ptr<Workload> MakeRestoreSweep(uint64_t seed, bool /*small*/) {
  return std::make_unique<RestoreSweep>(seed);
}
std::unique_ptr<Workload> MakeHostServing(uint64_t seed, bool small) {
  return std::make_unique<HostServing>(
      seed, small ? kServingSelfTestArrivals : kServingArrivalsPerChunk);
}
std::unique_ptr<Workload> MakeClusterFleet(uint64_t seed, bool small) {
  return std::make_unique<ClusterFleet>(seed,
                                        small ? kFleetSelfTestArrivals : kFleetArrivalsPerChunk);
}

constexpr WorkloadDef kWorkloads[] = {
    {"restore-sweep", 4, false, MakeRestoreSweep},
    {"host-serving", 4, false, MakeHostServing},
    {"cluster-fleet", 1, true, MakeClusterFleet},
};

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  ByCpu setup_s;
  std::vector<Chunk> chunks;
  std::vector<bool> traced;
  uint64_t digest = 0;  // over the checked chunks
  Counts counts;        // over the checked chunks
};

double ChunkRate(const Chunk& c) {
  return c.timed_s > 0 ? static_cast<double>(c.invocations) / c.timed_s : 0.0;
}

size_t FewestOpsOnACpu(const std::vector<Chunk>& chunks, size_t slots) {
  std::vector<size_t> ops(slots, 0);
  for (const Chunk& c : chunks) {
    ops[c.cpu] += c.op_ms.size();
  }
  return *std::min_element(ops.begin(), ops.end());
}

// Sets up, then runs chunks until `seconds` of host time (set-up included)
// are spent, the checked chunks ran and (outside the self-test) every CPU
// timed kMinOpsPerCpu ops. Under tracing, set-ups and chunks alternate
// between untraced and traced rotation cycles, so the tracing overhead
// compares interleaved samples from the same CPUs.
RunOutcome RunWorkload(const WorkloadDef& def, uint64_t seed, bool small, double seconds,
                       bool trace, SpanRecorder* spans) {
  RunOutcome out;
  const Clock::time_point start = Clock::now();
  const CpuRotation rotation;
  const size_t slots = def.one_shot ? 1 : rotation.slots();
  const auto move = [&](int64_t index) {
    return def.one_shot ? size_t{0} : rotation.MoveTo(index);
  };
  const auto traced_cycle = [&](int64_t index) {
    return trace && (static_cast<size_t>(index) / slots) % 2 == 1;
  };
  std::unique_ptr<Workload> workload;
  const auto set_up = [&](int64_t index) {
    workload.reset();  // tear-down is not set-up
    const size_t cpu = move(index);
    workload = def.make(seed, small);
    spans->set_enabled(traced_cycle(index));
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan s(spans, "harness.setup");
      workload->SetUp(spans);
    }
    out.setup_s[cpu].push_back(SecondsBetween(t, Clock::now()));
  };
  if (!def.one_shot) {
    for (int64_t k = 0; k < kSetupRepeats; ++k) {
      set_up(k);
    }
  }
  const int64_t min_chunks =
      std::max<int64_t>(def.checked_chunks, trace ? 2 * static_cast<int64_t>(slots) : 1);
  const auto more = [&](int64_t i) {
    return i < min_chunks || SecondsBetween(start, Clock::now()) < seconds ||
           (!def.one_shot && !small && FewestOpsOnACpu(out.chunks, slots) < kMinOpsPerCpu);
  };
  for (int64_t i = 0; more(i); ++i) {
    if (def.one_shot) {
      set_up(i);
    }
    const size_t cpu = move(i);
    const bool traced = traced_cycle(i);
    spans->set_enabled(traced);
    {
      ScopedSpan s(spans, "harness.chunk", i);
      out.chunks.push_back(workload->RunChunk(i, spans));
    }
    out.chunks.back().cpu = cpu;
    out.traced.push_back(traced);
  }
  spans->set_enabled(false);

  Digest digest;
  for (size_t i = 0; i < out.chunks.size(); ++i) {
    const Chunk& c = out.chunks[i];
    if (static_cast<int64_t>(i) < def.checked_chunks) {
      digest.Add(c.digest);
      AddCounts(&out.counts, c.counts);
    }
    out.attempted += c.arrivals;
    out.failed += c.failed;
    for (const std::string& v : c.violations) {
      std::fprintf(stderr, "VIOLATION (%s, chunk %zu): %s\n", def.name, i, v.c_str());
      out.correct = false;
    }
  }
  out.digest = digest.value();
  return out;
}

bool DigestMatchesPin(const WorkloadDef& def, uint64_t seed, uint64_t digest) {
  for (const PinnedDigest& pin : kPinnedDigests) {
    if (def.name == std::string_view(pin.workload) && pin.seed == seed && pin.digest != digest) {
      std::fprintf(stderr, "VIOLATION (%s): digest %016llx differs from the pinned %016llx\n",
                   def.name, static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(pin.digest));
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEndMetrics(const WorkloadDef& def, const RunOutcome& out) {
  std::vector<Metric> m;
  ByCpu rates, ops;
  for (const Chunk& c : out.chunks) {
    rates[c.cpu].push_back(ChunkRate(c));
    ops[c.cpu].insert(ops[c.cpu].end(), c.op_ms.begin(), c.op_ms.end());
  }
  const double rate = MeanOfCpuMedians(rates);
  m.push_back({"invocations_per_s", rate, "1/s"});
  if (!def.one_shot) {
    const std::optional<double> p50 = MeanOfCpuPercentiles(ops, 0.50);
    const std::optional<double> p99 = MeanOfCpuPercentiles(ops, 0.99);
    if (p50) {
      m.push_back({"op_ms_p50", *p50, "ms"});
    }
    if (p99) {
      m.push_back({"op_ms_p99", *p99, "ms"});
    } else {
      std::fprintf(stderr, "note: op_ms_p99 needs at least 1000 ops timed on every CPU\n");
    }
  } else {
    // No per-op host timing exists. Every metric must be reported, so both
    // fields carry the host milliseconds per simulated invocation at the
    // median chunk rate (1000 / invocations_per_s).
    m.push_back({"op_ms_p50", rate > 0 ? 1e3 / rate : 0.0, "ms"});
    m.push_back({"op_ms_p99", rate > 0 ? 1e3 / rate : 0.0, "ms"});
  }
  m.push_back({"setup_s", MeanOfCpuMedians(out.setup_s), "s"});
  m.push_back({"peak_rss_mib", PeakRssMiB(), "MiB"});
  return m;
}

// Deterministic work counts over the checked chunks, named as in
// METHODOLOGY.md. A count a workload cannot observe through public stats is 0.
std::vector<Metric> CountMetrics(const Counts& counts) {
  const auto get = [&counts](const std::string& key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double invocations = get("invocations");
  const double mib = static_cast<double>(MiB(1).value());
  std::vector<Metric> m;
  m.push_back({"sim.events_per_invocation", ratio(get("sim.events"), invocations), "count"});
  for (const char* c : {"anonymous", "minor", "major", "inflight-wait", "uffd-preinstalled",
                        "uffd-handled"}) {
    m.push_back({std::string("mem.faults_per_invocation.") + c,
                 ratio(get(std::string("faults.") + c), invocations), "count"});
  }
  m.push_back({"storage.read_requests", get("storage.read_requests"), "count"});
  m.push_back({"storage.read_mib", get("storage.read_bytes") / mib, "MiB"});
  m.push_back({"storage.demand_wait_ms", get("storage.demand_wait_ms"), "ms"});
  m.push_back({"core.fetch_mib", get("core.fetch_bytes") / mib, "MiB"});
  m.push_back({"runtime.warm_hit_rate", ratio(get("runtime.warm_hits"), invocations), "ratio"});
  m.push_back({"runtime.shed", get("runtime.shed"), "count"});
  m.push_back({"runtime.evictions", get("runtime.evictions"), "count"});
  m.push_back({"runtime.queue_wait_ms",
               ratio(get("runtime.queue_wait_sum_ms"), get("runtime.queue_waits")), "ms"});
  m.push_back({"cluster.epochs", get("cluster.epochs"), "count"});
  m.push_back({"cluster.cold_start_rate", ratio(get("cluster.misses"), invocations), "ratio"});
  m.push_back({"cluster.warm_routes", get("cluster.warm_routes"), "count"});
  m.push_back({"cluster.cached_routes", get("cluster.cached_routes"), "count"});
  m.push_back({"cluster.cold_routes", get("cluster.cold_routes"), "count"});
  m.push_back({"cluster.spills", get("cluster.spills"), "count"});
  return m;
}

// Host-time metrics of the layers, from the spans of the traced set-ups and
// chunks. A layer the workload never calls reads 0.
std::vector<Metric> LayerTimeMetrics(const SpanRecorder& spans, const RunOutcome& out) {
  const std::map<std::string, SpanTotals> totals = spans.Totals();
  const auto total_ns = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto mean_ns = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.total_ns) /
                                    static_cast<double>(it->second.calls);
  };
  uint64_t traced_events = 0;
  int64_t traced_epochs = 0, traced_chunks = 0;
  ByCpu traced_rates, untraced_rates;
  for (size_t i = 0; i < out.chunks.size(); ++i) {
    const Chunk& c = out.chunks[i];
    if (out.traced[i]) {
      traced_events += c.events;
      traced_epochs += c.epochs;
      ++traced_chunks;
      traced_rates[c.cpu].push_back(ChunkRate(c));
    } else {
      untraced_rates[c.cpu].push_back(ChunkRate(c));
    }
  }
  double harness_self_ns = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("harness.", 0) == 0) {
      harness_self_ns += static_cast<double>(t.self_ns);
    }
  }
  const double traced_rate = MeanOfCpuMedians(traced_rates);
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::vector<Metric> m;
  m.push_back({"workloads.generate_ms", mean_ns("workloads.generate") / 1e6, "ms"});
  m.push_back({"core.record_ms", mean_ns("core.record") / 1e6, "ms"});
  m.push_back({"runtime.invoke_async_us", mean_ns("runtime.invoke_async") / 1e3, "us"});
  m.push_back({"runtime.offer_us", mean_ns("runtime.offer") / 1e3, "us"});
  m.push_back({"sim.run_ms", mean_ns("sim.run") / 1e6, "ms"});
  m.push_back({"sim.ns_per_event",
               per(total_ns("sim.run"), static_cast<double>(traced_events)), "ns"});
  m.push_back({"cluster.add_function_ms", mean_ns("cluster.add_function") / 1e6, "ms"});
  m.push_back({"cluster.run_s", mean_ns("cluster.run") / 1e9, "s"});
  m.push_back({"cluster.ms_per_epoch",
               per(total_ns("cluster.run") / 1e6, static_cast<double>(traced_epochs)), "ms"});
  m.push_back({"harness.self_ms",
               per(harness_self_ns / 1e6, static_cast<double>(traced_chunks)), "ms"});
  m.push_back({"harness.tracing_overhead_pct",
               traced_rate > 0 ? (MeanOfCpuMedians(untraced_rates) / traced_rate - 1.0) * 100.0
                               : 0.0,
               "%"});
  return m;
}

std::string ResultLine(const RunOutcome& out, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return line + "}}";
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int64_t seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

int RunBenchmark(const Options& options) {
  const WorkloadDef& def = *FindWorkload(options.workload);
  SpanRecorder spans;
  RunOutcome out = RunWorkload(def, options.seed, /*small=*/false,
                               static_cast<double>(options.seconds), options.trace, &spans);
  if (!DigestMatchesPin(def, options.seed, out.digest)) {
    out.correct = false;
    for (int64_t i = 0; i < def.checked_chunks; ++i) {
      out.failed += out.chunks[static_cast<size_t>(i)].arrivals -
                    out.chunks[static_cast<size_t>(i)].failed;
    }
  }
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = LayerTimeMetrics(spans, out);
    const std::vector<Metric> counts = CountMetrics(out.counts);
    metrics.insert(metrics.end(), counts.begin(), counts.end());
    if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  } else {
    metrics = EndToEndMetrics(def, out);
  }

  std::vector<double> rates;
  for (const Chunk& c : out.chunks) {
    rates.push_back(ChunkRate(c));
  }
  std::sort(rates.begin(), rates.end());
  std::fprintf(stderr,
               "%s seed=%llu: %zu chunks (rate min %.1f / median %.1f / max %.1f per s), "
               "attempted=%lld failed=%lld digest=%016llx\n",
               def.name, static_cast<unsigned long long>(options.seed), out.chunks.size(),
               rates.front(), Median(rates), rates.back(), static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed), static_cast<unsigned long long>(out.digest));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultLine(out, metrics).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every workload at a small size runs twice with the same seed,
// once untraced and once traced; both must simulate identical outputs and
// counts. The traced run must leave a parseable trace holding a span for every
// public call it makes, and the percentile helper must refuse a p99 from fewer
// than 1000 samples.

const std::vector<const char*>& ExpectedSpans(std::string_view workload) {
  static const std::vector<const char*> kRestoreSweep = {
      "runtime.platform_new", "core.record",          "mem.drop_caches",
      "workloads.generate",   "runtime.invoke_async", "sim.run"};
  static const std::vector<const char*> kHostServing = {
      "runtime.platform_new", "core.record", "runtime.begin_open_loop",
      "runtime.offer",        "sim.run",     "runtime.finish_open_loop"};
  static const std::vector<const char*> kClusterFleet = {"cluster.new", "cluster.add_function",
                                                         "cluster.run"};
  return workload == "restore-sweep"  ? kRestoreSweep
         : workload == "host-serving" ? kHostServing
                                      : kClusterFleet;
}

bool TraceRoundTrips(const SpanRecorder& spans, const std::string& path, std::string_view name) {
  if (!spans.WriteChromeTrace(path)) {
    return false;
  }
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());
  Result<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) {
    return false;
  }
  Result<JsonValue> events = doc->Get("traceEvents");
  if (!events.ok() || !events->is_array() || events->array().size() != spans.spans().size()) {
    return false;
  }
  bool covered = true;
  for (const char* expected : ExpectedSpans(name)) {
    bool found = false;
    for (const JsonValue& event : events->array()) {
      found = found || event.GetStringOr("name", "") == expected;
    }
    if (!found) {
      std::fprintf(stderr, "     no span named %s\n", expected);
    }
    covered = covered && found;
  }
  return covered;
}

int SelfTest(const std::string& trace_path) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };

  check(!Percentile(std::vector<double>(999, 1.0), 0.99).has_value(),
        "percentile helper refuses p99 from 999 samples");
  check(Percentile(std::vector<double>(1000, 1.0), 0.99).has_value(),
        "percentile helper reports p99 from 1000 samples");
  check(!Percentile(std::vector<double>(19, 1.0), 0.50).has_value(),
        "percentile helper refuses p50 from 19 samples");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) {
    ramp.push_back(i);
  }
  check(Percentile(ramp, 0.99) == 990.0 && Percentile(ramp, 0.50) == 500.0,
        "percentile helper uses nearest rank");

  for (const WorkloadDef& def : kWorkloads) {
    const std::string name = def.name;
    SpanRecorder untraced_spans, traced_spans;
    const RunOutcome a = RunWorkload(def, 7, /*small=*/true, 0.0, false, &untraced_spans);
    const RunOutcome b = RunWorkload(def, 7, /*small=*/true, 0.0, true, &traced_spans);
    check(a.digest == b.digest, name + ": same seed, same digest (untraced vs traced)");
    check(a.counts == b.counts && !a.counts.empty(),
          name + ": same seed, same per-layer counts (untraced vs traced)");
    check(a.correct && b.correct && a.failed == 0 && a.attempted > 0, name + ": invariants hold");
    check(untraced_spans.spans().empty(), name + ": untraced run records no spans");
    check(TraceRoundTrips(traced_spans, trace_path, name),
          name + ": trace parses and has a span for every public call");
  }
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Strict argument parsing: every flag known, every value well-formed, every
// required flag present; anything else prints usage and exits 2.

bool ParseInt(std::string_view text, int64_t lo, int64_t hi, int64_t* out) {
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseSeed(std::string_view text, uint64_t* out) {
  uint64_t v = 0;
  if (text.empty() || text[0] == '-') {
    return false;
  }
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  const auto fail = [](const std::string& why) {
    std::fprintf(stderr, "error: %s\n%s", why.c_str(), kUsage);
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") {
      options->self_test = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace" &&
        flag != "--trace-out") {
      return fail("unknown argument '" + std::string(flag) + "'");
    }
    if (i + 1 >= argc) {
      return fail(std::string(flag) + " needs a value");
    }
    const std::string_view value = argv[++i];
    int64_t n = 0;
    if (flag == "--workload") {
      if (FindWorkload(value) == nullptr) {
        return fail("unknown workload '" + std::string(value) + "'");
      }
      options->workload = value;
    } else if (flag == "--seed") {
      if (!ParseSeed(value, &options->seed)) {
        return fail("--seed must be a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &options->seconds)) {
        return fail("--seconds must be an integer in 1..600");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) {
        return fail("--trace must be 0 or 1");
      }
      options->trace = n == 1;
      have_trace = true;
    } else {
      options->trace_out = value;
    }
  }
  if (options->self_test) {
    return true;
  }
  if (options->workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return fail("--workload, --seed, --seconds and --trace are required");
  }
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace faasnap

int main(int argc, char** argv) {
  using faasnap::perfbench::kUsage;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  faasnap::perfbench::Options options;
  if (!faasnap::perfbench::ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (options.self_test) {
    return faasnap::perfbench::SelfTest(options.trace_out.empty() ? "selftest.trace.json"
                                                                  : options.trace_out);
  }
  return faasnap::perfbench::RunBenchmark(options);
}

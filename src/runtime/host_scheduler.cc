#include "src/runtime/host_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/obs/observability.h"

namespace faasnap {

namespace {

// Miss modes the pressure ladder may demote to WS-only REAP at L2+: anything
// that prefetches or loads beyond the recorded working set. Warm/cold-boot
// serves and REAP itself have nothing to shed.
bool DemotableToReap(RestoreMode mode) {
  return mode == RestoreMode::kFaasnap || mode == RestoreMode::kFaasnapPerRegion ||
         mode == RestoreMode::kFaasnapConcurrentOnly || mode == RestoreMode::kCached;
}

Duration ScaleDuration(Duration d, double scale) {
  if (scale >= 1.0) {
    return d;
  }
  return Duration::Nanos(static_cast<int64_t>(static_cast<double>(d.nanos()) * scale));
}

}  // namespace

HostScheduler::HostScheduler(Platform* platform, HostSchedulerConfig config)
    : platform_(platform), config_(config) {
  FAASNAP_CHECK(platform_ != nullptr);
  FAASNAP_CHECK(!config_.warm_pool_budget_bytes.is_zero());
}

HostScheduler::~HostScheduler() = default;

size_t HostScheduler::AddFunction(const FunctionSpec& spec) {
  auto entry = std::make_unique<Entry>();
  entry->owned_generator =
      std::make_unique<TraceGenerator>(spec, platform_->config().layout);
  entry->owned_snapshot = std::make_unique<FunctionSnapshot>(
      platform_->Record(*entry->owned_generator, MakeInputA(spec)));
  entry->generator = entry->owned_generator.get();
  entry->snapshot = entry->owned_snapshot.get();
  entry->ws_bytes =
      PagesToBytes(PageCount::FromPages(entry->snapshot->record_touched.page_count()));
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

size_t HostScheduler::AddRecordedFunction(const FunctionSnapshot* snapshot,
                                          const TraceGenerator* generator) {
  FAASNAP_CHECK(snapshot != nullptr && generator != nullptr);
  auto entry = std::make_unique<Entry>();
  entry->generator = generator;
  entry->snapshot = snapshot;
  entry->ws_bytes = PagesToBytes(PageCount::FromPages(snapshot->record_touched.page_count()));
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

void HostScheduler::MarkWarm(Entry* entry, SimTime now) {
  if (entry->warm) {
    lru_.erase(entry->lru_it);
  } else {
    entry->warm = true;
    pool_bytes_ += entry->ws_bytes;
  }
  entry->last_used = now;
  lru_.push_back(entry);
  entry->lru_it = std::prev(lru_.end());
}

void HostScheduler::MarkCold(Entry* entry) {
  if (!entry->warm) {
    return;
  }
  entry->warm = false;
  FAASNAP_CHECK(pool_bytes_ >= entry->ws_bytes);
  pool_bytes_ -= entry->ws_bytes;
  lru_.erase(entry->lru_it);
}

void HostScheduler::EvictToFit(ByteCount needed, HostSchedulerStats* stats) {
  // LRU eviction under pool pressure ("evict to snapshot"). If nothing is left
  // to evict, the new VM may exceed the budget alone.
  while (pool_bytes_ + needed > config_.warm_pool_budget_bytes && !lru_.empty()) {
    MarkCold(lru_.front());
    stats->evictions++;
  }
}

void HostScheduler::EvictIdleBytes(ByteCount bytes, HostSchedulerStats* stats) {
  ByteCount freed;
  while (freed < bytes && !lru_.empty()) {
    freed += lru_.front()->ws_bytes;
    MarkCold(lru_.front());
    stats->evictions++;
  }
}

// Live state of one run. Heap-held (stable address) because the admission
// hooks, pressure overrides, and completion callbacks all point into it while
// the run is in flight — possibly across many cluster epochs.
struct HostScheduler::OpenLoopState {
  explicit OpenLoopState(const PressureLadderConfig& ladder_config) : ladder(ladder_config) {}

  HostSchedulerStats stats;
  PressureLadder ladder;
  Platform::PressureOverrides overrides;
  std::unique_ptr<AdmissionController> admission;

  // Time-weighted resident bytes: the idle pool plus the predicted footprint
  // of admitted in-flight work.
  double pool_byte_time = 0;
  SimTime span_start;
  SimTime last_accrual;
  SimTime last_outcome;
  int64_t shed_count = 0;
  int64_t offered = 0;

  // Per-arrival content seeds, drawn when the arrival event fires — which is
  // offer order — so the input stream does not depend on dispatch
  // interleaving, and an epoch-wise driver produces the same stream as an
  // up-front schedule. seeds[id] keys AdmissionRequest::id.
  uint64_t arrival_seed = 0x5c4ed;
  std::vector<uint64_t> seeds;

  bool have_offer = false;
  SimTime last_offer_at;

  Counter* warm_hits_metric = nullptr;
  Counter* misses_metric = nullptr;
  Gauge* pool_gauge = nullptr;
  Counter* shed_metrics[2] = {};  // queue_full, deadline
};

void HostScheduler::BeginOpenLoop() {
  FAASNAP_CHECK(open_loop_ == nullptr);
  open_loop_ = std::make_unique<OpenLoopState>(config_.ladder);
  OpenLoopState& ol = *open_loop_;
  ol.stats.per_function_hits.assign(entries_.size(), 0);
  ol.stats.per_function_invocations.assign(entries_.size(), 0);
  Simulation* sim = platform_->sim();
  ol.span_start = sim->now();
  ol.last_accrual = ol.span_start;
  ol.last_outcome = ol.span_start;

  MetricsRegistry* metrics = platform_->metrics();
  if (metrics != nullptr) {
    ol.warm_hits_metric = metrics->GetCounter("scheduler.warm_hits");
    ol.misses_metric = metrics->GetCounter("scheduler.misses");
    ol.pool_gauge = metrics->GetGauge("scheduler.pool_bytes");
    ol.shed_metrics[0] = metrics->GetCounter("scheduler.shed", {{"reason", "queue_full"}});
    ol.shed_metrics[1] = metrics->GetCounter("scheduler.shed", {{"reason", "deadline"}});
  }

  platform_->set_pressure_overrides(&ol.overrides);

  AdmissionController::Hooks hooks;
  hooks.pinned_bytes = [this] { return pool_bytes_; };
  hooks.make_room = [this](ByteCount bytes) { EvictIdleBytes(bytes, &open_loop_->stats); };
  hooks.shed = [this](const AdmissionRequest& request, InvocationOutcome outcome, Duration wait) {
    OpenLoopShed(request, outcome, wait);
  };
  hooks.run = [this](const AdmissionRequest& request, Duration wait) {
    OpenLoopRun(request, wait);
  };
  ol.admission = std::make_unique<AdmissionController>(sim, config_.admission, std::move(hooks));
}

void HostScheduler::OfferAt(size_t function_index, SimTime at) {
  FAASNAP_CHECK(open_loop_ != nullptr);
  FAASNAP_CHECK(function_index < entries_.size());
  OpenLoopState& ol = *open_loop_;
  ++ol.offered;
  if (!ol.have_offer || at > ol.last_offer_at) {
    ol.have_offer = true;
    ol.last_offer_at = at;
  }
  platform_->sim()->Schedule(at, [this, function_index] { OpenLoopArrival(function_index); });
}

void HostScheduler::OpenLoopAccrue(SimTime now) {
  OpenLoopState& ol = *open_loop_;
  const auto accrue_until = [&](SimTime t) {
    if (t > ol.last_accrual) {
      ol.pool_byte_time +=
          static_cast<double>((pool_bytes_ + ol.admission->committed_bytes()).value()) *
          (t - ol.last_accrual).seconds();
      ol.last_accrual = t;
    }
  };
  // Idle VMs past the keep-alive horizon were reclaimed at their expiry, not
  // at this event: charge each one only up to its own expiry. The LRU list is
  // ordered by last_used, so the expired entries are exactly its prefix. L3
  // tightens the horizon; idle VMs go back to snapshots sooner.
  const Duration horizon = ScaleDuration(config_.keep_warm, ol.ladder.keep_warm_scale());
  while (!lru_.empty() && now - lru_.front()->last_used > horizon) {
    accrue_until(lru_.front()->last_used + horizon);
    MarkCold(lru_.front());
    ol.stats.expirations++;
  }
  accrue_until(now);
}

void HostScheduler::OpenLoopUpdateLadder() {
  OpenLoopState& ol = *open_loop_;
  ol.ladder.Update(ol.admission->memory_utilization(), platform_->storage()->DemandPressure());
  ol.overrides.readahead_scale = ol.ladder.readahead_scale();
  ol.overrides.loader_depth_cap = ol.ladder.loader_depth_cap();
}

void HostScheduler::OpenLoopArrival(size_t function_index) {
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();
  OpenLoopAccrue(sim->now());
  FaultInjector* chaos = platform_->chaos();
  if (chaos != nullptr) {
    // Chaos memory-squeeze windows shrink the effective admission budget.
    ol.admission->set_budget_scale(chaos->MemoryBudgetFraction(sim->now()));
  }
  OpenLoopUpdateLadder();
  AdmissionRequest request;
  request.id = ol.seeds.size();
  request.function_index = function_index;
  request.predicted_bytes = entries_[function_index]->ws_bytes;
  request.arrival = sim->now();
  ol.seeds.push_back(entries_[function_index]->generator->spec().fixed_input
                         ? 0
                         : ++ol.arrival_seed);
  ol.admission->Offer(request);
}

void HostScheduler::OpenLoopShed(const AdmissionRequest& request, InvocationOutcome outcome,
                                 Duration wait) {
  (void)wait;  // the shed report derives its own wait from request.arrival
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();
  OpenLoopAccrue(sim->now());
  Entry& entry = *entries_[request.function_index];
  Status reason = outcome == InvocationOutcome::kShedQueueFull
                      ? ResourceExhaustedError("admission queue full")
                      : DeadlineExceededError("queueing deadline exceeded");
  platform_->ReportShed(*entry.snapshot, entry.warm ? RestoreMode::kWarm : config_.miss_mode,
                        request.arrival, outcome, std::move(reason));
  Counter* metric = ol.shed_metrics[outcome == InvocationOutcome::kShedQueueFull ? 0 : 1];
  if (metric != nullptr) {
    metric->Add(1);
  }
  ++ol.shed_count;
  ol.last_outcome = sim->now();
  OpenLoopUpdateLadder();
}

void HostScheduler::OpenLoopRun(const AdmissionRequest& request, Duration wait) {
  OpenLoopState& ol = *open_loop_;
  const SimTime now = platform_->sim()->now();
  // Also retires the VMs idle past the keep-alive horizon.
  OpenLoopAccrue(now);
  Entry& entry = *entries_[request.function_index];
  EvictToFit(entry.warm ? ByteCount::Zero() : entry.ws_bytes, &ol.stats);
  const bool warm = entry.warm;
  if (warm) {
    // The warm VM leaves the idle pool while running; its bytes are charged
    // to the admission controller's in-flight accounting instead.
    MarkCold(&entry);
  } else if (!config_.open_loop) {
    // Cold pool slot in the closed loop: this function's pages are not
    // resident; other tenants also recycled the page cache while it idled.
    // (The open loop shares the page cache with concurrent in-flight restores,
    // and dropping it would clobber them mid-flight.)
    platform_->DropCaches();
  }
  ++entry.running;
  ol.stats.queue_wait_ms.Record(wait.millis());

  WorkloadInput input = MakeInputA(entry.generator->spec());
  if (!entry.generator->spec().fixed_input) {
    input.content_seed = ol.seeds[request.id];
  }
  RestoreMode mode = warm ? RestoreMode::kWarm : config_.miss_mode;
  if (!warm && ol.ladder.demote_restore_mode() && DemotableToReap(mode)) {
    // L2: serve the miss WS-only instead of prefetching the full snapshot.
    mode = RestoreMode::kReap;
    ++ol.stats.pressure_demotions;
  }
  if (!warm && now < entry.quarantined_until) {
    // The snapshot is benched after repeated failed restores: cold-boot.
    mode = RestoreMode::kColdBoot;
    ++ol.stats.quarantined_serves;
  }
  SpanId span = kNoSpan;
  if (SpanTracer* spans = platform_->spans(); spans != nullptr) {
    span = spans->Begin(now, ObsLane::kScheduler, obsname::kSchedulerServe,
                        request.function_index, warm ? 1 : 0);
  }
  platform_->InvokeAsync(*entry.snapshot, mode, entry.generator->Generate(input),
                         [this, request, mode, warm, span](InvocationReport report) {
                           OpenLoopComplete(request, mode, warm, span, report);
                         });
}

void HostScheduler::OpenLoopComplete(const AdmissionRequest& request, RestoreMode mode, bool warm,
                                     SpanId span, const InvocationReport& report) {
  OpenLoopState& ol = *open_loop_;
  const SimTime done_at = platform_->sim()->now();
  OpenLoopAccrue(done_at);
  Entry& served = *entries_[request.function_index];
  --served.running;
  if (!warm && mode != RestoreMode::kColdBoot) {
    // Snapshot restore health: bench the snapshot after repeated failures.
    if (report.outcome == InvocationOutcome::kFailed) {
      ++ol.stats.restore_failures;
      if (++served.consecutive_failures >= config_.quarantine_failure_threshold) {
        served.quarantined_until = done_at + config_.quarantine_backoff;
        served.consecutive_failures = 0;
        ++ol.stats.quarantines;
      }
    } else {
      served.consecutive_failures = 0;
    }
  }
  if (SpanTracer* spans = platform_->spans(); spans != nullptr) {
    spans->End(span, done_at);
  }
  const Duration latency = report.total_time();
  ol.stats.invocations++;
  ol.stats.per_function_invocations[request.function_index]++;
  if (warm) {
    ol.stats.warm_hits++;
    ol.stats.per_function_hits[request.function_index]++;
  } else {
    ol.stats.misses++;
    ol.stats.miss_latency_ms.Record(latency.millis());
  }
  ol.stats.latency_ms.Record(latency.millis());
  ol.stats.accepted_latency.Record(latency);
  if (ol.warm_hits_metric != nullptr) {
    (warm ? ol.warm_hits_metric : ol.misses_metric)->Add(1);
  }
  served.served_once = true;
  // A failed invocation leaves no VM behind to keep warm.
  if (report.outcome != InvocationOutcome::kFailed) {
    MarkWarm(&served, done_at);
  } else {
    served.last_used = done_at;
  }
  if (ol.pool_gauge != nullptr) {
    ol.pool_gauge->Set(static_cast<double>(pool_bytes_.value()));
  }
  ol.last_outcome = done_at;
  ol.admission->OnComplete(request);
  OpenLoopUpdateLadder();
}

int64_t HostScheduler::OutstandingLoad() const {
  if (open_loop_ == nullptr) {
    return 0;
  }
  return open_loop_->admission->in_flight() +
         static_cast<int64_t>(open_loop_->admission->queue_depth());
}

bool HostScheduler::OpenLoopIdle() const { return OutstandingLoad() == 0; }

HostSchedulerStats HostScheduler::FinishOpenLoop() {
  FAASNAP_CHECK(open_loop_ != nullptr);
  OpenLoopState& ol = *open_loop_;
  Simulation* sim = platform_->sim();

  // Every offered arrival resolved to exactly one typed outcome.
  FAASNAP_CHECK(ol.stats.invocations + ol.shed_count == ol.offered);
  OpenLoopAccrue(sim->now());

  const AdmissionController::Stats& astats = ol.admission->stats();
  FAASNAP_CHECK(astats.admitted == ol.stats.invocations);
  ol.stats.arrivals = astats.offered;
  ol.stats.shed_queue_full = astats.shed_queue_full;
  ol.stats.shed_deadline = astats.shed_deadline;
  ol.stats.queued = astats.queued;
  ol.stats.fairness_deferrals = astats.fairness_deferrals;
  ol.stats.max_in_flight = astats.max_in_flight;
  ol.stats.max_queue_depth = astats.max_queue_depth;
  ol.stats.pressure_transitions = ol.ladder.transitions();
  ol.stats.max_pressure_level = ol.ladder.max_level();
  ol.stats.final_pressure_level =
      ol.ladder.Update(ol.admission->memory_utilization(), platform_->storage()->DemandPressure());
  if (ol.have_offer && ol.last_outcome > ol.last_offer_at) {
    ol.stats.drain_time = ol.last_outcome - ol.last_offer_at;
  }
  ol.stats.span = sim->now() - ol.span_start;
  if (ol.stats.span > Duration::Zero()) {
    ol.stats.avg_pool_bytes = ol.pool_byte_time / ol.stats.span.seconds();
  }
  MetricsRegistry* metrics = platform_->metrics();
  if (metrics != nullptr) {
    metrics->GetCounter("scheduler.evictions")->Add(ol.stats.evictions);
    metrics->GetCounter("scheduler.expirations")->Add(ol.stats.expirations);
  }
  platform_->set_pressure_overrides(nullptr);
  HostSchedulerStats stats = std::move(ol.stats);
  open_loop_.reset();
  return stats;
}

HostSchedulerStats HostScheduler::Run(const std::vector<Arrival>& arrivals) {
  Simulation* sim = platform_->sim();
  BeginOpenLoop();
  if (config_.open_loop) {
    // Absolute arrival times; chaos burst windows compress the offered gaps.
    for (const TimedArrival& timed :
         BuildOpenLoopSchedule(arrivals, sim->now(), platform_->chaos())) {
      OfferAt(timed.function_index, timed.at);
    }
    sim->Run();
  } else {
    // Closed loop: each arrival is offered `gap` after the previous one drained.
    for (const Arrival& arrival : arrivals) {
      OfferAt(arrival.function_index, sim->now() + arrival.gap);
      sim->Run();
    }
  }
  return FinishOpenLoop();
}

}  // namespace faasnap

#include "src/runtime/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace faasnap {

Status ParseAdmissionConfig(const JsonValue& node, AdmissionConfig* config) {
  const int64_t max_concurrency = node.GetIntOr("max_concurrency", config->max_concurrency);
  const int64_t queue_capacity = node.GetIntOr("queue_capacity", config->queue_capacity);
  const double fairness_share = node.GetNumberOr("fairness_share", config->fairness_share);
  if (max_concurrency < 1 || queue_capacity < 0) {
    return InvalidArgumentError(
        "admission max_concurrency must be >= 1 and queue_capacity >= 0");
  }
  if (fairness_share < 0.0 || fairness_share > 1.0) {
    return InvalidArgumentError("admission fairness_share must be in [0, 1]");
  }
  config->max_concurrency = static_cast<int>(max_concurrency);
  config->queue_capacity = static_cast<int>(queue_capacity);
  config->queue_deadline = node.GetDurationUsOr("queue_deadline_us", config->queue_deadline);
  config->memory_budget_bytes =
      node.GetByteCountMiBOr("memory_budget_mib", config->memory_budget_bytes);
  config->fairness_share = fairness_share;
  return OkStatus();
}

AdmissionController::AdmissionController(Simulation* sim, AdmissionConfig config, Hooks hooks)
    : sim_(sim), config_(config), hooks_(std::move(hooks)) {
  FAASNAP_CHECK(sim_ != nullptr);
  FAASNAP_CHECK(config_.max_concurrency > 0);
  FAASNAP_CHECK(config_.queue_capacity >= 0);
  FAASNAP_CHECK(hooks_.run != nullptr && hooks_.shed != nullptr);
}

ByteCount AdmissionController::effective_budget() const {
  const double scaled =
      static_cast<double>(config_.memory_budget_bytes.value()) * budget_scale_;
  return ByteCount::FromBytes(scaled < 0.0 ? 0 : static_cast<uint64_t>(scaled));
}

double AdmissionController::memory_utilization() const {
  const ByteCount budget = effective_budget();
  if (config_.memory_budget_bytes.is_zero() || budget.is_zero()) {
    return 0.0;
  }
  const ByteCount pinned =
      hooks_.pinned_bytes != nullptr ? hooks_.pinned_bytes() : ByteCount::Zero();
  return static_cast<double>((committed_bytes_ + pinned).value()) /
         static_cast<double>(budget.value());
}

bool AdmissionController::AtFairnessCap(size_t function_index) const {
  if (config_.fairness_share <= 0.0) {
    return false;
  }
  const auto cap = static_cast<int64_t>(
      std::ceil(config_.fairness_share * static_cast<double>(config_.max_concurrency)));
  const int64_t held = function_index < per_function_in_flight_.size()
                           ? per_function_in_flight_[function_index]
                           : 0;
  return held >= std::max<int64_t>(cap, 1);
}

bool AdmissionController::MemoryFits(ByteCount predicted_bytes) {
  if (config_.memory_budget_bytes.is_zero()) {
    return true;
  }
  const ByteCount budget = effective_budget();
  const auto pinned = [&] {
    return hooks_.pinned_bytes != nullptr ? hooks_.pinned_bytes() : ByteCount::Zero();
  };
  if (committed_bytes_ + pinned() + predicted_bytes <= budget) {
    return true;
  }
  // The idle warm pool is reclaimable capacity: ask the owner to evict before
  // treating the request as unservable right now.
  if (hooks_.make_room != nullptr) {
    const ByteCount over = committed_bytes_ + pinned() + predicted_bytes - budget;
    hooks_.make_room(over);
  }
  return committed_bytes_ + pinned() + predicted_bytes <= budget;
}

void AdmissionController::Admit(const AdmissionRequest& request) {
  ++in_flight_;
  if (per_function_in_flight_.size() <= request.function_index) {
    per_function_in_flight_.resize(request.function_index + 1, 0);
  }
  ++per_function_in_flight_[request.function_index];
  committed_bytes_ += request.predicted_bytes;
  ++stats_.admitted;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  const Duration wait = sim_->now() - request.arrival;
  if (wait > Duration::Zero()) {
    ++stats_.queued;
  }
  hooks_.run(request, wait);
}

void AdmissionController::TryDispatch() {
  for (auto it = queue_.begin(); it != queue_.end() && in_flight_ < config_.max_concurrency;) {
    const AdmissionRequest& request = it->request;
    if (AtFairnessCap(request.function_index)) {
      ++stats_.fairness_deferrals;
      ++it;
      continue;
    }
    if (!MemoryFits(request.predicted_bytes)) {
      ++it;
      continue;
    }
    const AdmissionRequest admitted = request;
    it = queue_.erase(it);
    Admit(admitted);
    // Admit may complete work synchronously in tests; restart the scan so the
    // iterator never straddles a reentrant queue mutation.
    it = queue_.begin();
  }
}

void AdmissionController::Offer(AdmissionRequest request) {
  ++stats_.offered;
  const uint64_t id = request.id;
  queue_.push_back(QueuedRequest{request});
  TryDispatch();
  // TryDispatch preserves FIFO order, so if this arrival is still waiting it
  // sits at the back. A waiter past the bounded capacity is the overflow.
  const bool still_queued = !queue_.empty() && queue_.back().request.id == id;
  if (still_queued && static_cast<int>(queue_.size()) > config_.queue_capacity) {
    const AdmissionRequest overflow = queue_.back().request;
    queue_.pop_back();
    ++stats_.shed_queue_full;
    hooks_.shed(overflow, InvocationOutcome::kShedQueueFull, Duration::Zero());
    return;
  }
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  if (still_queued && config_.queue_deadline > Duration::Zero()) {
    sim_->Schedule(sim_->now() + config_.queue_deadline, [this, id] { OnDeadline(id); });
  }
}

void AdmissionController::OnDeadline(uint64_t id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->request.id == id) {
      const AdmissionRequest request = it->request;
      queue_.erase(it);
      ++stats_.shed_deadline;
      hooks_.shed(request, InvocationOutcome::kShedDeadline, sim_->now() - request.arrival);
      return;
    }
  }
  // Already dispatched (or shed at offer time with a reused id): the deadline
  // event is stale and ignores itself.
}

void AdmissionController::OnComplete(const AdmissionRequest& request) {
  FAASNAP_CHECK(in_flight_ > 0);
  --in_flight_;
  FAASNAP_CHECK(request.function_index < per_function_in_flight_.size() &&
                per_function_in_flight_[request.function_index] > 0);
  --per_function_in_flight_[request.function_index];
  FAASNAP_CHECK(committed_bytes_ >= request.predicted_bytes);
  committed_bytes_ -= request.predicted_bytes;
  TryDispatch();
}

PressureLadder::PressureLadder(PressureLadderConfig config) : config_(config) {
  for (int i = 0; i < 3; ++i) {
    FAASNAP_CHECK(config_.exit[i] < config_.enter[i] && "hysteresis band must be non-empty");
  }
}

int PressureLadder::Update(double memory_utilization, int demand_pressure) {
  const double demand =
      config_.demand_pressure_full > 0
          ? static_cast<double>(demand_pressure) / config_.demand_pressure_full
          : 0.0;
  const double pressure = std::max(memory_utilization, demand);
  int target = level_;
  while (target < 3 && pressure >= config_.enter[target]) {
    ++target;
  }
  while (target > 0 && pressure < config_.exit[target - 1]) {
    --target;
  }
  if (target != level_) {
    ++transitions_;
    level_ = target;
    max_level_ = std::max(max_level_, level_);
  }
  return level_;
}

}  // namespace faasnap

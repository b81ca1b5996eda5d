#include "src/runtime/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace faasnap {
namespace {

// Bare-simulation harness: the hooks record every dispatch and shed so tests
// can assert the exactly-one-outcome-per-offer contract directly.
class AdmissionControllerTest : public ::testing::Test {
 protected:
  struct Outcome {
    uint64_t id;
    InvocationOutcome outcome;
    Duration wait;
  };

  void Make(const AdmissionConfig& config) {
    AdmissionController::Hooks hooks;
    hooks.run = [this](const AdmissionRequest& request, Duration wait) {
      ran_.push_back(Outcome{request.id, InvocationOutcome::kOk, wait});
      running_.push_back(request);
    };
    hooks.shed = [this](const AdmissionRequest& request, InvocationOutcome outcome,
                        Duration wait) {
      shed_.push_back(Outcome{request.id, outcome, wait});
    };
    hooks.pinned_bytes = [this] { return ByteCount::FromBytes(pinned_); };
    hooks.make_room = [this](ByteCount bytes) {
      make_room_calls_.push_back(bytes.value());
      pinned_ -= std::min(pinned_, reclaimable_);
      reclaimable_ = 0;
    };
    controller_ = std::make_unique<AdmissionController>(&sim_, config, std::move(hooks));
  }

  AdmissionRequest Req(uint64_t id, size_t function_index = 0, uint64_t bytes = 0) {
    AdmissionRequest request;
    request.id = id;
    request.function_index = function_index;
    request.predicted_bytes = ByteCount::FromBytes(bytes);
    request.arrival = sim_.now();
    return request;
  }

  // Completes the oldest running request.
  void CompleteOne() {
    ASSERT_FALSE(running_.empty());
    const AdmissionRequest done = running_.front();
    running_.erase(running_.begin());
    controller_->OnComplete(done);
  }

  Simulation sim_;
  std::unique_ptr<AdmissionController> controller_;
  std::vector<Outcome> ran_;
  std::vector<AdmissionRequest> running_;
  std::vector<Outcome> shed_;
  std::vector<uint64_t> make_room_calls_;
  uint64_t pinned_ = 0;
  uint64_t reclaimable_ = 0;  // bytes make_room may actually free
};

TEST(ParseAdmissionConfig, OverlaysPresentKeysAndValidates) {
  Result<JsonValue> node = ParseJson(R"({"max_concurrency": 2, "queue_deadline_us": 300})");
  ASSERT_TRUE(node.ok());
  AdmissionConfig config;
  config.queue_capacity = 9;
  ASSERT_TRUE(ParseAdmissionConfig(*node, &config).ok());
  EXPECT_EQ(config.max_concurrency, 2);
  EXPECT_EQ(config.queue_capacity, 9);  // absent: kept
  EXPECT_EQ(config.queue_deadline, Duration::Micros(300));

  for (const char* bad : {R"({"max_concurrency": 0})", R"({"queue_capacity": -1})",
                          R"({"fairness_share": -0.1})", R"({"fairness_share": 2})"}) {
    Result<JsonValue> doc = ParseJson(bad);
    ASSERT_TRUE(doc.ok());
    AdmissionConfig untouched;
    EXPECT_EQ(ParseAdmissionConfig(*doc, &untouched).code(), StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(untouched.max_concurrency, AdmissionConfig{}.max_concurrency) << bad;
  }
}

TEST_F(AdmissionControllerTest, ConcurrencyCapDispatchesFifo) {
  AdmissionConfig config;
  config.max_concurrency = 2;
  config.queue_capacity = 8;
  config.queue_deadline = Duration::Zero();  // no deadlines in this test
  Make(config);
  for (uint64_t id = 0; id < 5; ++id) {
    controller_->Offer(Req(id));
  }
  ASSERT_EQ(ran_.size(), 2u);  // the cap holds
  EXPECT_EQ(controller_->queue_depth(), 3u);
  CompleteOne();
  CompleteOne();
  ASSERT_EQ(ran_.size(), 4u);
  CompleteOne();
  ASSERT_EQ(ran_.size(), 5u);
  // FIFO: dispatch order is offer order.
  for (uint64_t id = 0; id < 5; ++id) {
    EXPECT_EQ(ran_[id].id, id);
  }
  EXPECT_TRUE(shed_.empty());
  EXPECT_EQ(controller_->stats().offered, 5);
  EXPECT_EQ(controller_->stats().admitted, 5);
  EXPECT_EQ(controller_->stats().queued, 0);  // no virtual time passed
  EXPECT_EQ(controller_->stats().max_in_flight, 2);
}

TEST_F(AdmissionControllerTest, OverflowShedsQueueFullSynchronously) {
  AdmissionConfig config;
  config.max_concurrency = 1;
  config.queue_capacity = 2;
  Make(config);
  for (uint64_t id = 0; id < 5; ++id) {
    controller_->Offer(Req(id));
  }
  EXPECT_EQ(ran_.size(), 1u);
  EXPECT_EQ(controller_->queue_depth(), 2u);
  ASSERT_EQ(shed_.size(), 2u);  // ids 3 and 4 found the queue full
  for (const Outcome& outcome : shed_) {
    EXPECT_EQ(outcome.outcome, InvocationOutcome::kShedQueueFull);
    EXPECT_EQ(outcome.wait, Duration::Zero());
  }
  EXPECT_EQ(shed_[0].id, 3u);
  EXPECT_EQ(shed_[1].id, 4u);
  EXPECT_EQ(controller_->stats().shed_queue_full, 2);
}

TEST_F(AdmissionControllerTest, QueuedWaiterShedsAtItsDeadline) {
  AdmissionConfig config;
  config.max_concurrency = 1;
  config.queue_capacity = 4;
  config.queue_deadline = Duration::Millis(10);
  Make(config);
  controller_->Offer(Req(0));
  controller_->Offer(Req(1));  // queued behind the runner
  sim_.Run();                  // nothing completes: the deadline fires
  ASSERT_EQ(shed_.size(), 1u);
  EXPECT_EQ(shed_[0].id, 1u);
  EXPECT_EQ(shed_[0].outcome, InvocationOutcome::kShedDeadline);
  EXPECT_EQ(shed_[0].wait, Duration::Millis(10));
  EXPECT_EQ(controller_->stats().shed_deadline, 1);
  EXPECT_EQ(controller_->queue_depth(), 0u);
}

TEST_F(AdmissionControllerTest, DispatchBeforeDeadlineLeavesStaleEventHarmless) {
  AdmissionConfig config;
  config.max_concurrency = 1;
  config.queue_capacity = 4;
  config.queue_deadline = Duration::Millis(10);
  Make(config);
  controller_->Offer(Req(0));
  controller_->Offer(Req(1));
  CompleteOne();  // id 1 dispatches well before its deadline
  ASSERT_EQ(ran_.size(), 2u);
  sim_.Run();  // the stale deadline event lands and ignores itself
  EXPECT_TRUE(shed_.empty());
  EXPECT_EQ(controller_->stats().admitted, 2);
}

TEST_F(AdmissionControllerTest, FairnessCapDefersWithoutShedding) {
  AdmissionConfig config;
  config.max_concurrency = 2;
  config.queue_capacity = 8;
  config.fairness_share = 0.5;  // each function may hold 1 of the 2 slots
  Make(config);
  controller_->Offer(Req(0, /*function_index=*/0));
  controller_->Offer(Req(1, /*function_index=*/0));  // capped: waits
  ASSERT_EQ(ran_.size(), 1u);
  EXPECT_EQ(controller_->queue_depth(), 1u);
  EXPECT_GT(controller_->stats().fairness_deferrals, 0);
  // Another function is not head-blocked by the capped waiter.
  controller_->Offer(Req(2, /*function_index=*/1));
  ASSERT_EQ(ran_.size(), 2u);
  EXPECT_EQ(ran_[1].id, 2u);
  // Releasing function 0's slot admits its waiter.
  CompleteOne();
  ASSERT_EQ(ran_.size(), 3u);
  EXPECT_EQ(ran_[2].id, 1u);
  EXPECT_TRUE(shed_.empty());
}

TEST_F(AdmissionControllerTest, MemoryAdmissionEvictsIdlePoolBeforeBlocking) {
  AdmissionConfig config;
  config.max_concurrency = 4;
  config.queue_capacity = 8;
  config.memory_budget_bytes = ByteCount::FromBytes(100);
  Make(config);
  pinned_ = 40;       // idle warm pool
  reclaimable_ = 40;  // ... all of it evictable on request
  controller_->Offer(Req(0, 0, /*bytes=*/50));  // 50 + 40 pinned fits
  ASSERT_EQ(ran_.size(), 1u);
  EXPECT_TRUE(make_room_calls_.empty());
  // 50 + 50 + 40 pinned would burst the budget: the controller asks the owner
  // to evict the idle pool, which frees exactly enough.
  controller_->Offer(Req(1, 0, /*bytes=*/50));
  ASSERT_EQ(ran_.size(), 2u);
  ASSERT_EQ(make_room_calls_.size(), 1u);
  EXPECT_EQ(make_room_calls_[0], 40u);
  EXPECT_EQ(controller_->committed_bytes().value(), 100u);
  // Nothing left to evict: the next arrival waits for a completion.
  controller_->Offer(Req(2, 0, /*bytes=*/50));
  EXPECT_EQ(ran_.size(), 2u);
  EXPECT_EQ(controller_->queue_depth(), 1u);
  CompleteOne();
  ASSERT_EQ(ran_.size(), 3u);
  EXPECT_TRUE(shed_.empty());
}

TEST_F(AdmissionControllerTest, BudgetScaleSqueezesAdmission) {
  AdmissionConfig config;
  config.max_concurrency = 4;
  config.queue_capacity = 8;
  config.memory_budget_bytes = ByteCount::FromBytes(100);
  Make(config);
  controller_->set_budget_scale(0.5);  // chaos squeeze: effective budget 50
  controller_->Offer(Req(0, 0, /*bytes=*/40));
  controller_->Offer(Req(1, 0, /*bytes=*/40));  // 80 > 50: blocked
  EXPECT_EQ(ran_.size(), 1u);
  EXPECT_EQ(controller_->queue_depth(), 1u);
  EXPECT_DOUBLE_EQ(controller_->memory_utilization(), 40.0 / 50.0);
  controller_->set_budget_scale(1.0);  // squeeze window ends
  CompleteOne();
  ASSERT_EQ(ran_.size(), 2u);
  EXPECT_TRUE(shed_.empty());
}

TEST_F(AdmissionControllerTest, EveryOfferResolvesExactlyOnce) {
  AdmissionConfig config;
  config.max_concurrency = 2;
  config.queue_capacity = 2;
  config.queue_deadline = Duration::Millis(5);
  Make(config);
  for (uint64_t id = 0; id < 8; ++id) {
    controller_->Offer(Req(id));
  }
  sim_.Run();  // queued waiters expire
  const AdmissionController::Stats& stats = controller_->stats();
  EXPECT_EQ(stats.offered, 8);
  EXPECT_EQ(stats.offered, stats.admitted + stats.shed_queue_full + stats.shed_deadline);
  EXPECT_EQ(ran_.size() + shed_.size(), 8u);
  // No id appears twice across the two outcome streams.
  std::vector<bool> seen(8, false);
  for (const Outcome& outcome : ran_) {
    EXPECT_FALSE(seen[outcome.id]);
    seen[outcome.id] = true;
  }
  for (const Outcome& outcome : shed_) {
    EXPECT_FALSE(seen[outcome.id]);
    seen[outcome.id] = true;
  }
}

TEST(PressureLadderTest, HysteresisKeepsLevelInsideTheBand) {
  PressureLadder ladder(PressureLadderConfig{});
  EXPECT_EQ(ladder.Update(0.72, 0), 1);  // crosses enter[0] = 0.70
  EXPECT_EQ(ladder.Update(0.60, 0), 1);  // inside the band: holds
  EXPECT_EQ(ladder.Update(0.69, 0), 1);  // below enter but above exit: holds
  EXPECT_EQ(ladder.Update(0.54, 0), 0);  // below exit[0] = 0.55: recovers
  EXPECT_EQ(ladder.transitions(), 2);
  EXPECT_EQ(ladder.max_level(), 1);
}

TEST(PressureLadderTest, SpikesClimbAndUnwindMultipleRungs) {
  PressureLadder ladder(PressureLadderConfig{});
  EXPECT_EQ(ladder.Update(0.96, 0), 3);  // one spike climbs every rung
  EXPECT_TRUE(ladder.demote_restore_mode());
  EXPECT_DOUBLE_EQ(ladder.readahead_scale(), 0.5);
  EXPECT_EQ(ladder.loader_depth_cap(), 2);
  EXPECT_DOUBLE_EQ(ladder.keep_warm_scale(), 0.25);
  EXPECT_EQ(ladder.Update(0.80, 0), 2);  // below exit[2] = 0.88, above exit[1]
  EXPECT_TRUE(ladder.demote_restore_mode());
  EXPECT_DOUBLE_EQ(ladder.keep_warm_scale(), 1.0);
  EXPECT_EQ(ladder.Update(0.20, 0), 0);
  EXPECT_FALSE(ladder.demote_restore_mode());
  EXPECT_DOUBLE_EQ(ladder.readahead_scale(), 1.0);
  EXPECT_EQ(ladder.loader_depth_cap(), 0);
  EXPECT_EQ(ladder.max_level(), 3);
  EXPECT_EQ(ladder.transitions(), 3);
}

TEST(PressureLadderTest, DiskDemandBacklogAloneRaisesPressure) {
  PressureLadderConfig config;
  config.demand_pressure_full = 16;
  PressureLadder ladder(config);
  // No memory pressure at all: the demand backlog carries the signal.
  EXPECT_EQ(ladder.Update(0.0, 16), 3);
  EXPECT_EQ(ladder.Update(0.0, 12), 2);  // 0.75: below exit[2], at exit[1]
  EXPECT_EQ(ladder.Update(0.0, 0), 0);
}

}  // namespace
}  // namespace faasnap

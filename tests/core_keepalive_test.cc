// Keep-alive policy on a one-function HostScheduler (paper sections 2.1 and
// 7.1): warm hits while the VM idles inside the keep-alive window, misses served
// by the configured fallback path once it expires, and the memory the idle VM
// pins in between.

#include <gtest/gtest.h>

#include "src/runtime/host_scheduler.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

PlatformConfig TestConfig() {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  return config;
}

TEST(PoissonArrivalGaps, MeanIsApproximatelyRight) {
  const std::vector<Duration> gaps = PoissonArrivalGaps(Duration::Seconds(10), 2000, 7);
  ASSERT_EQ(gaps.size(), 2000u);
  double sum = 0;
  for (const Duration& g : gaps) {
    EXPECT_GT(g, Duration::Zero());
    sum += g.seconds();
  }
  EXPECT_NEAR(sum / 2000.0, 10.0, 1.0);
}

TEST(PoissonArrivalGaps, DeterministicPerSeed) {
  const auto a = PoissonArrivalGaps(Duration::Seconds(5), 10, 1);
  const auto b = PoissonArrivalGaps(Duration::Seconds(5), 10, 1);
  const auto c = PoissonArrivalGaps(Duration::Seconds(5), 10, 2);
  EXPECT_EQ(a[3], b[3]);
  EXPECT_NE(a[3], c[3]);
}

// Serves the json function alone on a fresh platform, one arrival per gap.
HostSchedulerStats ServeJson(const std::vector<Duration>& gaps, Duration keep_warm,
                             RestoreMode miss_mode, double* ws_bytes = nullptr) {
  Platform platform(TestConfig());
  HostSchedulerConfig config;
  config.keep_warm = keep_warm;
  config.miss_mode = miss_mode;
  HostScheduler scheduler(&platform, config);
  const size_t index = scheduler.AddFunction(*FindFunction("json"));
  if (ws_bytes != nullptr) {
    *ws_bytes =
        static_cast<double>(PagesToBytes(scheduler.snapshot(index).record_touched.page_count()));
  }
  std::vector<Arrival> arrivals;
  for (const Duration& gap : gaps) {
    arrivals.push_back(Arrival{index, gap});
  }
  return scheduler.Run(arrivals);
}

TEST(KeepAliveTest, FrequentArrivalsHitWarm) {
  // 1-second gaps: everything after the first invocation is warm.
  std::vector<Duration> gaps(10, Duration::Seconds(1));
  HostSchedulerStats stats = ServeJson(gaps, Duration::Seconds(600), RestoreMode::kFaasnap);
  EXPECT_EQ(stats.invocations, 10);
  EXPECT_EQ(stats.misses, 1);  // the very first
  EXPECT_EQ(stats.warm_hits, 9);
  EXPECT_GT(stats.avg_pool_bytes, 0.0);
}

TEST(KeepAliveTest, SparseArrivalsAlwaysMiss) {
  std::vector<Duration> gaps(5, Duration::Seconds(3600));  // hourly
  double ws_bytes = 0;
  HostSchedulerStats stats =
      ServeJson(gaps, Duration::Seconds(60), RestoreMode::kFaasnap, &ws_bytes);
  EXPECT_EQ(stats.warm_hits, 0);
  EXPECT_EQ(stats.misses, 5);
  // Idle memory is bounded by the keep-warm window, not the whole hour.
  EXPECT_LT(stats.avg_pool_bytes, ws_bytes * 0.05);
}

TEST(KeepAliveTest, IdleVmIsChargedOnlyUntilItsExpiry) {
  // Every gap outlives the horizon, so each idle VM expires. Its memory must
  // be charged up to the expiry — the same byte-seconds whether the next
  // arrival comes at 2x or 10x the horizon.
  const Duration keep_warm = Duration::Seconds(30);
  HostSchedulerStats near = ServeJson(std::vector<Duration>(4, keep_warm * 2), keep_warm,
                                      RestoreMode::kFaasnap);
  HostSchedulerStats far = ServeJson(std::vector<Duration>(4, keep_warm * 10), keep_warm,
                                     RestoreMode::kFaasnap);
  EXPECT_EQ(near.expirations, 3);
  EXPECT_EQ(far.expirations, 3);
  EXPECT_GT(near.avg_pool_bytes, 0.0);
  EXPECT_DOUBLE_EQ(near.avg_pool_bytes * near.span.seconds(),
                   far.avg_pool_bytes * far.span.seconds());
}

TEST(KeepAliveTest, WarmHitsAreFasterThanMisses) {
  std::vector<Duration> gaps(6, Duration::Seconds(1));
  HostSchedulerStats stats = ServeJson(gaps, Duration::Seconds(600), RestoreMode::kFaasnap);
  // The first (miss) is the max; warm hits pull the mean well below it.
  EXPECT_LT(stats.latency_ms.min(), stats.latency_ms.max() * 0.8);
}

TEST(KeepAliveTest, ColdBootMissesAreOrdersOfMagnitudeSlower) {
  std::vector<Duration> gaps(3, Duration::Seconds(100));  // all misses
  HostSchedulerStats faasnap_stats = ServeJson(gaps, Duration::Seconds(1), RestoreMode::kFaasnap);
  HostSchedulerStats cold_stats = ServeJson(gaps, Duration::Seconds(1), RestoreMode::kColdBoot);
  EXPECT_GT(cold_stats.latency_ms.mean(), 10.0 * faasnap_stats.latency_ms.mean());
  EXPECT_GT(cold_stats.latency_ms.mean(), 2000.0);  // boot + init is seconds
}

TEST(KeepAliveTest, HitRateHelper) {
  HostSchedulerStats stats;
  EXPECT_DOUBLE_EQ(stats.warm_hit_rate(), 0.0);
  stats.invocations = 4;
  stats.warm_hits = 3;
  EXPECT_DOUBLE_EQ(stats.warm_hit_rate(), 0.75);
}

TEST(ColdBootMode, NameAndPolicyExist) {
  EXPECT_EQ(RestoreModeName(RestoreMode::kColdBoot), "cold-boot");
  auto policy = RestorePolicy::Create(RestoreMode::kColdBoot);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->mode(), RestoreMode::kColdBoot);
}

}  // namespace
}  // namespace faasnap

// Platform tracing: one invocation traced through a SpanTracer records the
// lifecycle spans and one span per guest fault.

#include "src/obs/span_tracer.h"

#include <gtest/gtest.h>

#include "src/obs/observability.h"
#include "src/runtime/platform.h"
#include "src/storage/device_profiles.h"

namespace faasnap {
namespace {

TEST(PlatformTracing, RecordsLifecycleAndFaultSpans) {
  PlatformConfig config;
  BlockDeviceProfile disk = NvmeSsdProfile();
  disk.jitter = 0.0;
  config.disk = disk;
  Platform platform(config);
  Observability obs;
  platform.set_observability(&obs);

  Result<FunctionSpec> spec = FindFunction("json");
  ASSERT_TRUE(spec.ok());
  TraceGenerator generator(*spec, config.layout);
  FunctionSnapshot snapshot = platform.Record(generator, MakeInputA(*spec));
  platform.DropCaches();
  obs.spans.Clear();  // focus on the invocation
  InvocationReport report =
      platform.Invoke(snapshot, RestoreMode::kFaasnap, generator, MakeInputB(*spec));

  EXPECT_EQ(obs.spans.count(obsname::kSetupDone), 1);
  EXPECT_EQ(obs.spans.count(obsname::kInvocation), 1);
  // Every fault is one span.
  EXPECT_EQ(obs.spans.count(obsname::kFault), report.faults.total_faults());
  // The loader streamed the loading set in chunks.
  EXPECT_GE(obs.spans.count(obsname::kLoaderChunk), 1);
}

}  // namespace
}  // namespace faasnap

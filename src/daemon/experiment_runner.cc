#include "src/daemon/experiment_runner.h"

#include <cstdio>
#include <fstream>
#include <memory>

#include "src/common/json_writer.h"
#include "src/runtime/platform.h"
#include "src/metrics/table.h"
#include "src/obs/observability.h"
#include "src/obs/trace_export.h"

namespace faasnap {

namespace {

void TallyOutcome(ExperimentCell* cell, const InvocationReport& report) {
  switch (report.outcome) {
    case InvocationOutcome::kOk:
      cell->ok++;
      break;
    case InvocationOutcome::kDegraded:
      cell->degraded++;
      break;
    case InvocationOutcome::kFailed:
      cell->failed++;
      break;
    case InvocationOutcome::kShedQueueFull:
    case InvocationOutcome::kShedDeadline:
      cell->shed++;
      break;
  }
}

WorkloadInput ResolveInput(const TestInputSpec& spec, const FunctionSpec& function,
                           uint64_t content_seed) {
  switch (spec.kind) {
    case TestInputSpec::Kind::kInputA:
      return MakeInputA(function);
    case TestInputSpec::Kind::kInputB:
      return MakeInputB(function);
    case TestInputSpec::Kind::kRatio:
      return MakeScaledInput(function, spec.ratio, content_seed);
  }
  FAASNAP_CHECK(false);
  return MakeInputA(function);
}

}  // namespace

Result<ExperimentResults> RunExperiment(const ExperimentConfig& config) {
  ExperimentResults results;
  results.name = config.name;

  // One bundle for the whole experiment; each (system, rep) cell (its own
  // Platform and t=0) records onto its own trace track (or timeline epoch).
  std::unique_ptr<Observability> obs;
  std::unique_ptr<std::ofstream> timeline_out;
  if (!config.trace_out.empty() || !config.metrics_out.empty() ||
      !config.timeline_out.empty() || !config.forensics_out.empty() || config.forensics) {
    obs = std::make_unique<Observability>();
    if (!config.timeline_out.empty()) {
      timeline_out = std::make_unique<std::ofstream>(config.timeline_out, std::ios::trunc);
      if (!timeline_out->good()) {
        return IoError("opening timeline output " + config.timeline_out);
      }
      MetricsTimelineConfig timeline_config;
      if (config.timeline_window > Duration::Zero()) {
        timeline_config.window = config.timeline_window;
      }
      std::ofstream* sink = timeline_out.get();
      obs->timeline.Configure(&obs->metrics, timeline_config,
                              [sink](const std::string& line) { *sink << line << "\n"; });
    }
    if (config.forensics) {
      obs->forensics.Configure(config.forensics_config, &obs->metrics);
    }
  }

  for (const std::string& function_name : config.functions) {
    ASSIGN_OR_RETURN(FunctionSpec spec, FindFunction(function_name));
    for (const TestInputSpec& input_spec : config.test_inputs) {
      for (size_t s = 0; s < config.systems.size(); ++s) {
        const RestoreMode system = config.systems[s];
        ExperimentCell cell;
        cell.function = function_name;
        cell.system = std::string(RestoreModeName(system));
        cell.test_input = input_spec.label;
        // Every (system, rep) gets a fresh platform seeded by the rep alone,
        // so a cell never depends on which systems the config lists before it.
        for (int rep = 0; rep < config.reps; ++rep) {
          PlatformConfig platform_config = config.platform;
          platform_config.seed = config.base_seed + static_cast<uint64_t>(rep) * 7919;
          Platform platform(platform_config);
          if (obs != nullptr) {
            char track[192];
            std::snprintf(track, sizeof(track), "%s input=%s system=%s rep=%d",
                          function_name.c_str(), input_spec.label.c_str(),
                          cell.system.c_str(), rep);
            if (!obs->forensics.enabled()) {
              // Under forensics the platform records into the recorder's
              // recycling buffer; the run-wide tracer stays empty (cell spans
              // aside) and per-cell tracks would never be garbage-collected.
              obs->spans.BeginTrack(track);
            }
            obs->timeline.BeginEpoch(track);
            platform.set_observability(obs.get());
          }
          TraceGenerator generator(spec, platform_config.layout);
          // Record drops the caches when it finishes (section 6.1).
          const FunctionSnapshot snapshot = platform.Record(
              generator, ResolveInput(config.record_input, spec, /*content_seed=*/0xA));
          const WorkloadInput test_input =
              ResolveInput(input_spec, spec, 0x7E57 + static_cast<uint64_t>(rep) * 131);
          // Covers every invocation of this (system, rep) cell; arg0 = system
          // index, so trace tooling can split cells apart.
          const SpanId cell_span =
              obs != nullptr ? obs->spans.Begin(platform.sim()->now(), ObsLane::kDaemon,
                                                obsname::kExperimentCell, s)
                             : kNoSpan;
          // The burst: `parallelism` simultaneous requests offered to the
          // admission controller; overflow and expired waiters resolve as
          // typed shed outcomes instead of piling onto the daemon.
          int resolved = 0;
          const ByteCount predicted_bytes =
              PagesToBytes(PageCount::FromPages(snapshot.record_touched.page_count()));
          std::unique_ptr<AdmissionController> admission;
          AdmissionController::Hooks hooks;
          hooks.run = [&](const AdmissionRequest& request, Duration wait) {
            (void)wait;  // queue time is visible in the report's setup span
            WorkloadInput per = test_input;
            if (!spec.fixed_input) {
              per.content_seed += request.id * 977;
            }
            platform.InvokeAsync(snapshot, system, generator.Generate(per),
                                 [&, request](InvocationReport report) {
                                   cell.total_ms.Record(report.total_time().millis());
                                   cell.setup_ms.Record(report.setup_time.millis());
                                   cell.invocation_ms.Record(report.invocation_time.millis());
                                   TallyOutcome(&cell, report);
                                   cell.sample = std::move(report);
                                   ++resolved;
                                   admission->OnComplete(request);
                                 });
          };
          hooks.shed = [&](const AdmissionRequest& request, InvocationOutcome outcome,
                           Duration wait) {
            (void)wait;  // ReportShed derives the wait from request.arrival
            Status reason = outcome == InvocationOutcome::kShedQueueFull
                                ? ResourceExhaustedError("admission queue full")
                                : DeadlineExceededError("queueing deadline exceeded");
            const InvocationReport report = platform.ReportShed(
                snapshot, system, request.arrival, outcome, std::move(reason));
            TallyOutcome(&cell, report);
            ++resolved;
          };
          admission = std::make_unique<AdmissionController>(platform.sim(), config.admission,
                                                            std::move(hooks));
          for (int i = 0; i < config.parallelism; ++i) {
            AdmissionRequest request;
            request.id = static_cast<uint64_t>(i);
            request.predicted_bytes = predicted_bytes;
            request.arrival = platform.sim()->now();
            admission->Offer(request);
          }
          platform.sim()->Run();
          FAASNAP_CHECK(resolved == config.parallelism);
          if (obs != nullptr) {
            obs->spans.End(cell_span, platform.sim()->now());
          }
        }
        results.cells.push_back(std::move(cell));
      }
    }
  }

  if (obs != nullptr) {
    if (!config.trace_out.empty()) {
      std::ofstream out(config.trace_out, std::ios::trunc);
      // Forensics replaces full tracing: export the retained (slowest-K +
      // non-ok) invocations instead of the (empty) run-wide tracer.
      out << (obs->forensics.enabled() ? obs->forensics.ExportRetainedTrace()
                                       : ExportChromeTrace(obs->spans));
      if (!out.good()) {
        return IoError("writing trace to " + config.trace_out);
      }
    }
    if (!config.metrics_out.empty()) {
      std::ofstream out(config.metrics_out, std::ios::trunc);
      out << obs->metrics.ToJson();
      if (!out.good()) {
        return IoError("writing metrics to " + config.metrics_out);
      }
    }
    if (obs->timeline.enabled()) {
      obs->timeline.Flush(SimTime());
      timeline_out->flush();
      if (!timeline_out->good()) {
        return IoError("writing timeline to " + config.timeline_out);
      }
    }
    if (!config.forensics_out.empty()) {
      std::ofstream out(config.forensics_out, std::ios::trunc);
      out << obs->forensics.SummaryToJson();
      if (!out.good()) {
        return IoError("writing forensics to " + config.forensics_out);
      }
    }
  }
  return results;
}

std::string ExperimentResults::ToTable() const {
  TextTable table({"function", "test input", "system", "total (ms)", "setup (ms)",
                   "invoke (ms)", "ok/deg/fail/shed"});
  for (const ExperimentCell& cell : cells) {
    table.AddRow({cell.function, cell.test_input, cell.system,
                  FormatCell("%.1f +- %.1f", cell.total_ms.mean(), cell.total_ms.stddev()),
                  FormatCell("%.1f", cell.setup_ms.mean()),
                  FormatCell("%.1f", cell.invocation_ms.mean()),
                  std::to_string(cell.ok) + "/" + std::to_string(cell.degraded) + "/" +
                      std::to_string(cell.failed) + "/" + std::to_string(cell.shed)});
  }
  return "# " + name + "\n\n" + table.ToString();
}

std::string ExperimentResults::ToJson() const {
  JsonWriter json;
  json.BeginObject().Field("name", name).Key("cells").BeginArray();
  for (const ExperimentCell& cell : cells) {
    json.BeginObject()
        .Field("function", cell.function)
        .Field("system", cell.system)
        .Field("test_input", cell.test_input)
        .Field("total_ms_mean", cell.total_ms.mean())
        .Field("total_ms_std", cell.total_ms.stddev())
        .Field("setup_ms_mean", cell.setup_ms.mean())
        .Field("invocation_ms_mean", cell.invocation_ms.mean())
        .Field("ok", cell.ok)
        .Field("degraded", cell.degraded)
        .Field("failed", cell.failed)
        .Field("shed", cell.shed)
        .Field("reps", cell.total_ms.count())
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

}  // namespace faasnap

#include "src/cluster/cluster_json.h"

#include <fstream>
#include <sstream>
#include <utility>

namespace faasnap {

namespace {

Status ParseRouter(const JsonValue& node, RouterConfig* out) {
  const std::string policy = node.GetStringOr("policy", RoutingPolicyName(out->policy));
  if (!ParseRoutingPolicy(policy, &out->policy)) {
    return InvalidArgumentError("unknown routing policy: " + policy);
  }
  out->seed = static_cast<uint64_t>(node.GetIntOr("seed", static_cast<int64_t>(out->seed)));
  out->spill_outstanding = node.GetIntOr("spill_outstanding", out->spill_outstanding);
  if (out->spill_outstanding < 1) {
    return InvalidArgumentError("spill_outstanding must be >= 1");
  }
  return OkStatus();
}

Status ParseHost(const JsonValue& node, HostSchedulerConfig* out) {
  out->warm_pool_budget_bytes =
      node.GetByteCountMiBOr("warm_pool_budget_mib", out->warm_pool_budget_bytes);
  out->keep_warm = node.GetDurationUsOr("keep_warm_us", out->keep_warm);
  return ParseAdmissionConfig(node, &out->admission);
}

Status ParseWorkload(const JsonValue& node, ClusterExperiment* out) {
  Result<JsonValue> functions = node.Get("functions");
  if (!functions.ok() || !functions->is_array() || functions->array().empty()) {
    return InvalidArgumentError("workload.functions must be a non-empty array");
  }
  for (const JsonValue& name : functions->array()) {
    Result<std::string> text = name.AsString();
    if (!text.ok()) {
      return text.status();
    }
    Result<FunctionSpec> spec = FindFunction(*text);
    if (!spec.ok()) {
      return spec.status();
    }
    out->functions.push_back(*spec);
  }
  const int64_t count = node.GetIntOr("count", static_cast<int64_t>(out->arrival_count));
  if (count < 1) {
    return InvalidArgumentError("workload.count must be >= 1");
  }
  out->arrival_count = static_cast<size_t>(count);
  out->workload_seed =
      static_cast<uint64_t>(node.GetIntOr("seed", static_cast<int64_t>(out->workload_seed)));
  Result<ArrivalProcess> process =
      ParseArrivalProcess(node.GetStringOr("process", ArrivalProcessName(out->mix.process)));
  if (!process.ok()) {
    return process.status();
  }
  out->mix.process = *process;
  out->mix.mean_gap = node.GetDurationUsOr("mean_gap_us", out->mix.mean_gap);
  out->mix.zipf_s = node.GetNumberOr("zipf_s", out->mix.zipf_s);
  out->mix.burst_multiplier = node.GetNumberOr("burst_multiplier", out->mix.burst_multiplier);
  out->mix.burst_mean_on = node.GetDurationUsOr("burst_mean_on_us", out->mix.burst_mean_on);
  out->mix.burst_mean_off = node.GetDurationUsOr("burst_mean_off_us", out->mix.burst_mean_off);
  out->mix.diurnal_amplitude = node.GetNumberOr("diurnal_amplitude", out->mix.diurnal_amplitude);
  out->mix.diurnal_period = node.GetDurationUsOr("diurnal_period_us", out->mix.diurnal_period);
  return OkStatus();
}

}  // namespace

Result<ClusterExperiment> ParseClusterExperiment(const JsonValue& root) {
  if (!root.is_object()) {
    return InvalidArgumentError("cluster config root must be an object");
  }
  ClusterExperiment experiment;
  experiment.name = root.GetStringOr("name", experiment.name);
  experiment.cluster.hosts =
      static_cast<size_t>(root.GetIntOr("hosts", static_cast<int64_t>(experiment.cluster.hosts)));
  if (experiment.cluster.hosts == 0) {
    return InvalidArgumentError("hosts must be >= 1");
  }
  experiment.cluster.worker_threads =
      static_cast<int>(root.GetIntOr("worker_threads", experiment.cluster.worker_threads));
  experiment.cluster.sync_quantum =
      root.GetDurationUsOr("sync_quantum_us", experiment.cluster.sync_quantum);
  if (experiment.cluster.sync_quantum <= Duration::Zero()) {
    return InvalidArgumentError("sync_quantum_us must be positive");
  }
  if (root.Has("router")) {
    Result<JsonValue> router = root.Get("router");
    if (!router.ok()) {
      return router.status();
    }
    RETURN_IF_ERROR(ParseRouter(*router, &experiment.cluster.router));
  }
  if (root.Has("host")) {
    Result<JsonValue> host = root.Get("host");
    if (!host.ok()) {
      return host.status();
    }
    RETURN_IF_ERROR(ParseHost(*host, &experiment.cluster.host));
  }
  Result<JsonValue> workload = root.Get("workload");
  if (!workload.ok()) {
    return InvalidArgumentError("missing required workload block");
  }
  RETURN_IF_ERROR(ParseWorkload(*workload, &experiment));
  return experiment;
}

Result<ClusterExperiment> LoadClusterExperiment(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open config: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> doc = ParseJson(buffer.str());
  if (!doc.ok()) {
    return doc.status();
  }
  return ParseClusterExperiment(*doc);
}

}  // namespace faasnap

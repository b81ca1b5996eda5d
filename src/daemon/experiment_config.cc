#include "src/daemon/experiment_config.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/workloads/function_spec.h"

namespace faasnap {

Result<TestInputSpec> ParseTestInput(const std::string& text) {
  TestInputSpec spec;
  spec.label = text;
  if (text == "A" || text == "a") {
    spec.kind = TestInputSpec::Kind::kInputA;
    return spec;
  }
  if (text == "B" || text == "b") {
    spec.kind = TestInputSpec::Kind::kInputB;
    return spec;
  }
  // "0.5x", "2x", "4x": a Figure 8 ratio relative to input A.
  if (!text.empty() && (text.back() == 'x' || text.back() == 'X')) {
    const std::string number = text.substr(0, text.size() - 1);
    char* end = nullptr;
    const double ratio = std::strtod(number.c_str(), &end);
    if (end != nullptr && *end == '\0' && ratio > 0) {
      spec.kind = TestInputSpec::Kind::kRatio;
      spec.ratio = ratio;
      return spec;
    }
  }
  return InvalidArgumentError("unknown input spec: " + text + " (use A, B, or e.g. 2x)");
}

AdmissionConfig AdmitWholeBurst(int parallelism) {
  AdmissionConfig admission;
  admission.max_concurrency = parallelism;
  admission.queue_capacity = 0;
  admission.queue_deadline = Duration::Zero();
  return admission;
}

Result<ExperimentConfig> ParseExperimentConfig(const JsonValue& root) {
  if (!root.is_object()) {
    return InvalidArgumentError("config root must be a JSON object");
  }
  ExperimentConfig config;
  config.name = root.GetStringOr("name", config.name);

  ASSIGN_OR_RETURN(JsonValue functions, root.Get("functions"));
  if (!functions.is_array() || functions.array().empty()) {
    return InvalidArgumentError("\"functions\" must be a non-empty array");
  }
  for (const JsonValue& f : functions.array()) {
    ASSIGN_OR_RETURN(std::string name, f.AsString());
    RETURN_IF_ERROR(FindFunction(name).status());  // validate against the catalog
    config.functions.push_back(std::move(name));
  }

  if (root.Has("systems")) {
    config.systems.clear();
    ASSIGN_OR_RETURN(JsonValue systems, root.Get("systems"));
    if (!systems.is_array() || systems.array().empty()) {
      return InvalidArgumentError("\"systems\" must be a non-empty array");
    }
    for (const JsonValue& s : systems.array()) {
      ASSIGN_OR_RETURN(std::string name, s.AsString());
      ASSIGN_OR_RETURN(RestoreMode mode, ParseRestoreMode(name));
      config.systems.push_back(mode);
    }
  }

  ASSIGN_OR_RETURN(config.record_input,
                   ParseTestInput(root.GetStringOr("record_input", "A")));
  if (root.Has("test_inputs")) {
    ASSIGN_OR_RETURN(JsonValue inputs, root.Get("test_inputs"));
    if (!inputs.is_array() || inputs.array().empty()) {
      return InvalidArgumentError("\"test_inputs\" must be a non-empty array");
    }
    for (const JsonValue& i : inputs.array()) {
      ASSIGN_OR_RETURN(std::string text, i.AsString());
      ASSIGN_OR_RETURN(TestInputSpec spec, ParseTestInput(text));
      config.test_inputs.push_back(spec);
    }
  } else {
    ASSIGN_OR_RETURN(TestInputSpec spec, ParseTestInput("B"));
    config.test_inputs.push_back(spec);
  }

  config.trace_out = root.GetStringOr("trace_out", "");
  config.metrics_out = root.GetStringOr("metrics_out", "");
  config.timeline_out = root.GetStringOr("timeline_out", "");
  config.timeline_window = root.GetDurationUsOr("timeline_window_us", Duration::Zero());
  config.forensics_out = root.GetStringOr("forensics_out", "");
  // A forensics output with no config block implies default-configured
  // forensics (an explicit "enabled": false still wins below).
  if (!config.forensics_out.empty() && !root.Has("forensics")) {
    config.forensics = true;
  }
  if (root.Has("forensics")) {
    ASSIGN_OR_RETURN(JsonValue forensics, root.Get("forensics"));
    if (!forensics.is_object()) {
      return InvalidArgumentError("\"forensics\" must be an object");
    }
    config.forensics = forensics.GetBoolOr("enabled", true);
    ForensicsConfig& fc = config.forensics_config;
    const int64_t slowest_k =
        forensics.GetIntOr("slowest_k", static_cast<int64_t>(fc.slowest_k));
    const int64_t max_non_ok =
        forensics.GetIntOr("max_non_ok", static_cast<int64_t>(fc.max_non_ok));
    const int64_t buffer_capacity =
        forensics.GetIntOr("buffer_capacity", static_cast<int64_t>(fc.buffer_capacity));
    if (slowest_k < 0 || max_non_ok < 0) {
      return InvalidArgumentError("forensics.slowest_k and max_non_ok must be >= 0");
    }
    if (buffer_capacity < 1) {
      return InvalidArgumentError("forensics.buffer_capacity must be > 0");
    }
    fc.slowest_k = static_cast<size_t>(slowest_k);
    fc.max_non_ok = static_cast<size_t>(max_non_ok);
    fc.buffer_capacity = static_cast<size_t>(buffer_capacity);
  }

  config.reps = static_cast<int>(root.GetIntOr("reps", config.reps));
  config.parallelism = static_cast<int>(root.GetIntOr("parallelism", config.parallelism));
  config.base_seed = static_cast<uint64_t>(root.GetIntOr("base_seed", 1));
  if (config.reps < 1 || config.parallelism < 1) {
    return InvalidArgumentError("reps and parallelism must be >= 1");
  }

  const std::string device = root.GetStringOr("device", "nvme");
  if (device == "ebs") {
    config.platform.disk = EbsIo2Profile();
  } else if (device != "nvme") {
    return InvalidArgumentError("device must be nvme or ebs");
  }
  const int64_t host_cores = root.GetIntOr("host_cores", 96);
  const int64_t ws_group_size = root.GetIntOr("ws_group_size", 1024);
  if (host_cores < 1 || ws_group_size < 1) {
    return InvalidArgumentError("host_cores and ws_group_size must be >= 1");
  }
  config.platform.host_cores = static_cast<int>(host_cores);
  config.platform.ws_group_size = static_cast<uint64_t>(ws_group_size);
  config.platform.loading_set.merge_gap_pages =
      root.GetPageCountOr("merge_gap_pages", PageCount::FromPages(32));
  config.platform.seed = config.base_seed;

  // Disk scheduler knobs (DiskSchedConfig). disk_queue_depth = 0 reverts to
  // issue-time FIFO claiming (the pre-scheduler baseline); disk_max_merge_kib
  // = 0 disables request coalescing. Applied to the remote tier too, below.
  DiskSchedConfig& sched = config.platform.disk.sched;
  const int64_t queue_depth = root.GetIntOr("disk_queue_depth", sched.queue_depth);
  const int64_t prefetch_slots =
      root.GetIntOr("disk_prefetch_slots", sched.prefetch_slots);
  const Duration aging =
      root.GetDurationUsOr("prefetch_aging_us", sched.prefetch_aging_bound);
  const int64_t merge_kib = root.GetIntOr(
      "disk_max_merge_kib", static_cast<int64_t>(sched.max_merge_bytes / KiB(1)));
  if (queue_depth < 0 || aging < Duration::Zero() || merge_kib < 0) {
    return InvalidArgumentError(
        "disk_queue_depth, prefetch_aging_us, and disk_max_merge_kib must be >= 0");
  }
  if (prefetch_slots < 1) {
    return InvalidArgumentError("disk_prefetch_slots must be >= 1");
  }
  sched.queue_depth = static_cast<uint32_t>(queue_depth);
  sched.prefetch_slots = static_cast<uint32_t>(prefetch_slots);
  sched.prefetch_aging_bound = aging;
  sched.max_merge_bytes = ByteCount::FromKiB(static_cast<uint64_t>(merge_kib));

  // Prefetch loader pipeline knobs (PrefetchConfig).
  PrefetchConfig& loader = config.platform.loader;
  loader.chunk_pages = root.GetPageCountOr("loader_chunk_pages", loader.chunk_pages);
  loader.pipeline_depth =
      static_cast<int>(root.GetIntOr("loader_pipeline_depth", loader.pipeline_depth));
  loader.adaptive_depth = root.GetBoolOr("loader_adaptive_depth", loader.adaptive_depth);
  loader.min_pipeline_depth =
      static_cast<int>(root.GetIntOr("loader_min_depth", loader.min_pipeline_depth));
  loader.depth_ramp_quiet =
      Duration::Micros(root.GetIntOr("loader_ramp_quiet_us", loader.depth_ramp_quiet.micros()));
  if (loader.chunk_pages.is_zero() || loader.pipeline_depth < 1 ||
      loader.min_pipeline_depth < 1 ||
      loader.min_pipeline_depth > loader.pipeline_depth) {
    return InvalidArgumentError(
        "loader_chunk_pages and loader_pipeline_depth must be >= 1, with "
        "1 <= loader_min_depth <= loader_pipeline_depth");
  }

  // Readahead stream-table bound (LRU eviction); 0 = unbounded.
  const int64_t max_streams = root.GetIntOr(
      "readahead_max_streams", static_cast<int64_t>(config.platform.readahead.max_streams));
  if (max_streams < 0) {
    return InvalidArgumentError("readahead_max_streams must be >= 0");
  }
  config.platform.readahead.max_streams = static_cast<uint64_t>(max_streams);

  // Fault-path lever knobs (FaultPathConfig); every lever defaults to off.
  if (root.Has("fault_path")) {
    ASSIGN_OR_RETURN(JsonValue fault_path, root.Get("fault_path"));
    if (!fault_path.is_object()) {
      return InvalidArgumentError("\"fault_path\" must be an object");
    }
    FaultPathConfig& fp = config.platform.fault_path;
    fp.batched_uffd_install =
        fault_path.GetBoolOr("batched_uffd_install", fp.batched_uffd_install);
    fp.huge_pages = fault_path.GetBoolOr("huge_pages", fp.huge_pages);
    fp.fault_coalescing = fault_path.GetBoolOr("fault_coalescing", fp.fault_coalescing);
    const PageCount batch_max =
        fault_path.GetPageCountOr("uffd_batch_max_pages", fp.uffd_batch_max_pages);
    const PageCount region_pages =
        fault_path.GetPageCountOr("huge_region_pages", fp.huge_region_pages);
    fp.huge_density_threshold =
        fault_path.GetNumberOr("huge_density_threshold", fp.huge_density_threshold);
    if (batch_max.is_zero() || region_pages.is_zero()) {
      return InvalidArgumentError(
          "uffd_batch_max_pages and huge_region_pages must be >= 1");
    }
    if (!(fp.huge_density_threshold > 0.0) || fp.huge_density_threshold > 1.0) {
      return InvalidArgumentError("huge_density_threshold must be in (0, 1]");
    }
    fp.uffd_batch_max_pages = batch_max;
    fp.huge_region_pages = region_pages;
  }

  if (root.Has("admission")) {
    ASSIGN_OR_RETURN(JsonValue admission, root.Get("admission"));
    if (!admission.is_object()) {
      return InvalidArgumentError("\"admission\" must be an object");
    }
    if (admission.Has("enabled")) {
      return InvalidArgumentError(
          "admission.enabled is not supported: omit the block to admit the whole burst");
    }
    RETURN_IF_ERROR(ParseAdmissionConfig(admission, &config.admission));
  } else {
    config.admission = AdmitWholeBurst(config.parallelism);
  }

  if (root.Has("chaos")) {
    ASSIGN_OR_RETURN(JsonValue chaos, root.Get("chaos"));
    if (!chaos.is_object()) {
      return InvalidArgumentError("\"chaos\" must be an object");
    }
    auto micros_or = [&chaos](const char* key, Duration fallback) {
      return Duration::Micros(
          chaos.GetIntOr(key, static_cast<int64_t>(fallback.micros())));
    };
    ChaosConfig& c = config.platform.chaos;
    c.enabled = chaos.GetBoolOr("enabled", true);
    c.seed = static_cast<uint64_t>(chaos.GetIntOr("seed", static_cast<int64_t>(c.seed)));
    c.read_error_rate = chaos.GetNumberOr("read_error_rate", c.read_error_rate);
    c.read_delay_rate = chaos.GetNumberOr("read_delay_rate", c.read_delay_rate);
    c.read_delay = micros_or("read_delay_us", c.read_delay);
    c.corrupt_file_rate = chaos.GetNumberOr("corrupt_file_rate", c.corrupt_file_rate);
    c.loader_stall_rate = chaos.GetNumberOr("loader_stall_rate", c.loader_stall_rate);
    c.loader_stall = micros_or("loader_stall_us", c.loader_stall);
    c.remote_outage_mean_gap = micros_or("remote_outage_mean_gap_us", c.remote_outage_mean_gap);
    c.remote_outage_duration = micros_or("remote_outage_duration_us", c.remote_outage_duration);
    c.spare_record_phase = chaos.GetBoolOr("spare_record_phase", c.spare_record_phase);

    StorageFaultPolicy& p = config.platform.storage_faults;
    p.max_attempts = static_cast<int>(chaos.GetIntOr("max_attempts", p.max_attempts));
    p.read_deadline = micros_or("read_deadline_us", p.read_deadline);
    p.breaker_failure_threshold = static_cast<int>(
        chaos.GetIntOr("breaker_failure_threshold", p.breaker_failure_threshold));
    p.breaker_open_for = micros_or("breaker_open_for_us", p.breaker_open_for);
    if (c.read_error_rate < 0 || c.read_error_rate > 1 || c.read_delay_rate < 0 ||
        c.read_delay_rate > 1 || c.corrupt_file_rate < 0 || c.corrupt_file_rate > 1 ||
        c.loader_stall_rate < 0 || c.loader_stall_rate > 1) {
      return InvalidArgumentError("chaos rates must be in [0, 1]");
    }
    if (p.max_attempts < 1) {
      return InvalidArgumentError("chaos max_attempts must be >= 1");
    }
    // Outage windows need a remote device to hit: provision the Figure 11
    // tiered setup (memory files on the remote/EBS tier) when outages are on.
    if (c.enabled && c.remote_outage_mean_gap > Duration::Zero() &&
        !config.platform.remote_disk.has_value()) {
      config.platform.remote_disk = EbsIo2Profile();
      config.platform.placement.memory_files = StorageTier::kRemote;
    }
  }
  if (config.platform.remote_disk.has_value()) {
    // One set of scheduler knobs governs both tiers.
    config.platform.remote_disk->sched = config.platform.disk.sched;
  }
  return config;
}

Result<ExperimentConfig> LoadExperimentConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return NotFoundError("cannot open config file: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ASSIGN_OR_RETURN(JsonValue root, ParseJson(buffer.str()));
  return ParseExperimentConfig(root);
}

}  // namespace faasnap

#include "core/runtime.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/json_writer.h"

namespace superfe {

namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

// The NIC side is built once at Create, but the user sink arrives per run:
// each cluster member emits into its member forwarder here, which forwards
// to the current target.
class SuperFeRuntime::ForwardingSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override {
    if (target_ != nullptr) {
      target_->OnFeatureVector(std::move(vector));
    }
  }

  // Cluster member `member`'s entry point. It forwards to the target's own
  // member sink when the target offers one, and otherwise to the target
  // itself under a lock shared by all members (the target then sees one
  // call at a time, as NicCluster's serializing wrapper would give it).
  FeatureSink* MemberSink(size_t member) override {
    while (members_.size() <= member) {
      members_.push_back(std::make_unique<Member>(this, members_.size()));
    }
    return members_[member].get();
  }

  // Quiescent only (before a run starts or after its final barrier).
  void set_target(FeatureSink* target) {
    target_ = target;
    for (auto& member : members_) {
      member->Resolve(target);
    }
  }

 private:
  class Member : public FeatureSink {
   public:
    Member(ForwardingSink* owner, size_t index) : owner_(owner), index_(index) {}
    void OnFeatureVector(FeatureVector&& vector) override {
      if (direct_ != nullptr) {
        direct_->OnFeatureVector(std::move(vector));
      } else if (owner_->target_ != nullptr) {
        std::lock_guard<std::mutex> lock(owner_->serialize_mu_);
        owner_->target_->OnFeatureVector(std::move(vector));
      }
    }
    void Resolve(FeatureSink* target) {
      direct_ = target != nullptr ? target->MemberSink(index_) : nullptr;
    }

   private:
    ForwardingSink* owner_;
    size_t index_;
    FeatureSink* direct_ = nullptr;
  };

  FeatureSink* target_ = nullptr;
  std::mutex serialize_mu_;
  std::vector<std::unique_ptr<Member>> members_;
};

Result<std::unique_ptr<SuperFeRuntime>> SuperFeRuntime::Create(const Policy& policy,
                                                               const RuntimeConfig& config) {
  auto compiled = Compile(policy);
  if (!compiled.ok()) {
    return compiled.status();
  }
  RuntimeConfig cfg = config;
  if (cfg.obs.latency || cfg.obs.profile) {
    cfg.obs.metrics = true;  // Latency/cycle instruments live in the registry.
  }
  if (cfg.obs.telemetry_port >= 0) {
    // The telemetry plane scrapes the registry and rides the sampler
    // thread for its window/health epochs, so both must exist.
    cfg.obs.metrics = true;
    if (cfg.obs.sample_interval_ms == 0) {
      cfg.obs.sample_interval_ms = 2;
    }
    cfg.obs.window_epochs = std::max<uint32_t>(cfg.obs.window_epochs, 2);
  }
  cfg.obs.batch_packets = std::max<uint32_t>(cfg.obs.batch_packets, 1);
  cfg.switch_shards = std::min(std::max<uint32_t>(cfg.switch_shards, 1),
                               obs::TraceClock::kMaxLanes);
  cfg.replay.pin_threads = cfg.replay.pin_threads || cfg.pin_threads;
  if (cfg.fault.enabled()) {
    // A fault plan implies degraded-mode survival: arm MGPV's graceful
    // overload response. (The default stays off so empty-plan runs are
    // byte-identical to a build without the fault framework.)
    cfg.mgpv.graceful_overload = true;
  }
  const uint32_t shards = cfg.switch_shards;
  std::unique_ptr<SuperFeRuntime> runtime(
      new SuperFeRuntime(std::move(compiled).value(), cfg));

  if (cfg.obs.metrics) {
    runtime->metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  if (cfg.fault.enabled()) {
    runtime->injector_ = std::make_unique<FaultInjector>(cfg.fault.plan);
    runtime->injector_->set_obs(runtime->metrics_.get());
  }
  if (cfg.obs.latency) {
    // One clock lane per replay shard (Now() = max over lanes).
    runtime->trace_clock_ = std::make_unique<obs::TraceClock>(shards);
  }
  if (cfg.obs.trace) {
    // Lanes 0..shards-1 are the producers (replay/switch/MGPV, one per
    // replay shard); one lane per NIC worker after that.
    const size_t lanes = shards + cfg.worker_threads;
    runtime->trace_ = std::make_unique<obs::TraceRecorder>(
        std::max<uint32_t>(cfg.obs.trace_capacity_per_lane, 16), lanes);
    if (shards == 1) {
      runtime->trace_->SetLaneName(0, "producer (replay+switch+mgpv)");
    } else {
      for (uint32_t s = 0; s < shards; ++s) {
        runtime->trace_->SetLaneName(
            s, "replay-shard-" + std::to_string(s) + " (replay+switch+mgpv)");
      }
    }
    for (uint32_t i = 0; i < cfg.worker_threads; ++i) {
      runtime->trace_->SetLaneName(shards + i, "nic-worker-" + std::to_string(i));
    }
  }

  // The NIC side is always a NicCluster: worker_threads members on worker
  // threads, or, at worker_threads == 0, one member dispatched inline on the
  // replay thread (the serial reference). Inline dispatch records the
  // service and end-to-end latency itself; failover and flush-time
  // abandonment live in the cluster for both modes.
  NicClusterOptions options = cfg.cluster;
  options.parallel = cfg.worker_threads > 0;
  options.pin_threads = options.pin_threads || cfg.pin_threads;
  options.metrics = runtime->metrics_.get();
  options.trace = runtime->trace_.get();
  options.trace_lane_base = 0;
  options.worker_lane_base = shards;  // == historical base+1 when shards==1.
  options.latency_clock = runtime->trace_clock_.get();
  options.injector = runtime->injector_.get();
  options.profile = cfg.obs.profile;
  options.obs_batch_packets = cfg.obs.batch_packets;
  if (cfg.fault.flush_timeout_ms > 0) {
    options.flush_timeout_ms = cfg.fault.flush_timeout_ms;
  }
  if (cfg.fault.watchdog_interval_ms > 0) {
    options.watchdog_interval_ms = cfg.fault.watchdog_interval_ms;
    options.watchdog_timeout_ms = cfg.fault.watchdog_timeout_ms;
  }
  auto cluster = NicCluster::Create(runtime->compiled_, cfg.nic,
                                    std::max<uint32_t>(cfg.worker_threads, 1),
                                    runtime->forwarding_.get(), options);
  if (!cluster.ok()) {
    return cluster.status();
  }
  runtime->cluster_ = std::move(cluster).value();
  if (shards > 1) {
    // Each shard feeds its own cluster producer handle, or — with
    // worker_threads == 0 — the cluster's inline dispatch directly (it
    // locks per member NIC; its latency observations are wait-free).
    std::vector<MgpvSink*> sinks(shards, runtime->cluster_.get());
    if (cfg.worker_threads > 0) {
      for (uint32_t s = 0; s < shards; ++s) {
        // Each handle emits on its own producer trace lane; the cluster's
        // built-in default producer stays unused.
        runtime->shard_producers_.push_back(runtime->cluster_->MakeProducer(s));
        sinks[s] = runtime->shard_producers_.back().get();
      }
    }
    ShardedSwitchOptions sw_options;
    sw_options.metrics = runtime->metrics_.get();
    sw_options.trace = runtime->trace_.get();
    sw_options.trace_lane_base = 0;
    sw_options.latency = cfg.obs.latency;
    sw_options.injector = runtime->injector_.get();
    sw_options.profile = cfg.obs.profile;
    sw_options.obs_batch_packets = cfg.obs.batch_packets;
    runtime->sharded_ = std::make_unique<ShardedFeSwitch>(runtime->compiled_, sinks,
                                                          cfg.mgpv, sw_options);
    runtime->shard_replay_obs_.reserve(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      ReplayObs o =
          ReplayObs::Create(runtime->metrics_.get(), runtime->trace_.get(), /*trace_lane=*/s);
      o.clock = runtime->trace_clock_.get();
      o.clock_lane = s;
      o.injector = runtime->injector_.get();
      o.fault_shard = s;
      if (cfg.obs.telemetry_port >= 0) {
        // Live scraping: flush replay counters often enough that the
        // rolling window (spanning tens of ms) sees per-epoch movement —
        // an 8192-packet chunk per shard can exceed a whole window's
        // worth of traffic at moderate rates.
        o.span_packets = 1024;
      }
      runtime->shard_replay_obs_.push_back(o);
    }
  } else {
    runtime->switch_ =
        std::make_unique<FeSwitch>(runtime->compiled_, runtime->cluster_.get(), cfg.mgpv);
    if (runtime->injector_ != nullptr) {
      runtime->switch_->mutable_cache().set_fault(runtime->injector_.get(), /*shard=*/0);
    }
    if (runtime->metrics_ != nullptr || runtime->trace_ != nullptr) {
      FeSwitchObs sw_obs = FeSwitchObs::Create(runtime->metrics_.get());
      sw_obs.flush_packets = cfg.obs.batch_packets;
      runtime->switch_->set_obs(sw_obs);
      MgpvObs mgpv_obs = MgpvObs::Create(runtime->metrics_.get(), runtime->trace_.get(),
                                         /*trace_lane=*/0, cfg.obs.latency,
                                         /*instance_labels=*/{}, cfg.obs.profile);
      mgpv_obs.flush_packets = cfg.obs.batch_packets;
      runtime->switch_->set_mgpv_obs(mgpv_obs);
      runtime->replay_obs_ =
          ReplayObs::Create(runtime->metrics_.get(), runtime->trace_.get(), /*trace_lane=*/0);
      runtime->replay_obs_.clock = runtime->trace_clock_.get();
      runtime->replay_obs_.injector = runtime->injector_.get();
      if (cfg.obs.telemetry_port >= 0) {
        runtime->replay_obs_.span_packets = 1024;  // See the sharded path.
      }
      runtime->config_.replay.obs = &runtime->replay_obs_;
    }
  }

  if (runtime->metrics_ != nullptr) {
    // Info-gauge idiom: the labels carry the payload, the value is 1.
    obs::Set(runtime->metrics_->GetGauge("superfe_build_info",
                                         {{"version", BuildVersion()},
                                          {"git_sha", BuildGitSha()},
                                          {"compiler", BuildCompiler()}},
                                         "Build identification; the value is always 1"),
             1.0);
  }
  if (cfg.obs.telemetry_port >= 0) {
    runtime->window_ = std::make_unique<obs::RollingWindow>(
        runtime->metrics_.get(), cfg.obs.window_epochs, cfg.obs.sample_interval_ms);
    // Health decay hold = one window span: a fault mark stops counting
    // against /healthz once it slides out of the rolling window.
    const uint64_t hold_ns =
        static_cast<uint64_t>(cfg.obs.sample_interval_ms) * cfg.obs.window_epochs * 1000000ull;
    runtime->health_ = std::make_unique<obs::HealthMachine>(std::max<uint64_t>(hold_ns, 1));
    obs::TelemetryOptions topt;
    topt.port = static_cast<uint16_t>(cfg.obs.telemetry_port);
    SuperFeRuntime* rt = runtime.get();
    topt.pre_scrape = [rt] { rt->cluster_->UpdateObsGauges(); };
    topt.write_metrics = [rt](std::ostream& os) { rt->metrics_->WriteProm(os); };
    topt.write_status = [rt](std::ostream& os) { rt->WriteStatusJson(os); };
    topt.health = runtime->health_.get();
    auto server = obs::TelemetryServer::Start(std::move(topt));
    if (!server.ok()) {
      return server.status();
    }
    runtime->telemetry_ = std::move(server).value();
    runtime->telemetry_self_.store(runtime->telemetry_.get(), std::memory_order_release);
  }
  return runtime;
}

SuperFeRuntime::SuperFeRuntime(CompiledPolicy compiled, const RuntimeConfig& config)
    : compiled_(std::move(compiled)),
      config_(config),
      forwarding_(std::make_unique<ForwardingSink>()),
      created_at_(std::chrono::steady_clock::now()) {}

SuperFeRuntime::~SuperFeRuntime() = default;

void SuperFeRuntime::BeginRun(FeatureSink* sink) {
  forwarding_->set_target(sink);
  run_active_.store(true, std::memory_order_relaxed);
  run_start_unix_ms_.store(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::system_clock::now().time_since_epoch())
                                .count()),
      std::memory_order_relaxed);
  sampler_.reset();  // A re-Run restarts the time series.
  if (metrics_ != nullptr && config_.obs.sample_interval_ms > 0) {
    std::function<void()> hook = [this] {
      cluster_->UpdateObsGauges();
      if (window_ != nullptr) {
        // One telemetry epoch per capture: the window rates refresh and
        // the health machine sees the epoch's fault/watchdog totals.
        // Stop() takes a final post-flush capture, so the last epoch is
        // guaranteed to see the exact quiescent totals.
        window_->Tick(SteadyNowNs());
        if (health_ != nullptr) {
          const obs::RollingWindow::Totals t = window_->LatestTotals();
          health_->Update({t.fault_events, t.watchdog_stalls}, t.t_ns);
        }
      }
    };
    sampler_ = std::make_unique<obs::SnapshotSampler>(
        metrics_.get(), config_.obs.sample_interval_ms, std::move(hook));
    sampler_->Start();
  }
}

void SuperFeRuntime::ResolveFaultTriggers(const LoopedTrace& axis) {
  if (injector_ == nullptr) {
    return;
  }
  if (axis.trace == nullptr || axis.trace->packets().empty()) {
    // No packet axis to resolve against: packet-indexed triggers never fire
    // (ResolvePacketTriggers(0, ...) marks them all unreachable).
    injector_->ResolvePacketTriggers(0, [](uint64_t) { return uint64_t{0}; });
  } else {
    // Resolve at_packet triggers to trace time with the replayer's own
    // arithmetic (loop-shifted, post-speedup, replica-interleaved), so
    // packet-count and trace-time trigger points live on one deterministic
    // axis. Packet id -> (loop, packet, replica) over loops of n·amp ids.
    const auto& packets = axis.trace->packets();
    const uint64_t amp = std::max<uint32_t>(config_.replay.amplification, 1);
    const double speedup = config_.replay.speedup > 0.0 ? config_.replay.speedup : 1.0;
    const uint64_t base_ts = packets.front().timestamp_ns;
    const uint64_t period = LoopedTraceSource::PeriodNs(*axis.trace);
    const uint64_t loop_ids = static_cast<uint64_t>(packets.size()) * amp;
    const uint64_t stream_ids = axis.loops == 0 || axis.loops > UINT64_MAX / loop_ids
                                    ? UINT64_MAX  // Endless (or past any count).
                                    : loop_ids * axis.loops;
    injector_->ResolvePacketTriggers(stream_ids, [&](uint64_t id) {
      const uint64_t loop = id / loop_ids;
      const uint64_t in_loop = id % loop_ids;
      const uint64_t ts = packets[in_loop / amp].timestamp_ns + loop * period;
      const uint64_t scaled = static_cast<uint64_t>(static_cast<double>(ts - base_ts) / speedup);
      return scaled + (in_loop % amp) * 8;
    });
  }
  injector_->BeginRun(static_cast<uint32_t>(cluster_->size()));
}

RunReport SuperFeRuntime::Run(const Trace& trace, FeatureSink* sink) {
  LoopedTraceSource source(&trace, 1);
  DaemonConfig once;
  once.epoch_packets = 0;  // One epoch: the final flush.
  once.epoch_wall_ms = 0;
  once.fault_trigger_trace = &trace;
  return RunDaemon(source, sink, once).run;
}

Status SuperFeRuntime::FlushPipeline() {
  if (sharded_ != nullptr) {
    sharded_->Flush();  // After join: replay threads are quiescent.
    for (auto& producer : shard_producers_) {
      producer->Close();  // Push staged batches before the cluster barrier.
    }
  } else {
    switch_->Flush();
  }
  // Barrier: every queue drained, every member flushed (or, with a fault
  // injector, dead members' residual state abandoned). A deadline hit is
  // reported in RunReport::fault, not fatal — workers keep draining and
  // the destructor completes the join.
  const Status flush_status =
      cluster_->FlushWithDeadline(cluster_->options().flush_timeout_ms);
  cluster_->UpdateObsGauges();
  return flush_status;
}

RunReport SuperFeRuntime::FinishRun(const ReplayReport& offered,
                                    const Status& flush_status) {
  if (sampler_ != nullptr) {
    sampler_->Stop();
  }
  forwarding_->set_target(nullptr);

  RunReport report;
  report.offered = offered;
  report.obs.metrics_enabled = metrics_ != nullptr;
  report.obs.trace_enabled = trace_ != nullptr;
  if (trace_ != nullptr) {
    report.obs.trace_events_recorded = trace_->events_recorded();
    report.obs.trace_events_dropped = trace_->events_dropped();
  }
  if (sampler_ != nullptr) {
    report.obs.samples_captured = sampler_->samples().size();
  }

  report.latency = BuildLatencyBreakdown();
  report.switch_stats =
      sharded_ != nullptr ? sharded_->AggregateSwitchStats() : switch_->stats();
  report.mgpv =
      sharded_ != nullptr ? sharded_->AggregateMgpvStats() : switch_->cache().stats();
  report.nic = cluster_->AggregateStats();
  report.fault.enabled = injector_ != nullptr;
  if (injector_ != nullptr) {
    report.fault.stats = injector_->Snapshot();
    report.fault.cells_processed = report.nic.cells;
    uint64_t overflow = 0;
    for (size_t i = 0; i < cluster_->size(); ++i) {
      overflow += cluster_->worker_stats(i).cells_dropped;
    }
    report.fault.overflow_cells_dropped = overflow;
    report.fault.flush_deadline_exceeded = !flush_status.ok();
    const FaultStats& fs = report.fault.stats;
    report.fault.reconciled = fs.cells_offered == report.fault.cells_processed +
                                                      fs.cells_shed +
                                                      fs.cells_lost_to_failover + overflow;
    report.fault.degraded = fs.cells_shed > 0 || fs.cells_lost_to_failover > 0 ||
                            fs.members_crashed > 0 || fs.groups_abandoned > 0 ||
                            fs.injected_pool_exhaustions > 0 ||
                            report.fault.flush_deadline_exceeded;
  }
  if (config_.worker_threads > 0) {
    report.cluster_cost = cluster_->CostReport(config_.nic.group_table_indices,
                                               config_.nic.group_table_width);
  }
  report.avg_packet_bytes =
      report.offered.packets > 0
          ? static_cast<double>(report.offered.bytes) / report.offered.packets
          : 0.0;
  report.filter_pass_fraction =
      report.switch_stats.packets_seen > 0
          ? static_cast<double>(report.switch_stats.packets_batched) /
                report.switch_stats.packets_seen
          : 1.0;

  // Per-limit diagnostics at the configured core count.
  const double nic_pps =
      std::min(cluster_->MergedPerf().ThroughputPps(config_.nic_cores), config_.nic_ingest_mpps * 1e6);
  report.nic_limited_gbps =
      report.filter_pass_fraction > 0.0
          ? nic_pps / report.filter_pass_fraction * report.avg_packet_bytes * 8.0 * 1e-9
          : config_.switch_capacity_gbps;
  const double byte_ratio = report.mgpv.ByteRatio();
  report.link_limited_gbps = byte_ratio > 0.0 ? config_.switch_nic_link_gbps / byte_ratio
                                              : config_.switch_capacity_gbps;
  report.sustainable_gbps = SustainableGbps(report, config_.nic_cores);
  report.bottleneck = report.sustainable_gbps == report.nic_limited_gbps ? "nic-compute"
                      : report.sustainable_gbps == report.link_limited_gbps
                          ? "switch-nic-link"
                          : "switch-capacity";

  // Feature output rate, proportional to the sustained input rate.
  const double vector_bytes =
      static_cast<double>(compiled_.nic_program.FeatureDimension()) * 4.0;
  if (report.offered.duration_s > 0.0 && report.offered.offered_gbps > 0.0) {
    const double vectors_per_offered_bit =
        static_cast<double>(report.nic.vectors_emitted) /
        (static_cast<double>(report.offered.bytes) * 8.0);
    report.feature_output_gbps =
        report.sustainable_gbps * 1e9 * vectors_per_offered_bit * vector_bytes * 8.0 * 1e-9;
  }
  if (health_ != nullptr) {
    // A degraded completion is fault activity: /healthz reports 503 until
    // the mark decays (one window span), then recovers to 200 on its own.
    health_->OnRunComplete(report.fault.degraded, SteadyNowNs());
  }
  runs_completed_.fetch_add(1, std::memory_order_relaxed);
  run_active_.store(false, std::memory_order_relaxed);
  return report;
}

void SuperFeRuntime::FinishTelemetry(uint64_t linger_ms) {
  if (sampler_ != nullptr) {
    // Idempotent; its Stop() already took one post-quiescence capture whose
    // pre-sample hook folded the terminal window/health epoch — no extra
    // Tick here, so a scrape during the linger stays byte-identical to a
    // metrics export written before it.
    sampler_->Stop();
  }
  if (telemetry_ == nullptr) {
    return;
  }
  if (linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  telemetry_self_.store(nullptr, std::memory_order_release);
  telemetry_->Stop();  // Idempotent; joins the listener thread.
}

RunReport::LatencyBreakdown SuperFeRuntime::BuildLatencyBreakdown() const {
  RunReport::LatencyBreakdown b;
  if (metrics_ != nullptr && config_.obs.profile) {
    // Measured per-stage cycle profile, independent of latency tracking.
    // Stages a mode never ran (e.g. dequeue in serial) report zero cycles.
    static const char* const kStages[] = {"dequeue", "mgpv", "feature_kernels",
                                          "sync_broadcast"};
    uint64_t stage_cycles[4] = {};
    uint64_t total = 0;
    for (int i = 0; i < 4; ++i) {
      const std::optional<double> v =
          metrics_->Value("superfe_cycles_total", {{"stage", kStages[i]}});
      stage_cycles[i] = v.has_value() ? static_cast<uint64_t>(*v) : 0;
      total += stage_cycles[i];
    }
    for (int i = 0; i < 4; ++i) {
      RunReport::ServiceShare s;
      s.family = kStages[i];
      s.cycles = stage_cycles[i];
      s.fraction =
          total > 0 ? static_cast<double>(stage_cycles[i]) / static_cast<double>(total)
                    : 0.0;
      b.measured_cycle_shares.push_back(s);
    }
  }
  if (trace_clock_ == nullptr || metrics_ == nullptr) {
    return b;
  }
  b.enabled = true;
  // The registry's get-or-create is idempotent: these lookups return the
  // exact histograms the pipeline observed into (or fresh empty ones for
  // stages that never ran, e.g. queue wait in serial mode).
  obs::LatencyHistogram::Snapshot residency_total;
  for (int i = 0; i < 5; ++i) {
    obs::LatencyHistogram* h = metrics_->GetLatencyHistogram(
        "superfe_latency_mgpv_residency_ns",
        {{"cause", EvictReasonName(static_cast<EvictReason>(i))}});
    if (h == nullptr) {
      continue;
    }
    const obs::LatencyHistogram::Snapshot snap = h->TakeSnapshot();
    b.residency_by_cause[i] = snap.Summarize();
    residency_total.Merge(snap);
  }
  b.mgpv_residency = residency_total.Summarize();

  obs::LatencyHistogram::Snapshot queue_wait_total;
  const size_t workers = config_.worker_threads > 0 ? cluster_->size() : 0;
  for (size_t i = 0; i < workers; ++i) {
    obs::LatencyHistogram* h = metrics_->GetLatencyHistogram(
        "superfe_latency_queue_wait_ns", {{"worker", std::to_string(i)}});
    if (h == nullptr) {
      continue;
    }
    const obs::LatencyHistogram::Snapshot snap = h->TakeSnapshot();
    b.queue_wait_by_worker.push_back(snap.Summarize());
    queue_wait_total.Merge(snap);
  }
  b.queue_wait = queue_wait_total.Summarize();

  if (obs::LatencyHistogram* h =
          metrics_->GetLatencyHistogram("superfe_latency_worker_service_ns")) {
    b.worker_service = h->TakeSnapshot().Summarize();
  }
  if (obs::LatencyHistogram* h = metrics_->GetLatencyHistogram("superfe_latency_e2e_ns")) {
    b.end_to_end = h->TakeSnapshot().Summarize();
  }

  // Table-5-style attribution: split the measured service stage by where
  // the modeled NIC cycles went.
  const NicCycleBreakdown cycles = cluster_->MergedPerf().breakdown();
  const uint64_t total = cycles.Total();
  const auto share = [total](const char* family, uint64_t c) {
    RunReport::ServiceShare s;
    s.family = family;
    s.cycles = c;
    s.fraction = total > 0 ? static_cast<double>(c) / static_cast<double>(total) : 0.0;
    return s;
  };
  b.service_shares = {share("dispatch", cycles.dispatch),
                      share("alu", cycles.alu),
                      share("division", cycles.division),
                      share("hash", cycles.hash),
                      share("report_overhead", cycles.report_overhead),
                      share("memory", cycles.memory)};
  return b;
}

double SuperFeRuntime::SustainableGbps(const RunReport& report, uint32_t cores) const {
  // (a) NIC compute limit: cells/s the cores sustain (bounded by the NBI
  // ingest ceiling), mapped back to offered traffic (cells = filtered
  // packets).
  const double nic_pps =
      std::min(cluster_->MergedPerf().ThroughputPps(cores), config_.nic_ingest_mpps * 1e6);
  double nic_limited = 0.0;
  if (report.filter_pass_fraction > 0.0) {
    nic_limited = nic_pps / report.filter_pass_fraction * report.avg_packet_bytes * 8.0 * 1e-9;
  } else {
    nic_limited = config_.switch_capacity_gbps;  // Nothing reaches the NIC.
  }
  // (b) Switch->NIC link limit at the measured aggregation byte ratio.
  const double byte_ratio = report.mgpv.ByteRatio();
  const double link_limited = byte_ratio > 0.0
                                  ? config_.switch_nic_link_gbps / byte_ratio
                                  : config_.switch_capacity_gbps;
  // (c) Switch capacity.
  return std::min({nic_limited, link_limited, config_.switch_capacity_gbps});
}

bool SuperFeRuntime::WriteMetricsProm(std::ostream& out) const {
  if (metrics_ == nullptr) {
    return false;
  }
  metrics_->WriteProm(out);
  return true;
}

void SuperFeRuntime::WriteRunBlockJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.FieldStr("version", BuildVersion());
  writer.FieldStr("git_sha", BuildGitSha());
  writer.FieldStr("compiler", BuildCompiler());
  writer.FieldStr("trace", config_.obs.run_label);
  writer.FieldStr("policy", compiled_.policy.name);
  writer.FieldUint("switch_shards", config_.switch_shards);
  writer.FieldUint("workers", config_.worker_threads);
  writer.FieldUint("sample_interval_ms", config_.obs.sample_interval_ms);
  writer.FieldUint("obs_batch_packets", config_.obs.batch_packets);
  writer.FieldBool("fault_plan", config_.fault.enabled());
  writer.FieldBool("active", run_active_.load(std::memory_order_relaxed));
  writer.FieldUint("runs_completed", runs_completed_.load(std::memory_order_relaxed));
  writer.FieldUint("start_unix_ms", run_start_unix_ms_.load(std::memory_order_relaxed));
  writer.EndObject();
}

bool SuperFeRuntime::WriteStatusJson(std::ostream& out) const {
  if (metrics_ == nullptr) {
    return false;
  }
  cluster_->UpdateObsGauges();  // Queue-depth gauges read below.
  // One registry pass, summed across labels per family. Mid-run these are
  // the batch-flushed live totals (within one hot-tier batch of exact); at
  // quiescence they equal the RunReport exactly.
  uint64_t packets = 0, bytes = 0, cells_offered = 0, cells_processed = 0;
  uint64_t cells_shed = 0, cells_lost = 0, cells_overflow = 0, vectors = 0;
  double trace_now_ns = 0.0;
  for (const auto& m : metrics_->Collect()) {
    if (m.type == obs::MetricType::kCounter) {
      if (m.name == "superfe_replay_packets_total") {
        packets += m.uvalue;
      } else if (m.name == "superfe_replay_bytes_total") {
        bytes += m.uvalue;
      } else if (m.name == "superfe_mgpv_cells_out_total") {
        cells_offered += m.uvalue;
      } else if (m.name == "superfe_nic_cells_total") {
        cells_processed += m.uvalue;
      } else if (m.name == "superfe_fault_cells_shed_total") {
        cells_shed += m.uvalue;
      } else if (m.name == "superfe_fault_cells_lost_failover_total") {
        cells_lost += m.uvalue;
      } else if (m.name == "superfe_cluster_cells_dropped_total") {
        cells_overflow += m.uvalue;
      } else if (m.name == "superfe_nic_vectors_emitted_total") {
        vectors += m.uvalue;
      }
    } else if (m.type == obs::MetricType::kGauge &&
               m.name == "superfe_replay_trace_now_ns") {
      trace_now_ns = std::max(trace_now_ns, m.value);
    }
  }

  const uint64_t now_ns = SteadyNowNs();
  JsonWriter writer(out);
  writer.BeginObject();
  writer.FieldStr("service", "superfe");
  writer.FieldUint(
      "uptime_ms",
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - created_at_)
                                .count()));
  writer.Key("run");
  WriteRunBlockJson(writer);

  writer.Key("health");
  writer.BeginObject();
  if (health_ != nullptr) {
    writer.FieldStr("state", obs::HealthStateName(health_->Evaluate(now_ns)));
    writer.FieldUint("hold_ms", health_->hold_ns() / 1000000);
    writer.Key("transitions");
    writer.BeginArray();
    for (const auto& t : health_->Transitions()) {
      writer.BeginObject();
      writer.FieldStr("from", obs::HealthStateName(t.from));
      writer.FieldStr("to", obs::HealthStateName(t.to));
      writer.FieldUint("age_ms", t.t_ns <= now_ns ? (now_ns - t.t_ns) / 1000000 : 0);
      writer.EndObject();
    }
    writer.EndArray();
  } else {
    writer.FieldStr("state", "ok");
  }
  writer.EndObject();

  writer.Key("pipeline");
  writer.BeginObject();
  writer.FieldUint("packets_offered", packets);
  writer.FieldUint("bytes_offered", bytes);
  writer.FieldDouble("trace_now_ns", trace_now_ns);
  writer.FieldUint("cells_offered", cells_offered);
  writer.FieldUint("cells_processed", cells_processed);
  writer.FieldUint("cells_shed", cells_shed);
  writer.FieldUint("cells_lost_failover", cells_lost);
  writer.FieldUint("cells_dropped_overflow", cells_overflow);
  writer.FieldUint("vectors_emitted", vectors);
  writer.EndObject();

  writer.Key("queues");
  writer.BeginArray();
  if (config_.worker_threads > 0) {  // Inline dispatch has no queues.
    for (size_t i = 0; i < cluster_->size(); ++i) {
      const obs::LabelSet worker = {{"worker", std::to_string(i)}};
      writer.BeginObject();
      writer.FieldUint("worker", i);
      writer.FieldDouble(
          "depth", metrics_->Value("superfe_cluster_queue_depth", worker).value_or(0.0));
      writer.FieldDouble(
          "high_watermark",
          metrics_->Value("superfe_cluster_queue_high_watermark", worker).value_or(0.0));
      writer.EndObject();
    }
  }
  writer.EndArray();

  writer.Key("window");
  writer.BeginObject();
  if (window_ != nullptr) {
    const obs::RollingWindow::Rates rates = window_->Current();
    writer.FieldStr("span", window_->window_label());
    writer.FieldBool("valid", rates.valid);
    writer.FieldDouble("span_s", rates.span_s);
    writer.FieldDouble("pps", rates.pps);
    writer.FieldDouble("drop_ratio", rates.drop_ratio);
    writer.FieldDouble("e2e_p50_ns", rates.e2e_p50_ns);
    writer.FieldDouble("e2e_p99_ns", rates.e2e_p99_ns);
  } else {
    writer.FieldBool("valid", false);
  }
  writer.EndObject();

  // Self-stats stay out of the registry so scrapes never perturb the
  // byte-equality contract; they are only visible here.
  if (const obs::TelemetryServer* server =
          telemetry_self_.load(std::memory_order_acquire)) {
    writer.Key("telemetry");
    writer.BeginObject();
    writer.FieldUint("port", server->port());
    writer.FieldUint("requests_served", server->requests_served());
    writer.FieldUint("requests_rejected", server->requests_rejected());
    writer.EndObject();
  }
  writer.EndObject();
  out << '\n';
  return true;
}

namespace {

void WriteStageSummaryJson(JsonWriter& writer, const obs::LatencyStageSummary& s) {
  writer.BeginObject();
  writer.FieldUint("count", s.count);
  writer.FieldUint("sum_ns", s.sum_ns);
  writer.FieldDouble("mean_ns", s.MeanNs());
  writer.FieldDouble("p50_ns", s.p50_ns);
  writer.FieldDouble("p90_ns", s.p90_ns);
  writer.FieldDouble("p99_ns", s.p99_ns);
  writer.FieldDouble("p999_ns", s.p999_ns);
  writer.EndObject();
}

void WriteLatencyBreakdownJson(JsonWriter& writer, const RunReport::LatencyBreakdown& b) {
  writer.BeginObject();
  writer.Key("mgpv_residency");
  WriteStageSummaryJson(writer, b.mgpv_residency);
  writer.Key("mgpv_residency_by_cause");
  writer.BeginObject();
  for (int i = 0; i < 5; ++i) {
    writer.Key(EvictReasonName(static_cast<EvictReason>(i)));
    WriteStageSummaryJson(writer, b.residency_by_cause[i]);
  }
  writer.EndObject();
  writer.Key("queue_wait");
  WriteStageSummaryJson(writer, b.queue_wait);
  writer.Key("queue_wait_by_worker");
  writer.BeginArray();
  for (const auto& w : b.queue_wait_by_worker) {
    WriteStageSummaryJson(writer, w);
  }
  writer.EndArray();
  writer.Key("worker_service");
  WriteStageSummaryJson(writer, b.worker_service);
  writer.Key("end_to_end");
  WriteStageSummaryJson(writer, b.end_to_end);
  writer.Key("service_shares");
  writer.BeginArray();
  for (const auto& s : b.service_shares) {
    writer.BeginObject();
    writer.FieldStr("family", s.family);
    writer.FieldUint("cycles", s.cycles);
    writer.FieldDouble("fraction", s.fraction);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("measured_cycle_shares");
  writer.BeginArray();
  for (const auto& s : b.measured_cycle_shares) {
    writer.BeginObject();
    writer.FieldStr("stage", s.family);
    writer.FieldUint("cycles", s.cycles);
    writer.FieldDouble("fraction", s.fraction);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

}  // namespace

bool SuperFeRuntime::WriteMetricsJson(std::ostream& out) const {
  if (metrics_ == nullptr) {
    return false;
  }
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("run");
  WriteRunBlockJson(writer);
  writer.Key("metrics");
  metrics_->WriteJson(writer);
  if (sampler_ != nullptr) {
    writer.Key("series");
    sampler_->WriteJson(writer);
  }
  if (trace_clock_ != nullptr) {
    writer.Key("latency");
    WriteLatencyBreakdownJson(writer, BuildLatencyBreakdown());
  }
  writer.EndObject();
  out << '\n';
  return true;
}

bool SuperFeRuntime::WriteSamplesJson(std::ostream& out) const {
  if (sampler_ == nullptr) {
    return false;
  }
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("series");
  sampler_->WriteJson(writer);
  writer.EndObject();
  out << '\n';
  return true;
}

bool SuperFeRuntime::WriteTraceJson(std::ostream& out) const {
  if (trace_ == nullptr) {
    return false;
  }
  trace_->WriteChromeJson(out);
  return true;
}

SwitchResourceUsage SuperFeRuntime::SwitchResources() const {
  return EstimateSwitchResources(compiled_, fe_switch().cache().config());
}

double SuperFeRuntime::NicMemoryUtilization() const {
  const FeNic& member = nic();
  return member.placement().MemoryUtilization(member.placement_problem());
}

}  // namespace superfe

// SuperFeRuntime: the top-level facade. Compiles a policy, wires FE-Switch
// to FE-NIC, replays traffic through the pair, and reports features plus the
// end-to-end performance model (Fig 9 / Fig 16).
//
//   auto runtime = SuperFeRuntime::Create(policy, {});
//   CollectingFeatureSink sink;
//   RunReport report = runtime->Run(trace, &sink);
#ifndef SUPERFE_CORE_RUNTIME_H_
#define SUPERFE_CORE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/feature_vector.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/ingest.h"
#include "net/replay.h"
#include "nicsim/fe_nic.h"
#include "nicsim/nic_cluster.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "policy/compile.h"
#include "switchsim/fe_switch.h"
#include "switchsim/resources.h"
#include "switchsim/sharded_fe_switch.h"

namespace superfe {

struct RuntimeConfig {
  // Cache geometry / aging overrides; policy-derived fields are filled in.
  MgpvConfig mgpv;
  FeNicConfig nic;
  ReplayOptions replay;

  // Deployment for throughput reporting: two NFP-4000s (120 cores) behind
  // two 40GbE ports, fronted by a 3.3 Tb/s Tofino (§8.1).
  uint32_t nic_cores = 120;
  double switch_capacity_gbps = 3300.0;
  double switch_nic_link_gbps = 80.0;
  // NBI/DMA ingest ceiling across both SmartNICs (cells per second the
  // packet-engine front end can accept regardless of core count).
  double nic_ingest_mpps = 60.0;

  // Host-side NIC parallelism. The NIC side is always a NicCluster with
  // switch-hash load balancing (§8.5). 0 runs the serial reference: one
  // member dispatched inline on the replay thread. N > 0 runs N members,
  // one worker thread each — wall-clock scales with cores while the feature
  // multiset stays identical for a given routing. Lossless by default
  // (cluster.drop_on_overflow = false).
  uint32_t worker_threads = 0;
  // Tuning for the parallel pipeline; `parallel` is implied by
  // worker_threads > 0 and ignored here.
  NicClusterOptions cluster;

  // Switch-side sharding: N > 1 runs a ShardedFeSwitch of N independent
  // FE-Switch/MGPV pipes and a parallel replay driver — the trace is
  // partitioned by CG hash up front and each shard replays on its own
  // thread, so producer-side wall-clock scales with cores too. Per-group
  // packet order is preserved (a group never spans shards), so the feature
  // multiset is identical to the serial reference. 1 (default) keeps the
  // exactly-unchanged single-switch path as the oracle. Composes with
  // worker_threads: each shard feeds the NIC cluster through its own
  // producer handle. Clamped to obs::TraceClock::kMaxLanes.
  uint32_t switch_shards = 1;

  // CPU affinity for the parallel pipeline (--pin-threads): pin replay
  // shard s and NIC worker s to logical CPU s % CpuCount, so each shard
  // thread and the members its CG range feeds stay on the same core/NUMA
  // node. Best-effort (src/common/affinity): where pinning is unsupported
  // it degrades to a no-op with one logged warning — safe on any host,
  // including single-CPU CI runners. Forwards into replay.pin_threads and
  // cluster.pin_threads.
  bool pin_threads = false;

  // Deterministic fault injection + degraded-mode failover
  // (docs/ROBUSTNESS.md). A non-empty plan arms a FaultInjector shared by
  // every pipeline stage, turns on MGPV graceful overload, and makes Run()
  // fill RunReport::fault with exact loss accounting. An empty plan leaves
  // every hook a null-pointer branch: outputs are byte-identical to a build
  // without the framework.
  struct FaultConfig {
    FaultPlan plan;
    // Cluster flush-barrier / shutdown-join deadline (0 = wait forever).
    uint64_t flush_timeout_ms = 0;
    // Worker-liveness watchdog; 0 interval = off.
    uint32_t watchdog_interval_ms = 0;
    uint32_t watchdog_timeout_ms = 200;

    bool enabled() const { return !plan.empty(); }
  };
  FaultConfig fault;

  // Observability (src/obs). Everything defaults off: no registry, recorder,
  // or sampler is created, and the pipeline pays only null-handle branches.
  struct ObsConfig {
    // Create a MetricsRegistry and wire superfe_* counters/gauges through
    // replay, switch, MGPV, NIC(s), and cluster workers.
    bool metrics = false;
    // Create a TraceRecorder (one lane for the producer thread plus one per
    // worker) and emit pipeline spans/instants for Chrome/Perfetto.
    bool trace = false;
    uint32_t trace_capacity_per_lane = 65536;
    // Snapshot sampler period; 0 disables the sampler thread. The sampler
    // also refreshes the cluster queue-depth gauges before each capture.
    uint32_t sample_interval_ms = 0;
    // Per-stage latency tracking (docs/OBSERVABILITY.md, "Latency
    // observability"): propagate trace-time ingest timestamps through the
    // pipeline and record MGPV residency, queue wait, worker service, and
    // end-to-end distributions as superfe_latency_* histograms. Implies
    // `metrics`.
    bool latency = false;
    // Hot-tier flush cadence (docs/OBSERVABILITY.md, "Hot-path design"):
    // every per-packet instrumentation site accumulates into a thread-local
    // WorkerObsBlock and folds into the shared registry once per this many
    // packets (plus at every flush barrier, failover fence, and shutdown,
    // so quiescent totals stay exact). 1 restores the legacy per-packet
    // registry cadence; NIC workers additionally flush per dequeued batch.
    uint32_t batch_packets = 4096;
    // Per-stage cycle profiling: bracket dequeue, feature kernels, MGPV
    // insert, and sync broadcast with cycle-counter reads and export them
    // as superfe_cycles_total{stage=...}. Implies `metrics`. Off by
    // default: cycle reads cost a few ns per packet/report.
    bool profile = false;
    // Live telemetry plane (docs/OBSERVABILITY.md, "Live telemetry"): an
    // embedded HTTP server on 127.0.0.1 with GET /metrics (Prometheus
    // text), /healthz (health state machine), and /status (JSON run
    // summary). -1 (default) = off; 0 = kernel-assigned ephemeral port
    // (read it back via telemetry_port()); >0 = that port. Implies
    // `metrics` and turns the sampler on (default 2 ms) if it was off —
    // the RollingWindow and health epochs ride the sampler thread.
    int32_t telemetry_port = -1;
    // Rolling-window ring length in sampler epochs (window span =
    // sample_interval_ms * window_epochs; clamped to >= 2). Also the
    // /healthz decay hold: fault marks older than one window span stop
    // counting against health.
    uint32_t window_epochs = 32;
    // Human-readable description of the input (pcap path or synthetic
    // profile name), echoed in the metrics JSON "run" block and /status.
    std::string run_label;
  };
  ObsConfig obs;
};

struct RunReport {
  ReplayReport offered;
  FeSwitchStats switch_stats;
  MgpvStats mgpv;
  FeNicStats nic;
  // Cluster-aware cost accounting (worker_threads > 0 only; else disabled,
  // fault plan or not):
  // per-member DRAM-detour and load-imbalance deltas vs the single-NIC
  // model, for Fig 9/16-style sweeps that quote cluster numbers.
  ClusterCostReport cluster_cost;

  double avg_packet_bytes = 0.0;
  // Fraction of offered packets that pass the policy filter into MGPV.
  double filter_pass_fraction = 1.0;

  // Sustainable end-to-end rates, limited by (a) switch capacity, (b) the
  // switch->NIC links at the measured aggregation ratio, (c) NIC feature
  // computation at the configured core count.
  double sustainable_gbps = 0.0;
  double nic_limited_gbps = 0.0;
  double link_limited_gbps = 0.0;
  const char* bottleneck = "";

  // Feature-vector output rate (the ~Gbps "generate feature vectors" rate
  // of Fig 9), assuming 4-byte feature values.
  double feature_output_gbps = 0.0;

  // Fault-injection accounting (config.fault.enabled() only). The exact
  // reconciliation the chaos tests assert:
  //   stats.cells_offered == cells_processed + stats.cells_shed
  //                          + stats.cells_lost_to_failover
  //                          + overflow_cells_dropped
  struct FaultReport {
    bool enabled = false;
    FaultStats stats;
    uint64_t cells_processed = 0;        // Cluster AggregateStats().cells.
    uint64_t overflow_cells_dropped = 0;  // drop_on_overflow / push-timeout drops.
    bool reconciled = true;
    bool flush_deadline_exceeded = false;
    // Did any fault actually bite? (sheds, losses, crashes, abandoned
    // groups, injected pool failures, or a flush deadline.)
    bool degraded = false;
  };
  FaultReport fault;

  // Observability summary (all zero when config.obs is fully disabled).
  struct ObsSummary {
    bool metrics_enabled = false;
    bool trace_enabled = false;
    uint64_t trace_events_recorded = 0;
    uint64_t trace_events_dropped = 0;  // Ring wrap-around overwrites.
    uint64_t samples_captured = 0;
  };
  ObsSummary obs;

  // Consolidated per-stage latency breakdown (config.obs.latency). All
  // values are trace-time ns; quantiles are bucket-interpolated estimates
  // (exact to within one log-bucket, a 10^0.2 factor).
  struct ServiceShare {
    const char* family = "";  // Table-5 operator family.
    uint64_t cycles = 0;
    double fraction = 0.0;  // Of the total modeled NIC cycles.
  };
  struct LatencyBreakdown {
    bool enabled = false;
    obs::LatencyStageSummary mgpv_residency;  // All causes merged.
    obs::LatencyStageSummary residency_by_cause[5];  // Indexed by EvictReason.
    obs::LatencyStageSummary queue_wait;  // All workers merged; parallel only.
    std::vector<obs::LatencyStageSummary> queue_wait_by_worker;
    obs::LatencyStageSummary worker_service;
    obs::LatencyStageSummary end_to_end;
    // Worker-service attribution by operator family, from the NIC cycle
    // cost model (fractions sum to 1 when any work was accounted).
    std::vector<ServiceShare> service_shares;
    // Measured counterpart (config.obs.profile): wall cycles by pipeline
    // stage from the superfe_cycles_total brackets — a real profile of
    // where worker time went, next to the cost model's estimate. `family`
    // holds the stage name; fractions are of the measured total. Filled
    // whenever profiling ran, even if `enabled` (latency tracking) is off.
    std::vector<ServiceShare> measured_cycle_shares;
  };
  LatencyBreakdown latency;
};

// One closed rolling epoch of a daemon run (docs/ROBUSTNESS.md, "Daemon
// mode"). All cell counts are per-epoch deltas of the cumulative pipeline
// totals, snapshotted at a quiescent drain barrier — so the reconciliation
//   cells_offered == cells_processed + cells_shed + cells_lost
//                    + cells_overflow
// holds exactly at EVERY epoch boundary, not just at end of run. Packets
// shed at ingest (overload, before replay) never enter the pipeline and are
// accounted separately in `ingest_shed_packets`.
struct DaemonEpoch {
  uint64_t index = 0;  // 1-based; the final (flush) epoch has final_epoch set.
  uint64_t packets = 0;  // Replayed this epoch (post-amplification).
  uint64_t bytes = 0;
  uint64_t cells_offered = 0;  // MGPV cells evicted toward the NIC side.
  uint64_t cells_processed = 0;
  uint64_t cells_shed = 0;            // Fault-injected saturation sheds.
  uint64_t cells_lost = 0;            // Lost in a crash-detection window.
  uint64_t cells_overflow = 0;        // Queue-overflow drops (lossy mode).
  uint64_t vectors = 0;               // Feature vectors emitted this epoch.
  uint64_t ingest_shed_packets = 0;   // Overload-shed before replay.
  bool reconciled = true;
  // Any fault bit this epoch (sheds, losses, crashes, pool failures,
  // watchdog stalls) — feeds the health machine, one mark per epoch.
  bool fault_active = false;
  bool final_epoch = false;  // Closed by the end-of-run flush, not a rotation.
  double mgpv_occupancy = 0.0;  // Max over shards at the boundary.
  uint64_t mgpv_epoch = 0;      // Rolling-epoch counter after this boundary.
  double wall_ms = 0.0;         // Wall-clock span of this epoch.
};

// Knobs for SuperFeRuntime::RunDaemon. Epoch rotation is an accounting
// boundary, not a flush: MGPV/NIC state carries across it, so the
// concatenation of per-epoch feature exports is byte-identical (as a sorted
// multiset) to a run without rotation over the same stream — which is what
// Run() is (epoch_packets = epoch_wall_ms = 0).
struct DaemonConfig {
  // Ingest granularity: packets pulled from the PacketSource per chunk.
  size_t chunk_packets = 8192;
  // Rotate after this many replayed packets (post-amplification); 0 = no
  // packet-count rotation.
  uint64_t epoch_packets = 262144;
  // Also rotate when an epoch has been open this long (wall ms); 0 = off.
  // Time rotation fires even while the source is idle.
  uint64_t epoch_wall_ms = 0;
  // Stop ingesting after this much wall time / this many closed epochs
  // (0 = unlimited). The final flush epoch does not count toward max_epochs.
  uint64_t max_seconds = 0;
  uint64_t max_epochs = 0;
  // Signal flag (e.g. set from a SIGTERM handler): nonzero = stop ingesting
  // and drain. The value is reported as DaemonReport::signal.
  const std::atomic<int>* stop = nullptr;
  // Epoch drain-barrier deadline; 0 = the cluster's flush_timeout_ms.
  uint64_t drain_timeout_ms = 0;
  // Overload shedding: when > 0 and the streaming backlog reaches this many
  // chunks, newly ingested chunks are shed whole (counted per epoch and in
  // DaemonReport::packets_shed_ingest) instead of queued. 0 = lossless
  // backpressure (ingest blocks on the replay pipeline).
  size_t shed_backlog_chunks = 0;
  // Streaming-replay queue bound (chunks in flight per shard).
  size_t max_chunks_in_flight = 4;
  // The packet axis at_packet fault triggers resolve against, with the
  // replayer's arithmetic: the looped stream the source emits (trace and
  // loop count, as given to its LoopedTraceSource; 0 loops = unbounded).
  // A trigger in loop l resolves to loop l's shifted timestamps, so a plan
  // bites at the same trace time as in a run over the materialized stream.
  // No trace (socket ingest) = packet-indexed triggers never fire.
  LoopedTrace fault_trigger_trace;
  // Called synchronously on the ingest thread as each epoch closes (e.g. to
  // rotate the feature-CSV file). The pipeline is quiescent during the call.
  std::function<void(const DaemonEpoch&)> on_epoch;
};

struct DaemonReport {
  RunReport run;  // End-of-run totals, identical in shape to Run().
  std::vector<DaemonEpoch> epochs;  // Includes the final flush epoch.
  bool stopped_by_signal = false;
  int signal = 0;
  // Clean drain: the final flush barrier met its deadline and (with a fault
  // plan armed) the end-of-run accounting reconciled.
  bool drained = true;
  bool all_epochs_reconciled = true;
  uint64_t packets_ingested = 0;      // Pulled from the source (pre-shed).
  uint64_t packets_shed_ingest = 0;   // Overload-shed, never replayed.
  IngestStats ingest;                 // The source's own counters.
  double wall_ms = 0.0;
};

class SuperFeRuntime {
 public:
  static Result<std::unique_ptr<SuperFeRuntime>> Create(const Policy& policy,
                                                        const RuntimeConfig& config);
  ~SuperFeRuntime();  // Out of line: ForwardingSink is incomplete here.

  // Replays the trace through switch + NIC, flushes both, reports: the
  // run loop below over a one-loop LoopedTraceSource, without rotation.
  // `sink` sees one call at a time, unless it offers member sinks
  // (FeatureSink::MemberSink): then each cluster member emits into its own,
  // concurrently across parallel members.
  RunReport Run(const Trace& trace, FeatureSink* sink);

  // The run loop (docs/ROBUSTNESS.md, "Daemon mode"): pulls chunks from
  // `source` until it ends, a limit hits, or `daemon.stop` is raised;
  // closes rolling epochs at packet-count/wall-time boundaries (if any)
  // with an exact drain barrier at each one; then flushes the pipeline and
  // reports. Features flow to `sink` throughout (swap files per epoch via
  // daemon.on_epoch). Call FinishTelemetry() afterwards to wind down the
  // sampler/telemetry plane in order.
  DaemonReport RunDaemon(PacketSource& source, FeatureSink* sink,
                         const DaemonConfig& daemon);

  // Shutdown-ordering helper (and the daemon's final act): stops the sampler
  // (whose final capture folds the terminal window/health epoch), optionally
  // lingers with the telemetry endpoint still serving so a scraper can
  // observe the terminal state, then stops the server — the explicit
  // drain-then-linger sequence the destructor chain only implies. Idempotent;
  // safe with telemetry off. No registry mutation happens after the linger
  // starts, so a scrape in the window matches a prior metrics export byte
  // for byte.
  void FinishTelemetry(uint64_t linger_ms);

  // Computes the report's throughput fields for an arbitrary core count
  // (Fig 16 sweeps cores without re-running the trace).
  double SustainableGbps(const RunReport& report, uint32_t cores) const;

  const CompiledPolicy& compiled() const { return compiled_; }
  const RuntimeConfig& config() const { return config_; }
  // The cluster's first member (placement/plan are identical across
  // members; serially it is the only one).
  const FeNic& nic() const { return cluster_->nic(0); }
  // Never null: max(worker_threads, 1) members, threaded iff
  // worker_threads > 0.
  const NicCluster* cluster() const { return cluster_.get(); }
  // Single-switch mode: the switch. Sharded mode: shard 0 (all shards share
  // program/config; per-shard stats differ — use sharded_switch()).
  const FeSwitch& fe_switch() const {
    return sharded_ != nullptr ? sharded_->shard(0) : *switch_;
  }
  // Non-null only when config.switch_shards > 1.
  const ShardedFeSwitch* sharded_switch() const { return sharded_.get(); }

  // Table 4 helpers.
  SwitchResourceUsage SwitchResources() const;
  double NicMemoryUtilization() const;

  // Non-null only when config.fault.enabled().
  FaultInjector* fault_injector() const { return injector_.get(); }

  // Observability access (null unless the matching ObsConfig flag is set).
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::TraceRecorder* trace_recorder() const { return trace_.get(); }
  obs::TraceClock* latency_clock() const { return trace_clock_.get(); }

  // Live telemetry plane (obs.telemetry_port >= 0 only).
  obs::TelemetryServer* telemetry() const { return telemetry_.get(); }
  // The bound port (resolves an ephemeral request); 0 when disabled.
  uint16_t telemetry_port() const {
    return telemetry_ != nullptr ? telemetry_->port() : 0;
  }
  obs::HealthMachine* health() const { return health_.get(); }
  obs::RollingWindow* rolling_window() const { return window_.get(); }

  // The /status document: build info, health, uptime, run metadata,
  // pipeline totals, per-worker queue depths, windowed rates. Works
  // whenever metrics are on (the telemetry server is just one caller);
  // false (writes nothing) otherwise.
  bool WriteStatusJson(std::ostream& out) const;

  // Exports; each returns false (writes nothing) when the matching obs
  // subsystem is disabled. Call after Run() — the trace export in
  // particular requires quiescent writers.
  bool WriteMetricsProm(std::ostream& out) const;
  // {"metrics": [...], "series": {...}, "latency": {...}} — series only
  // with the sampler on, latency only with obs.latency.
  bool WriteMetricsJson(std::ostream& out) const;
  bool WriteTraceJson(std::ostream& out) const;
  // Standalone sampler time series ({"series": {...}}); false without a
  // completed sampled run.
  bool WriteSamplesJson(std::ostream& out) const;

 private:
  SuperFeRuntime(CompiledPolicy compiled, const RuntimeConfig& config);

  // The run loop's lifecycle (core/daemon.cc holds the loop itself):
  //   BeginRun -> ResolveFaultTriggers -> [streamed replay with epoch
  //   fences] -> FlushPipeline -> FinishRun.
  // Points the NIC side at `sink` and starts the run's telemetry.
  void BeginRun(FeatureSink* sink);
  // Resolves at_packet fault triggers over `axis` with the replayer's own
  // arithmetic; no trace or an empty one = packet triggers never fire.
  // No-op without an injector; always calls FaultInjector::BeginRun when
  // armed.
  void ResolveFaultTriggers(const LoopedTrace& axis);
  // End-of-run flush: switch caches, producers, then the cluster flush
  // barrier with deadline. Returns the barrier status (deadline miss =
  // not-ok).
  Status FlushPipeline();
  // Stops the sampler, detaches the sink, and builds the full RunReport
  // from the quiescent pipeline (including health OnRunComplete).
  RunReport FinishRun(const ReplayReport& offered, const Status& flush_status);

  // Summarizes the superfe_latency_* histograms plus the cost-model cycle
  // attribution. Meaningful after Run(); disabled breakdown otherwise.
  RunReport::LatencyBreakdown BuildLatencyBreakdown() const;

  // The shared "run" metadata block (build info, trace label, shard/worker
  // config, start time) emitted by both WriteMetricsJson and /status.
  void WriteRunBlockJson(JsonWriter& writer) const;

  CompiledPolicy compiled_;
  RuntimeConfig config_;
  // Obs objects precede the pipeline members so handles outlive their users.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::SnapshotSampler> sampler_;  // Per Run; kept for export.
  std::unique_ptr<obs::TraceClock> trace_clock_;   // obs.latency only.
  // Fault injector precedes the pipeline members that hold hooks into it.
  std::unique_ptr<FaultInjector> injector_;
  ReplayObs replay_obs_;
  std::vector<ReplayObs> shard_replay_obs_;  // One per shard; sharded mode.
  std::unique_ptr<NicCluster> cluster_;  // The NIC side; must outlive switch_.
  // Per-shard feeding handles into the cluster (sharded + parallel mode);
  // declared after cluster_ so Close()-on-destroy still sees it alive.
  std::vector<std::unique_ptr<NicCluster::Producer>> shard_producers_;
  std::unique_ptr<FeSwitch> switch_;          // switch_shards == 1.
  std::unique_ptr<ShardedFeSwitch> sharded_;  // switch_shards > 1.

  // Internal forwarding sink: the NIC side is built once at Create, and
  // each run points it (and its per-member forwarders) at the run's user
  // sink.
  class ForwardingSink;
  std::unique_ptr<ForwardingSink> forwarding_;

  // Live telemetry plane (obs.telemetry_port >= 0). The window and health
  // machine are fed from the sampler's pre-sample hook; the server's
  // handlers read the members above through `this`, so the server is
  // declared LAST — destroyed first, before anything a scrape touches.
  std::unique_ptr<obs::RollingWindow> window_;
  std::unique_ptr<obs::HealthMachine> health_;
  std::atomic<bool> run_active_{false};
  std::atomic<uint64_t> runs_completed_{0};
  std::atomic<uint64_t> run_start_unix_ms_{0};  // Latest Run() start.
  std::chrono::steady_clock::time_point created_at_;
  // Self-pointer for /status self-reporting: the listener thread is live
  // before `telemetry_` is assigned, so the handler reads this atomic
  // instead of racing the unique_ptr hand-off.
  std::atomic<obs::TelemetryServer*> telemetry_self_{nullptr};
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace superfe

#endif  // SUPERFE_CORE_RUNTIME_H_

// Multi-SmartNIC scale-out (§8.5): "We can also add more SmartNICs to scale
// up FE-NIC further, with a simple load-balance mechanism implemented on
// the switch to distribute the MGPV traffic across them evenly."
//
// NicCluster is that mechanism: an MgpvSink that routes each report to one
// of N FE-NIC instances by the switch-computed CG hash (so a group's
// reports always land on the same NIC, preserving state locality), and
// broadcasts FG-key syncs to all members.
//
// Execution modes:
//  - Serial (default): routing happens inline on the caller's thread — the
//    reference path, identical to the original implementation.
//  - Parallel (options.parallel): one worker thread per member, fed by a
//    bounded MPSC queue. The CG-hash routing is unchanged, so per-group
//    state locality and per-group report order are preserved (same hash →
//    same queue → FIFO). FG syncs are broadcast to every queue *after* the
//    producer's pending report batches are flushed, so a sync is always
//    ordered ahead of the reports that depend on it. Flush() is a barrier:
//    it drains every queue, runs FeNic::Flush() on each owner thread, and
//    returns only when all members are quiescent — after it returns,
//    stats()/vectors reads are race-free.
//
// With the same message stream, the parallel pipeline produces the exact
// same feature multiset as the serial one (only emission order differs):
// correctness depends only on per-group FIFO order, which the routing
// invariant guarantees.
#ifndef SUPERFE_NICSIM_NIC_CLUSTER_H_
#define SUPERFE_NICSIM_NIC_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "nicsim/fe_nic.h"
#include "nicsim/mpsc_queue.h"
#include "obs/trace.h"

namespace superfe {

struct NicClusterOptions {
  // Spawn one worker thread per member; false keeps inline serial dispatch.
  bool parallel = false;

  // Pin worker i to logical CPU (i % CpuCount) — the same slot the sharded
  // replay driver pins shard i's thread to, so a shard and the members its
  // CG range prefers share a core/NUMA node. Best-effort (common/affinity):
  // no-op with one logged warning where unsupported. Parallel mode only.
  bool pin_threads = false;

  // Bound on queued messages per worker. Control messages (FG syncs, flush
  // barriers) bypass the bound — only report batches are subject to it.
  size_t queue_capacity = 256;

  // Full-queue policy for report batches: false applies backpressure (the
  // producer blocks until the worker drains — lossless, the default so
  // parallel runs stay bit-identical to serial), true drops the batch and
  // counts it (models a NIC whose ingest buffers overflow).
  bool drop_on_overflow = false;

  // Producer-side batching: reports routed to the same member are enqueued
  // in chunks of up to this many, amortizing queue synchronization. Syncs
  // and Flush() force pending batches out first, so ordering is unaffected.
  size_t enqueue_batch = 32;

  // Observability wiring (nullable = off; neither is owned). With `metrics`,
  // every member NIC registers superfe_nic_* counters labeled {nic="<i>"}
  // and, in parallel mode, every worker registers superfe_cluster_*
  // counters/gauges labeled {worker="<i>"}. With `trace`, the default
  // producer and the barriers emit on lane 0 and worker i on lane
  // `worker_lane_base + i` (lanes are single-writer); the runtime sets it
  // past its per-shard producer lanes.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  uint32_t worker_lane_base = 1;

  // Register superfe_cycles_total{stage=...} counters and bracket the
  // worker stages (dequeue, feature_kernels, sync_broadcast) with cycle
  // reads. Off = zero cycle reads on the hot path.
  bool profile = false;

  // Trace-time clock published by the replay loop (see obs/latency.h). When
  // set together with `metrics`, the cluster records queue wait, worker
  // service time, and end-to-end ingest->emit latency — all in trace-time
  // ns, so they compose with the MGPV residency measurements.
  obs::TraceClock* latency_clock = nullptr;

  // Fault-injection + failover wiring (docs/ROBUSTNESS.md; not owned).
  // With an injector, producers consult RouteFor per report: crashed
  // members' CG-hash ranges fail over to survivors via rendezvous hashing
  // (order-preserving handoff fences), reports in the crash-detection window
  // are counted lost, and injected queue saturation runs a bounded
  // retry/backoff loop before shedding. Null = every hook compiles to one
  // predictable untaken branch.
  FaultInjector* injector = nullptr;

  // Flush()/FlushWithDeadline() barrier timeout in wall-clock ms; on expiry
  // the barrier dumps per-worker queue depths + last-progress ages and
  // returns Status::DeadlineExceeded. Also bounds the destructor's wait for
  // worker exit before it joins. 0 = wait forever (historical behavior).
  uint64_t flush_timeout_ms = 0;

  // Watchdog: with a nonzero interval a monitor thread checks each worker
  // every `watchdog_interval_ms`; a worker with queued messages and no
  // progress for `watchdog_timeout_ms` raises an edge-triggered stall event
  // (log + superfe_cluster_watchdog_stalls_total + FaultStats). 0 = off.
  uint32_t watchdog_interval_ms = 0;
  uint32_t watchdog_timeout_ms = 200;

  // Bounded producer push: instead of blocking indefinitely on a full
  // worker queue, wait at most this many ms and then drop the batch into
  // the overflow-drop counters (reports_dropped/cells_dropped). 0 keeps the
  // lossless unbounded PushBlocking. Ignored with drop_on_overflow.
  uint64_t push_timeout_ms = 0;
};

// Per-worker pipeline counters (MgpvStats-style; all zero in serial mode).
struct NicWorkerStats {
  uint64_t batches_enqueued = 0;
  uint64_t reports_enqueued = 0;
  uint64_t reports_dropped = 0;  // Only with drop_on_overflow.
  uint64_t cells_dropped = 0;    // Cells inside dropped reports.
  uint64_t syncs_enqueued = 0;
  // Pushes that stalled on a full queue (counted at stall entry, so a
  // currently-blocked producer is already visible here).
  uint64_t backpressure_waits = 0;
  uint64_t queue_high_watermark = 0;
};

// Per-member slice of the cluster cost report.
struct ClusterMemberCost {
  uint64_t cells = 0;
  uint64_t reports = 0;
  uint64_t vectors = 0;
  uint64_t dram_detours = 0;
  double cells_share = 0.0;        // cells / cluster cells.
  double load_delta = 0.0;         // cells_share - 1/N (0 = perfectly even).
  double dram_detour_rate = 0.0;   // DRAM lookups / table lookups.
  double dram_detour_delta = 0.0;  // dram_detour_rate - single-NIC model.
};

// Cluster-aware cost accounting vs the single-NIC model (§8.5 scale-out):
// how unevenly the CG hash spread the load, and how each member's
// DRAM-detour rate compares with what one NIC of the same table geometry
// holding the union of the groups would see (Poisson occupancy model,
// ExpectedDramDetourRate). Splitting tables across members usually *cuts*
// detours — each member hosts ~1/N of the groups in a full-size table — so
// the deltas are typically negative; Fig 9/16-style sweeps can quote them
// alongside the merged perf totals.
struct ClusterCostReport {
  bool enabled = false;
  size_t members = 0;
  double load_imbalance = 1.0;  // max member cells / mean (LoadImbalance()).
  uint64_t dram_detours = 0;    // Sum over members (== FeNicStats total).
  double dram_detour_rate = 0.0;        // Cluster-wide DRAM / total lookups.
  double single_nic_detour_rate = 0.0;  // Modeled one-NIC baseline rate.
  double dram_detour_delta = 0.0;       // Cluster rate - single-NIC rate.
  std::vector<ClusterMemberCost> per_member;
};

class NicCluster : public MgpvSink {
 public:
  // Creates `nic_count` FE-NIC instances sharing one feature sink. Member
  // i emits into sink->MemberSink(i) when the sink offers one (calls on it
  // never overlap: only member i's owner thread emits there). Otherwise, in
  // parallel mode, the sink is wrapped so concurrent per-member emissions
  // are serialized; the user sink needs no locking of its own.
  static Result<std::unique_ptr<NicCluster>> Create(const CompiledPolicy& compiled,
                                                    const FeNicConfig& config, size_t nic_count,
                                                    FeatureSink* sink);
  static Result<std::unique_ptr<NicCluster>> Create(const CompiledPolicy& compiled,
                                                    const FeNicConfig& config, size_t nic_count,
                                                    FeatureSink* sink,
                                                    const NicClusterOptions& options);

  ~NicCluster() override;

  // Rebinds every member to `sink` (null = emitted vectors are counted and
  // dropped), by Create's member-sink rule. Each member switches under its
  // own lock, so an emission in flight completes into the old sink and
  // none reaches it after SetSink returns — also while workers still drain
  // past a missed flush deadline.
  void SetSink(FeatureSink* sink);

  // One switch-side feeding thread's handle (parallel mode). The staging
  // batches are producer-owned state, so each concurrent feeder — e.g. one
  // replay shard — must push through its own Producer; the queues
  // themselves are multi-producer-safe. Ordering holds per producer: a
  // sync reaches every member after the reports this producer staged
  // before it and before any it stages after (cross-producer interleaving
  // is unordered, which per-group routing tolerates). Close() before the
  // cluster's Flush() barrier; the destructor closes too.
  class Producer : public MgpvSink {
   public:
    ~Producer() override { Close(); }
    void OnMgpv(const MgpvReport& report) override;
    void OnFgSync(const FgSyncMessage& sync) override;
    // Enqueues any staged batches. The handle remains usable afterwards.
    void Close();

   private:
    friend class NicCluster;
    Producer(NicCluster* cluster, uint32_t trace_lane);

    // Routes one report through the fault hooks (injector present). Returns
    // false when the report was consumed (lost / shed) and must not be
    // staged; otherwise `target` holds the (possibly failed-over) member.
    bool FaultRoute(const MgpvReport& report, size_t& target);

    NicCluster* cluster_;
    uint32_t trace_lane_;
    std::vector<std::vector<MgpvReport>> pending_;  // One batch per member.
    // Batched FaultStats offered-counts (hot tier of NoteOffered); folded
    // into the injector in Close(), which always precedes Snapshot reads.
    uint64_t offered_reports_ = 0;
    uint64_t offered_cells_ = 0;
    // (from, to) member pairs this producer has already fenced — one
    // handoff fence per pair is enough to order the whole failed-over range.
    std::unordered_set<uint64_t> fenced_;
  };

  // New feeding-thread handle emitting trace instants on `trace_lane`
  // (parallel mode only; returns null in serial mode).
  std::unique_ptr<Producer> MakeProducer(uint32_t trace_lane);

  // MgpvSink: hash-routes reports, broadcasts syncs, via a built-in default
  // Producer — the single-feeder path, call from one thread at a time.
  void OnMgpv(const MgpvReport& report) override;
  void OnFgSync(const FgSyncMessage& sync) override;

  // Drains all queues, flushes every member on its owner thread, and
  // returns once the whole cluster is quiescent (barrier in parallel mode).
  // Uses options().flush_timeout_ms; a deadline hit is logged and ignored.
  void Flush();

  // Flush() with an explicit wall-clock deadline (0 = wait forever). On
  // expiry: dumps per-worker queue depths / last-progress ages via SFE_WLOG,
  // records the event in FaultStats, and returns Status::DeadlineExceeded —
  // workers keep draining in the background; a later barrier (or the
  // destructor) picks up where this one gave up. With a fault injector,
  // members dead at flush time abandon their residual state instead of
  // emitting it (counted in groups_abandoned).
  Status FlushWithDeadline(uint64_t timeout_ms);

  // Barrier without the flush: drains every queue and folds worker-side obs
  // deltas so registry/stat reads are exact, but leaves each member NIC's
  // in-progress group state untouched (and does not abandon crashed-member
  // state — that accounting belongs to the final flush). Daemon mode runs
  // this at every rolling-epoch boundary; the final epoch uses
  // FlushWithDeadline() as always, which is what makes concatenated epoch
  // exports equal a one-shot run. Serial mode is a no-op (dispatch is
  // inline, nothing is queued).
  Status DrainWithDeadline(uint64_t timeout_ms);

  size_t size() const { return nics_.size(); }
  const FeNic& nic(size_t i) const { return *nics_[i]; }
  const NicClusterOptions& options() const { return options_; }

  // Consistent mid-run per-worker pipeline counters.
  NicWorkerStats worker_stats(size_t i) const;

  // Publishes each worker's live queue depth and high watermark into the
  // registry gauges. Safe from any thread (the queue accessors lock); the
  // snapshot sampler calls this as its pre-sample hook. No-op without
  // metrics or in serial mode.
  void UpdateObsGauges();

  // Sum of per-member stats snapshots (safe mid-run).
  FeNicStats AggregateStats() const;

  // Sum of per-member accounted work: equivalent to the model a single NIC
  // processing the full stream would build (modulo per-member DRAM-detour
  // differences from the split tables).
  NicPerfModel MergedPerf() const;

  // Aggregate throughput: the sum of per-NIC throughputs at `cores_per_nic`
  // each (each member runs its own SoC).
  double ThroughputPps(uint32_t cores_per_nic) const;

  // Load-balance quality: max over NICs of (cells on NIC / mean cells).
  double LoadImbalance() const;

  // Cluster-aware cost accounting after a run (see ClusterCostReport).
  // `single_nic_indices`/`single_nic_width` describe the baseline single
  // NIC's group-table geometry (normally the same FeNicConfig the members
  // use). Call at quiescence (after Flush()).
  ClusterCostReport CostReport(uint32_t single_nic_indices,
                               uint32_t single_nic_width) const;

 private:
  struct WorkerMessage {
    // kFenceMark / kFenceWait implement the order-preserving failover
    // handoff: the mark lands in the dead member's queue after every report
    // a producer routed there, the wait in the survivor's queue before any
    // rerouted report — the survivor parks until the mark is processed, so a
    // group's reports never overtake each other across the handoff.
    enum class Kind { kReports, kSync, kFlush, kStop, kFenceMark, kFenceWait };
    Kind kind = Kind::kReports;
    std::vector<MgpvReport> reports;
    FgSyncMessage sync;
    uint64_t fence_id = 0;  // kFenceMark / kFenceWait.
    bool abandon = false;   // kFlush: discard state instead of emitting.
    // kFlush: barrier-only — drain the queue and fold obs deltas, but do
    // NOT flush (or abandon) the member NIC's feature state. Daemon epoch
    // boundaries use this so partial groups carry across epochs.
    bool drain_only = false;
  };

  struct Worker {
    explicit Worker(size_t queue_capacity) : queue(queue_capacity) {}

    BoundedMpscQueue<WorkerMessage> queue;
    std::thread thread;

    // Worker-written liveness signals read by the watchdog / diagnostics.
    std::atomic<uint64_t> last_progress_ns{0};  // steady_clock ns.
    std::atomic<uint64_t> messages_processed{0};
    std::atomic<bool> exited{false};

    // Producer-written counters; atomics so worker_stats() can read them
    // mid-run without tearing (and so concurrent Producers compose).
    std::atomic<uint64_t> batches_enqueued{0};
    std::atomic<uint64_t> reports_enqueued{0};
    std::atomic<uint64_t> reports_dropped{0};
    std::atomic<uint64_t> cells_dropped{0};
    std::atomic<uint64_t> syncs_enqueued{0};

    // Nullable metric handles mirroring the atomics above (incremented at
    // the same sites). The stall counter lives in the queue itself.
    obs::Counter* obs_batches = nullptr;
    obs::Counter* obs_reports = nullptr;
    obs::Counter* obs_reports_dropped = nullptr;
    obs::Counter* obs_cells_dropped = nullptr;
    obs::Counter* obs_syncs = nullptr;
    obs::Gauge* obs_queue_depth = nullptr;
    obs::Gauge* obs_queue_watermark = nullptr;
    // Eviction -> dequeue wait (includes producer-side staging), observed
    // by the worker thread per dequeued report.
    obs::LatencyHistogram* obs_queue_wait = nullptr;
  };

  // Serializes concurrent OnFeatureVector calls from the worker threads
  // onto the single user sink.
  class SerializingSink : public FeatureSink {
   public:
    explicit SerializingSink(FeatureSink* target) : target_(target) {}
    void OnFeatureVector(FeatureVector&& vector) override {
      std::lock_guard<std::mutex> lock(mu_);
      target_->OnFeatureVector(std::move(vector));
    }

   private:
    std::mutex mu_;
    FeatureSink* target_;
  };

  NicCluster(std::vector<std::unique_ptr<FeNic>> nics, const NicClusterOptions& options);

  void WorkerLoop(size_t index);
  void WatchdogLoop();
  // Logs every worker's queue depth, watermark, enqueue/process counts, and
  // last-progress age (flush-deadline and shutdown diagnostics).
  void DumpStallDiagnostics(const char* why);
  // Issues one order-preserving handoff fence from member `from` (dead) to
  // `to` (survivor). Multi-producer-safe; ids are globally unique.
  void PushFence(size_t from, size_t to, uint32_t trace_lane);
  // Counts members dead at flush into FaultStats exactly once per cluster.
  void AccountCrashedMembers();
  // Shared body of FlushWithDeadline / DrainWithDeadline.
  Status BarrierWithDeadline(uint64_t timeout_ms, bool drain_only);
  // Serial-mode fault routing (same decisions as Producer::FaultRoute,
  // minus fences — inline dispatch already preserves order).
  bool SerialFaultRoute(const MgpvReport& report, size_t& target);
  // Enqueues one producer's staged batch for member `i` (moves it out; the
  // caller's vector is left empty). Multi-producer-safe.
  void EnqueueBatch(size_t i, std::vector<MgpvReport>&& batch, uint32_t trace_lane);
  // Broadcasts one sync to every member queue (after the caller flushed
  // its own staging). Multi-producer-safe.
  void BroadcastSync(const FgSyncMessage& sync, uint32_t trace_lane);

  std::vector<std::unique_ptr<FeNic>> nics_;
  NicClusterOptions options_;
  // Parallel mode, when the bound sink offers no member sinks.
  std::unique_ptr<SerializingSink> serializing_sink_;
  std::vector<std::unique_ptr<Worker>> workers_;  // Parallel mode only.
  std::unique_ptr<Producer> default_producer_;    // Parallel mode only.

  // Latency stages recorded at report granularity (null = tracking off).
  // Shared across workers; LatencyHistogram::Observe is wait-free.
  obs::LatencyHistogram* lat_service_ = nullptr;
  obs::LatencyHistogram* lat_e2e_ = nullptr;

  // Flush-barrier rendezvous.
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  size_t flush_pending_ = 0;

  // Failover fence rendezvous (separate from the flush barrier so a parked
  // survivor never interferes with flush accounting). `fence_shutdown_`
  // releases any parked waiter at destruction so shutdown cannot wedge.
  std::mutex fence_mu_;
  std::condition_variable fence_cv_;
  std::unordered_set<uint64_t> fence_marks_;
  std::atomic<uint64_t> next_fence_id_{0};
  std::atomic<bool> fence_shutdown_{false};

  // Watchdog monitor (parallel mode, watchdog_interval_ms > 0).
  std::thread watchdog_thread_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  obs::Counter* obs_watchdog_stalls_ = nullptr;
  // superfe_cycles_total{stage="dequeue"}; null unless options.profile.
  obs::Counter* obs_cycles_dequeue_ = nullptr;

  std::atomic<bool> crashes_accounted_{false};
};

}  // namespace superfe

#endif  // SUPERFE_NICSIM_NIC_CLUSTER_H_

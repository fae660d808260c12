#include "nicsim/nic_cluster.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/affinity.h"
#include "common/logging.h"
#include "obs/cycles.h"

namespace superfe {

namespace {

// Wall-clock steady timestamp for worker heartbeats / watchdog staleness.
uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Injected queue saturation: attempts before the report is shed. The
// saturation window is trace-time, so the retries deterministically fail
// inside it — the loop models bounded retry/backoff, not a real race.
constexpr int kSaturationRetries = 3;

}  // namespace

Result<std::unique_ptr<NicCluster>> NicCluster::Create(const CompiledPolicy& compiled,
                                                       const FeNicConfig& config,
                                                       size_t nic_count, FeatureSink* sink) {
  return Create(compiled, config, nic_count, sink, NicClusterOptions{});
}

Result<std::unique_ptr<NicCluster>> NicCluster::Create(const CompiledPolicy& compiled,
                                                       const FeNicConfig& config,
                                                       size_t nic_count, FeatureSink* sink,
                                                       const NicClusterOptions& options) {
  if (nic_count == 0) {
    return Status::InvalidArgument("a NIC cluster needs at least one member");
  }
  std::vector<std::unique_ptr<FeNic>> nics;
  nics.reserve(nic_count);
  for (size_t i = 0; i < nic_count; ++i) {
    auto nic = FeNic::Create(compiled, config, /*sink=*/nullptr);
    if (!nic.ok()) {
      return nic.status();
    }
    nics.push_back(std::move(nic).value());
  }
  std::unique_ptr<NicCluster> cluster(new NicCluster(std::move(nics), options));
  cluster->SetSink(sink);
  return cluster;
}

void NicCluster::SetSink(FeatureSink* sink) {
  // Member i emits into the sink's own member sink when it offers one.
  // Otherwise parallel members would emit concurrently into the shared
  // sink, so they go through a serializing wrapper that lets the user sink
  // see one call at a time.
  std::unique_ptr<SerializingSink> serializing;
  for (size_t i = 0; i < nics_.size(); ++i) {
    FeatureSink* member = sink != nullptr ? sink->MemberSink(i) : nullptr;
    if (member == nullptr && sink != nullptr) {
      if (options_.parallel && serializing == nullptr) {
        serializing = std::make_unique<SerializingSink>(sink);
      }
      member = options_.parallel ? serializing.get() : sink;
    }
    nics_[i]->set_sink(member);
  }
  // No member can still be inside the old wrapper: each switched under its
  // lock, which every emission holds.
  serializing_sink_ = std::move(serializing);
}

NicCluster::NicCluster(std::vector<std::unique_ptr<FeNic>> nics,
                       const NicClusterOptions& options)
    : nics_(std::move(nics)), options_(options) {
  if (options_.metrics != nullptr) {
    for (size_t i = 0; i < nics_.size(); ++i) {
      nics_[i]->set_obs(
          FeNicObs::Create(options_.metrics, static_cast<uint32_t>(i), options_.profile));
    }
    if (options_.latency_clock != nullptr) {
      lat_service_ = options_.metrics->GetLatencyHistogram(
          "superfe_latency_worker_service_ns", {},
          "Trace-time elapsed while a NIC worker processed one report");
      lat_e2e_ = options_.metrics->GetLatencyHistogram(
          "superfe_latency_e2e_ns", {},
          "First packet ingest to feature emit, end to end (trace-time ns)");
    }
  }
  if (!options_.parallel) {
    return;
  }
  if (options_.enqueue_batch == 0) {
    options_.enqueue_batch = 1;
  }
  workers_.reserve(nics_.size());
  for (size_t i = 0; i < nics_.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(options_.queue_capacity));
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* reg = options_.metrics;
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& w = *workers_[i];
      const obs::LabelSet labels = {{"worker", std::to_string(i)}};
      w.obs_batches = reg->GetCounter("superfe_cluster_batches_enqueued_total", labels,
                                      "Report batches enqueued to the worker");
      w.obs_reports = reg->GetCounter("superfe_cluster_reports_enqueued_total", labels,
                                      "Reports enqueued to the worker");
      w.obs_reports_dropped =
          reg->GetCounter("superfe_cluster_reports_dropped_total", labels,
                          "Report batches dropped on overflow (drop_on_overflow)");
      w.obs_cells_dropped = reg->GetCounter("superfe_cluster_cells_dropped_total", labels,
                                            "Cells inside dropped reports");
      w.obs_syncs = reg->GetCounter("superfe_cluster_syncs_enqueued_total", labels,
                                    "FG syncs broadcast to the worker");
      w.obs_queue_depth =
          reg->GetGauge("superfe_cluster_queue_depth", labels, "Live worker queue depth");
      w.obs_queue_watermark = reg->GetGauge("superfe_cluster_queue_high_watermark", labels,
                                            "Deepest the worker queue has been");
      w.queue.set_stall_counter(
          reg->GetCounter("superfe_cluster_queue_stalls_total", labels,
                          "Pushes that found the worker queue full and waited"));
      if (options_.latency_clock != nullptr) {
        w.obs_queue_wait = reg->GetLatencyHistogram(
            "superfe_latency_queue_wait_ns", labels,
            "Report wait from MGPV eviction to worker dequeue (trace-time ns)");
      }
    }
  }
  if (options_.metrics != nullptr) {
    obs_watchdog_stalls_ = options_.metrics->GetCounter(
        "superfe_cluster_watchdog_stalls_total", {},
        "Workers the watchdog saw with queued messages but no progress");
    if (options_.profile) {
      obs_cycles_dequeue_ =
          options_.metrics->GetCounter("superfe_cycles_total", {{"stage", "dequeue"}},
                                       "Measured worker cycles by pipeline stage");
    }
  }
  default_producer_.reset(new Producer(this, /*trace_lane=*/0));
  // Spawn only after every queue exists: a worker never touches a sibling's
  // state, but WorkerLoop indexes workers_ which must be fully built.
  const uint64_t now_ns = SteadyNowNs();
  for (auto& worker : workers_) {
    worker->last_progress_ns.store(now_ns, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < nics_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
  if (options_.watchdog_interval_ms > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
}

NicCluster::~NicCluster() {
  if (watchdog_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_thread_.join();
  }
  if (workers_.empty()) {
    return;
  }
  default_producer_->Close();
  // Release any survivor parked on a handoff fence whose mark will never be
  // processed (e.g. teardown after an abandoned flush): shutdown must not
  // wedge behind a fence.
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    fence_shutdown_.store(true, std::memory_order_relaxed);
  }
  fence_cv_.notify_all();
  for (auto& worker : workers_) {
    WorkerMessage stop;
    stop.kind = WorkerMessage::Kind::kStop;
    worker->queue.PushUnbounded(std::move(stop));
  }
  // Diagnose-then-join: the join itself must stay blocking (a detached
  // worker would touch freed cluster state), but with a flush timeout
  // configured we first wait that long for clean exits and dump per-worker
  // progress if any worker is still wedged, so a hung shutdown is at least
  // attributable.
  if (options_.flush_timeout_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.flush_timeout_ms);
    bool all_exited = false;
    while (!all_exited && std::chrono::steady_clock::now() < deadline) {
      all_exited = true;
      for (auto& worker : workers_) {
        if (!worker->exited.load(std::memory_order_acquire)) {
          all_exited = false;
          break;
        }
      }
      if (!all_exited) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!all_exited) {
      DumpStallDiagnostics("shutdown join deadline exceeded");
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void NicCluster::WorkerLoop(size_t index) {
  if (options_.pin_threads) {
    PinCurrentThreadToCpu(static_cast<uint32_t>(index));
  }
  FeNic& nic = *nics_[index];
  Worker& self = *workers_[index];
  FaultInjector* injector = options_.injector;
  obs::TraceRecorder* trace = options_.trace;
  const size_t lane = options_.worker_lane_base + index;
  // Worker-local obs block: the latency observations below accumulate here
  // and fold into the shared histograms once per dequeued batch (manual
  // flush — cadence 0), at flush barriers, and at stop. The same block
  // carries the {stage="dequeue"} cycle counter, which brackets the
  // blocking Pop() and therefore includes idle wait — an idle worker shows
  // up as dequeue-dominated, which is exactly the signal wanted.
  obs::WorkerObsBlock block;
  block.Init(options_.metrics, "worker-" + std::to_string(index), 0);
  obs::WorkerObsBlock::LatencyCell* queue_wait = block.BindLatency(self.obs_queue_wait);
  obs::WorkerObsBlock::LatencyCell* service = block.BindLatency(lat_service_);
  obs::WorkerObsBlock::LatencyCell* e2e = block.BindLatency(lat_e2e_);
  obs::WorkerObsBlock::CounterCell* cycles_dequeue = block.BindCounter(obs_cycles_dequeue_);
  for (;;) {
    const uint64_t dequeue_start = cycles_dequeue != nullptr ? obs::ReadCycles() : 0;
    WorkerMessage msg = self.queue.Pop();
    if (cycles_dequeue != nullptr) {
      cycles_dequeue->delta += obs::ReadCycles() - dequeue_start;
    }
    switch (msg.kind) {
      case WorkerMessage::Kind::kReports: {
        if (injector != nullptr && !msg.reports.empty()) {
          // Injected stall: wall-clock sleep before processing. Affects
          // only scheduling (watchdog fodder), never which reports flow.
          const uint64_t stall_ms = injector->TakeStallMs(
              static_cast<uint32_t>(index), msg.reports.front().evict_ns);
          if (stall_ms > 0) {
            if (trace != nullptr) {
              trace->Instant(lane, "fault", "worker_stall", "ms", stall_ms);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
          }
        }
        obs::TraceRecorder::Span span(trace, lane, "worker", "process_batch");
        span.SetArg("reports", msg.reports.size());
        obs::TraceClock* clock = options_.latency_clock;
        if (clock == nullptr) {
          // One locked pass over the whole dequeued batch: with batch
          // kernels on, group runs span report boundaries (SoA path).
          nic.OnMgpvBatch(msg.reports.data(), msg.reports.size());
          block.NotePackets(msg.reports.size());
          block.Flush();  // Per-batch flush: the hot tier's defining cadence.
          break;
        }
        // All stages in trace time. The clock is monotone, the queue's
        // release/acquire edge orders it past the producer's value at push,
        // and the report's stamps were taken from the same running maximum —
        // so the subtractions below cannot underflow; the guards are
        // defensive only.
        const uint64_t dequeue_ns = clock->Now();
        for (const auto& report : msg.reports) {
          obs::Observe(queue_wait,
                       dequeue_ns > report.evict_ns ? dequeue_ns - report.evict_ns : 0);
          const uint64_t before_ns = clock->Now();
          nic.OnMgpv(report);
          const uint64_t after_ns = clock->Now();
          obs::Observe(service, after_ns - before_ns);
          obs::Observe(e2e, after_ns > report.first_ingest_ns
                                ? after_ns - report.first_ingest_ns
                                : 0);
        }
        block.NotePackets(msg.reports.size());
        block.Flush();  // Per-batch flush: the hot tier's defining cadence.
        break;
      }
      case WorkerMessage::Kind::kSync:
        nic.OnFgSync(msg.sync);
        break;
      case WorkerMessage::Kind::kFenceMark: {
        std::lock_guard<std::mutex> lock(fence_mu_);
        fence_marks_.insert(msg.fence_id);
        fence_cv_.notify_all();
        break;
      }
      case WorkerMessage::Kind::kFenceWait: {
        // Park until the dead member's worker has drained everything ahead
        // of the matching mark — then the failed-over range may flow here
        // without any group's reports overtaking each other. The wait-for
        // graph between members is acyclic (mutual failover would need each
        // member to crash before the other was detected), so this cannot
        // deadlock; fence_shutdown_ releases us at teardown regardless.
        std::unique_lock<std::mutex> lock(fence_mu_);
        fence_cv_.wait(lock, [&] {
          return fence_marks_.count(msg.fence_id) > 0 ||
                 fence_shutdown_.load(std::memory_order_relaxed);
        });
        fence_marks_.erase(msg.fence_id);
        break;
      }
      case WorkerMessage::Kind::kFlush: {
        if (msg.drain_only) {
          // Epoch-boundary barrier: the queue ahead of this marker is drained
          // (we are processing it), so just fold the obs deltas and release —
          // the member NIC's half-built groups carry into the next epoch.
          block.Flush();
          std::lock_guard<std::mutex> lock(flush_mu_);
          --flush_pending_;
          flush_cv_.notify_all();
          break;
        }
        {
          obs::TraceRecorder::Span span(trace, lane, "worker", "member_flush");
          if (msg.abandon) {
            // Crashed member: its residual half-built groups must not leak
            // partial vectors — discard and account instead of emitting.
            const uint64_t groups = nic.AbandonState();
            if (injector != nullptr) {
              injector->NoteAbandonedGroups(groups);
            }
          } else {
            nic.Flush();
          }
        }
        // Fold this worker's residual deltas before releasing the barrier:
        // a post-flush registry read must see exact totals.
        block.Flush();
        std::lock_guard<std::mutex> lock(flush_mu_);
        --flush_pending_;
        flush_cv_.notify_all();
        break;
      }
      case WorkerMessage::Kind::kStop:
        block.Flush();
        self.exited.store(true, std::memory_order_release);
        return;
    }
    self.messages_processed.fetch_add(1, std::memory_order_relaxed);
    self.last_progress_ns.store(SteadyNowNs(), std::memory_order_relaxed);
  }
}

void NicCluster::EnqueueBatch(size_t i, std::vector<MgpvReport>&& batch,
                              uint32_t trace_lane) {
  if (batch.empty()) {
    return;
  }
  Worker& worker = *workers_[i];
  WorkerMessage msg;
  msg.kind = WorkerMessage::Kind::kReports;
  msg.reports = std::move(batch);
  const uint64_t batch_reports = msg.reports.size();
  uint64_t batch_cells = 0;
  for (const auto& report : msg.reports) {
    batch_cells += report.cells.size();
  }
  if (options_.drop_on_overflow) {
    if (!worker.queue.TryPush(std::move(msg))) {
      // Queue saturated: the batch is dropped, never silently — both the
      // report and cell counts land in the worker's drop counters.
      worker.reports_dropped.fetch_add(batch_reports, std::memory_order_relaxed);
      worker.cells_dropped.fetch_add(batch_cells, std::memory_order_relaxed);
      obs::Inc(worker.obs_reports_dropped, batch_reports);
      obs::Inc(worker.obs_cells_dropped, batch_cells);
      if (options_.trace != nullptr) {
        options_.trace->Instant(trace_lane, "cluster", "queue_drop", "reports",
                                batch_reports);
      }
      return;
    }
  } else if (options_.push_timeout_ms > 0) {
    // Bounded backpressure: wait for room up to the timeout, then drop into
    // the same overflow counters drop_on_overflow uses (the reconciliation
    // treats both as the overflow bucket).
    if (options_.trace != nullptr && worker.queue.size() >= worker.queue.capacity()) {
      options_.trace->Instant(trace_lane, "cluster", "queue_stall", "worker", i);
    }
    if (!worker.queue.PushBlockingFor(std::move(msg), options_.push_timeout_ms)) {
      worker.reports_dropped.fetch_add(batch_reports, std::memory_order_relaxed);
      worker.cells_dropped.fetch_add(batch_cells, std::memory_order_relaxed);
      obs::Inc(worker.obs_reports_dropped, batch_reports);
      obs::Inc(worker.obs_cells_dropped, batch_cells);
      SFE_WLOG() << "cluster: push to worker " << i << " timed out after "
                 << options_.push_timeout_ms << " ms; dropped " << batch_reports
                 << " reports (" << batch_cells << " cells)";
      if (options_.trace != nullptr) {
        options_.trace->Instant(trace_lane, "cluster", "queue_push_timeout", "reports",
                                batch_reports);
      }
      return;
    }
  } else {
    // Stall trace: the queue counts actual stalls precisely; the producer
    // can only observe "about to block" before the push, so the instant is
    // emitted on the same full-queue condition PushBlocking uses.
    if (options_.trace != nullptr && worker.queue.size() >= worker.queue.capacity()) {
      options_.trace->Instant(trace_lane, "cluster", "queue_stall", "worker", i);
    }
    worker.queue.PushBlocking(std::move(msg));
  }
  worker.batches_enqueued.fetch_add(1, std::memory_order_relaxed);
  worker.reports_enqueued.fetch_add(batch_reports, std::memory_order_relaxed);
  obs::Inc(worker.obs_batches);
  obs::Inc(worker.obs_reports, batch_reports);
  if (options_.trace != nullptr) {
    options_.trace->Instant(trace_lane, "cluster", "enqueue_batch", "reports",
                            batch_reports);
  }
}

void NicCluster::BroadcastSync(const FgSyncMessage& sync, uint32_t trace_lane) {
  // Syncs bypass the capacity bound — they are control plane and are never
  // dropped. The queue's barrier ticket orders each sync after the ring
  // items already claimed, so per-producer sync-before-dependent-report
  // ordering holds even with concurrent producers.
  if (options_.trace != nullptr) {
    options_.trace->Instant(trace_lane, "cluster", "sync_broadcast", "workers",
                            workers_.size());
  }
  for (auto& worker : workers_) {
    WorkerMessage msg;
    msg.kind = WorkerMessage::Kind::kSync;
    msg.sync = sync;
    worker->queue.PushUnbounded(std::move(msg));
    worker->syncs_enqueued.fetch_add(1, std::memory_order_relaxed);
    obs::Inc(worker->obs_syncs);
  }
}

NicCluster::Producer::Producer(NicCluster* cluster, uint32_t trace_lane)
    : cluster_(cluster), trace_lane_(trace_lane), pending_(cluster->nics_.size()) {}

std::unique_ptr<NicCluster::Producer> NicCluster::MakeProducer(uint32_t trace_lane) {
  if (workers_.empty()) {
    return nullptr;  // Serial mode dispatches inline; no staging to own.
  }
  return std::unique_ptr<Producer>(new Producer(this, trace_lane));
}

bool NicCluster::Producer::FaultRoute(const MgpvReport& report, size_t& target) {
  FaultInjector* injector = cluster_->options_.injector;
  const uint32_t members = static_cast<uint32_t>(cluster_->nics_.size());
  // Offered counts batch in the producer (no shared-cacheline traffic per
  // report) and fold into the injector at Close(); routing decisions never
  // read them, so batching cannot change which reports flow where.
  ++offered_reports_;
  offered_cells_ += report.cells.size();
  if (injector->AnyMemberFaults()) {
    const FaultInjector::RouteDecision decision = injector->RouteFor(
        static_cast<uint32_t>(target), report.hash, report.evict_ns, members);
    switch (decision.action) {
      case FaultInjector::RouteDecision::Action::kPrimary:
        break;
      case FaultInjector::RouteDecision::Action::kLost:
        // Crash not yet detected: the report was already "sent" to the dead
        // member — lost in flight, counted, never delivered.
        injector->NoteLost(1, report.cells.size(), report.hash);
        return false;
      case FaultInjector::RouteDecision::Action::kShed:
        injector->NoteShed(1, report.cells.size());
        return false;
      case FaultInjector::RouteDecision::Action::kReroute: {
        const uint64_t pair = static_cast<uint64_t>(target) * members + decision.target;
        if (fenced_.insert(pair).second) {
          // First handoff on this (from, to) edge: push out everything this
          // producer staged for either side, then fence, so the survivor
          // processes the dead member's backlog before any rerouted report.
          if (!pending_[target].empty()) {
            cluster_->EnqueueBatch(target, std::move(pending_[target]), trace_lane_);
            pending_[target].clear();
          }
          if (!pending_[decision.target].empty()) {
            cluster_->EnqueueBatch(decision.target, std::move(pending_[decision.target]),
                                   trace_lane_);
            pending_[decision.target].clear();
          }
          cluster_->PushFence(target, decision.target, trace_lane_);
          injector->NoteFence();
        }
        injector->NoteFailover(1, report.cells.size(), report.hash);
        target = decision.target;
        break;
      }
    }
  }
  if (injector->QueueSaturated(static_cast<uint32_t>(target), report.evict_ns)) {
    // The injected saturation window is trace-time, so every retry inside
    // it fails: bounded retry/backoff, then shed — never block unbounded.
    for (int attempt = 0; attempt < kSaturationRetries; ++attempt) {
      std::this_thread::sleep_for(std::chrono::microseconds(1u << attempt));
    }
    injector->NoteSaturatedPush(kSaturationRetries);
    injector->NoteShed(1, report.cells.size());
    return false;
  }
  return true;
}

void NicCluster::Producer::OnMgpv(const MgpvReport& report) {
  size_t target = report.hash % cluster_->nics_.size();
  if (cluster_->options_.injector != nullptr && !FaultRoute(report, target)) {
    return;
  }
  std::vector<MgpvReport>& pending = pending_[target];
  pending.push_back(report);
  if (pending.size() >= cluster_->options_.enqueue_batch) {
    cluster_->EnqueueBatch(target, std::move(pending), trace_lane_);
    pending.clear();
  }
}

void NicCluster::Producer::OnFgSync(const FgSyncMessage& sync) {
  // A sync must reach each member after the reports this producer staged
  // before it: flush our own staging first, then broadcast. Other
  // producers' staged reports are unrelated groups — unordered by design.
  Close();
  cluster_->BroadcastSync(sync, trace_lane_);
}

void NicCluster::Producer::Close() {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].empty()) {
      cluster_->EnqueueBatch(i, std::move(pending_[i]), trace_lane_);
      pending_[i].clear();
    }
  }
  if (offered_reports_ != 0) {
    cluster_->options_.injector->NoteOffered(offered_reports_, offered_cells_);
    offered_reports_ = 0;
    offered_cells_ = 0;
  }
}

void NicCluster::PushFence(size_t from, size_t to, uint32_t trace_lane) {
  const uint64_t id = next_fence_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  WorkerMessage mark;
  mark.kind = WorkerMessage::Kind::kFenceMark;
  mark.fence_id = id;
  workers_[from]->queue.PushUnbounded(std::move(mark));
  WorkerMessage wait;
  wait.kind = WorkerMessage::Kind::kFenceWait;
  wait.fence_id = id;
  workers_[to]->queue.PushUnbounded(std::move(wait));
  if (options_.trace != nullptr) {
    options_.trace->Instant(trace_lane, "fault", "failover_fence", "from", from);
  }
}

bool NicCluster::SerialFaultRoute(const MgpvReport& report, size_t& target) {
  // Same decisions as Producer::FaultRoute but without fences: inline
  // dispatch processes reports in arrival order, so the handoff is already
  // order-preserving.
  FaultInjector* injector = options_.injector;
  injector->NoteOffered(1, report.cells.size());
  if (injector->AnyMemberFaults()) {
    const FaultInjector::RouteDecision decision =
        injector->RouteFor(static_cast<uint32_t>(target), report.hash, report.evict_ns,
                           static_cast<uint32_t>(nics_.size()));
    switch (decision.action) {
      case FaultInjector::RouteDecision::Action::kPrimary:
        break;
      case FaultInjector::RouteDecision::Action::kLost:
        injector->NoteLost(1, report.cells.size(), report.hash);
        return false;
      case FaultInjector::RouteDecision::Action::kShed:
        injector->NoteShed(1, report.cells.size());
        return false;
      case FaultInjector::RouteDecision::Action::kReroute:
        injector->NoteFailover(1, report.cells.size(), report.hash);
        target = decision.target;
        break;
    }
  }
  if (injector->QueueSaturated(static_cast<uint32_t>(target), report.evict_ns)) {
    injector->NoteSaturatedPush(kSaturationRetries);
    injector->NoteShed(1, report.cells.size());
    return false;
  }
  return true;
}

void NicCluster::OnMgpv(const MgpvReport& report) {
  // Route by the switch-computed hash: every report of a CG group reaches
  // the same NIC, so per-group state never splits across members.
  if (workers_.empty()) {
    size_t target = report.hash % nics_.size();
    if (options_.injector != nullptr && !SerialFaultRoute(report, target)) {
      return;
    }
    obs::TraceClock* clock = options_.latency_clock;
    if (clock == nullptr) {
      nics_[target]->OnMgpv(report);
      return;
    }
    // Serial dispatch runs on the producer thread: there is no queue (no
    // queue-wait stage) and the clock cannot advance mid-call, so service
    // is 0 trace-time ns and end-to-end equals the MGPV residency.
    const uint64_t before_ns = clock->Now();
    nics_[target]->OnMgpv(report);
    const uint64_t after_ns = clock->Now();
    obs::Observe(lat_service_, after_ns - before_ns);
    obs::Observe(lat_e2e_, after_ns > report.first_ingest_ns
                               ? after_ns - report.first_ingest_ns
                               : 0);
    return;
  }
  default_producer_->OnMgpv(report);
}

void NicCluster::OnFgSync(const FgSyncMessage& sync) {
  if (workers_.empty()) {
    for (auto& nic : nics_) {
      nic->OnFgSync(sync);
    }
    return;
  }
  default_producer_->OnFgSync(sync);
}

void NicCluster::Flush() {
  const Status status = FlushWithDeadline(options_.flush_timeout_ms);
  if (!status.ok()) {
    SFE_WLOG() << "cluster flush: " << status.ToString();
  }
}

void NicCluster::AccountCrashedMembers() {
  FaultInjector* injector = options_.injector;
  if (injector == nullptr || crashes_accounted_.exchange(true)) {
    return;
  }
  for (size_t i = 0; i < nics_.size(); ++i) {
    if (injector->MemberDeadAtFlush(static_cast<uint32_t>(i))) {
      injector->NoteMemberCrashed();
    }
  }
}

Status NicCluster::FlushWithDeadline(uint64_t timeout_ms) {
  return BarrierWithDeadline(timeout_ms, /*drain_only=*/false);
}

Status NicCluster::DrainWithDeadline(uint64_t timeout_ms) {
  return BarrierWithDeadline(timeout_ms, /*drain_only=*/true);
}

Status NicCluster::BarrierWithDeadline(uint64_t timeout_ms, bool drain_only) {
  FaultInjector* injector = options_.injector;
  if (workers_.empty()) {
    if (drain_only) {
      return Status::Ok();  // Inline dispatch: nothing queued, nothing to drain.
    }
    AccountCrashedMembers();
    for (size_t i = 0; i < nics_.size(); ++i) {
      if (injector != nullptr && injector->MemberDeadAtFlush(static_cast<uint32_t>(i))) {
        const uint64_t groups = nics_[i]->AbandonState();
        injector->NoteAbandonedGroups(groups);
      } else {
        nics_[i]->Flush();
      }
    }
    return Status::Ok();
  }
  // Barrier: stage-out everything, append a flush marker to every queue,
  // and wait until each worker has drained its queue *and* run its member's
  // Flush(). Markers bypass the capacity bound so the barrier cannot wedge
  // behind a full queue.
  obs::TraceRecorder::Span span(options_.trace, /*lane=*/0, "cluster",
                                drain_only ? "drain_barrier" : "flush_barrier");
  default_producer_->Close();
  if (!drain_only) {
    AccountCrashedMembers();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  {
    std::unique_lock<std::mutex> lock(flush_mu_);
    // A previous barrier that hit its deadline may still be draining; this
    // one starts from zero or gives up under the same deadline.
    if (timeout_ms == 0) {
      flush_cv_.wait(lock, [&] { return flush_pending_ == 0; });
    } else if (!flush_cv_.wait_until(lock, deadline, [&] { return flush_pending_ == 0; })) {
      lock.unlock();
      DumpStallDiagnostics("flush deadline exceeded (previous barrier still draining)");
      if (injector != nullptr) {
        injector->NoteFlushDeadline();
      }
      return Status::DeadlineExceeded("cluster flush barrier timed out after " +
                                      std::to_string(timeout_ms) + " ms");
    }
    flush_pending_ = workers_.size();
  }
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerMessage msg;
    msg.kind = WorkerMessage::Kind::kFlush;
    msg.drain_only = drain_only;
    msg.abandon = !drain_only && injector != nullptr &&
                  injector->MemberDeadAtFlush(static_cast<uint32_t>(i));
    workers_[i]->queue.PushUnbounded(std::move(msg));
  }
  std::unique_lock<std::mutex> lock(flush_mu_);
  if (timeout_ms == 0) {
    flush_cv_.wait(lock, [&] { return flush_pending_ == 0; });
    return Status::Ok();
  }
  if (!flush_cv_.wait_until(lock, deadline, [&] { return flush_pending_ == 0; })) {
    lock.unlock();
    DumpStallDiagnostics("flush deadline exceeded");
    if (injector != nullptr) {
      injector->NoteFlushDeadline();
    }
    return Status::DeadlineExceeded("cluster flush barrier timed out after " +
                                    std::to_string(timeout_ms) + " ms");
  }
  return Status::Ok();
}

void NicCluster::WatchdogLoop() {
  std::vector<bool> latched(workers_.size(), false);
  const uint64_t timeout_ns =
      static_cast<uint64_t>(options_.watchdog_timeout_ms) * 1000000ull;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.watchdog_interval_ms));
    if (watchdog_stop_) {
      break;
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      Worker& worker = *workers_[i];
      const size_t depth = worker.queue.size();
      const uint64_t last = worker.last_progress_ns.load(std::memory_order_relaxed);
      const uint64_t now = SteadyNowNs();
      // A heartbeat lapse only matters while messages are queued: an idle
      // worker legitimately makes no progress.
      const bool stalled = depth > 0 && now > last && now - last > timeout_ns;
      if (stalled && !latched[i]) {
        latched[i] = true;  // Edge-triggered: one event per stall episode.
        SFE_WLOG() << "cluster watchdog: worker " << i << " stalled (queue depth "
                   << depth << ", no progress for " << (now - last) / 1000000ull
                   << " ms)";
        obs::Inc(obs_watchdog_stalls_);
        if (options_.injector != nullptr) {
          options_.injector->NoteWatchdogStall();
        }
        if (options_.trace != nullptr) {
          options_.trace->Instant(/*lane=*/0, "fault", "watchdog_stall",
                                  "worker", i);
        }
      } else if (!stalled) {
        latched[i] = false;
      }
    }
  }
}

void NicCluster::DumpStallDiagnostics(const char* why) {
  const uint64_t now = SteadyNowNs();
  SFE_WLOG() << "cluster diagnostics (" << why << "), " << workers_.size()
             << " workers:";
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker& worker = *workers_[i];
    const uint64_t last = worker.last_progress_ns.load(std::memory_order_relaxed);
    SFE_WLOG() << "  worker " << i << ": queue depth " << worker.queue.size()
               << " (watermark " << worker.queue.high_watermark() << "), enqueued "
               << worker.reports_enqueued.load(std::memory_order_relaxed)
               << " reports / processed "
               << worker.messages_processed.load(std::memory_order_relaxed)
               << " messages, last progress "
               << (now > last ? (now - last) / 1000000ull : 0) << " ms ago"
               << (worker.exited.load(std::memory_order_acquire) ? ", exited" : "");
  }
}

void NicCluster::UpdateObsGauges() {
  for (auto& worker : workers_) {
    obs::Set(worker->obs_queue_depth, static_cast<double>(worker->queue.size()));
    obs::Set(worker->obs_queue_watermark,
             static_cast<double>(worker->queue.high_watermark()));
  }
}

NicWorkerStats NicCluster::worker_stats(size_t i) const {
  NicWorkerStats stats;
  if (workers_.empty()) {
    return stats;
  }
  const Worker& worker = *workers_[i];
  stats.batches_enqueued = worker.batches_enqueued.load(std::memory_order_relaxed);
  stats.reports_enqueued = worker.reports_enqueued.load(std::memory_order_relaxed);
  stats.reports_dropped = worker.reports_dropped.load(std::memory_order_relaxed);
  stats.cells_dropped = worker.cells_dropped.load(std::memory_order_relaxed);
  stats.syncs_enqueued = worker.syncs_enqueued.load(std::memory_order_relaxed);
  stats.backpressure_waits = worker.queue.blocked_pushes();
  stats.queue_high_watermark = worker.queue.high_watermark();
  return stats;
}

FeNicStats NicCluster::AggregateStats() const {
  FeNicStats total;
  for (const auto& nic : nics_) {
    const FeNicStats s = nic->Snapshot();
    total.reports += s.reports;
    total.cells += s.cells;
    total.fg_syncs += s.fg_syncs;
    total.vectors_emitted += s.vectors_emitted;
    total.dram_detours += s.dram_detours;
  }
  return total;
}

NicPerfModel NicCluster::MergedPerf() const {
  NicPerfModel merged = nics_[0]->PerfSnapshot();
  for (size_t i = 1; i < nics_.size(); ++i) {
    merged.Merge(nics_[i]->PerfSnapshot());
  }
  return merged;
}

double NicCluster::ThroughputPps(uint32_t cores_per_nic) const {
  // The cluster sustains N times the per-NIC rate only if load is balanced;
  // the slowest (most loaded) member gates the aggregate.
  std::vector<FeNicStats> snapshots;
  snapshots.reserve(nics_.size());
  uint64_t total_cells = 0;
  uint64_t max_cells = 0;
  for (const auto& nic : nics_) {
    snapshots.push_back(nic->Snapshot());
    total_cells += snapshots.back().cells;
    max_cells = std::max(max_cells, snapshots.back().cells);
  }
  if (total_cells == 0 || max_cells == 0) {
    return 0.0;
  }
  // The most-loaded NIC processes max_cells of every total_cells offered.
  const double gating_fraction = static_cast<double>(max_cells) / total_cells;
  double min_member_pps = 0.0;
  for (size_t i = 0; i < nics_.size(); ++i) {
    if (snapshots[i].cells == max_cells) {
      min_member_pps = nics_[i]->PerfSnapshot().ThroughputPps(cores_per_nic);
      break;
    }
  }
  return min_member_pps / gating_fraction;
}

ClusterCostReport NicCluster::CostReport(uint32_t single_nic_indices,
                                         uint32_t single_nic_width) const {
  ClusterCostReport report;
  report.enabled = true;
  report.members = nics_.size();
  report.load_imbalance = LoadImbalance();

  // Single-NIC baseline: one table per granularity holding the union of
  // the members' groups (sum of inserts — exact for the CG granularity,
  // whose groups are hash-partitioned and disjoint; an upper bound for
  // coarser granularities whose shards can overlap) at the same geometry.
  uint64_t total_cells = 0;
  uint64_t total_lookups = 0;
  uint64_t total_dram_lookups = 0;
  std::vector<uint64_t> granularity_inserts;
  std::vector<uint64_t> granularity_lookups;
  std::vector<std::vector<GroupTableStats>> member_tables;
  member_tables.reserve(nics_.size());
  for (const auto& nic : nics_) {
    member_tables.push_back(nic->TableStats());
    const auto& tables = member_tables.back();
    if (granularity_inserts.size() < tables.size()) {
      granularity_inserts.resize(tables.size(), 0);
      granularity_lookups.resize(tables.size(), 0);
    }
    for (size_t g = 0; g < tables.size(); ++g) {
      granularity_inserts[g] += tables[g].inserts;
      granularity_lookups[g] += tables[g].lookups;
      total_lookups += tables[g].lookups;
      total_dram_lookups += tables[g].dram_lookups;
    }
  }
  double modeled_dram_lookups = 0.0;
  for (size_t g = 0; g < granularity_inserts.size(); ++g) {
    modeled_dram_lookups +=
        static_cast<double>(granularity_lookups[g]) *
        ExpectedDramDetourRate(static_cast<double>(granularity_inserts[g]),
                               static_cast<double>(single_nic_indices),
                               static_cast<double>(single_nic_width));
  }
  report.single_nic_detour_rate =
      total_lookups > 0 ? modeled_dram_lookups / static_cast<double>(total_lookups) : 0.0;
  report.dram_detour_rate = total_lookups > 0 ? static_cast<double>(total_dram_lookups) /
                                                    static_cast<double>(total_lookups)
                                              : 0.0;
  report.dram_detour_delta = report.dram_detour_rate - report.single_nic_detour_rate;

  report.per_member.reserve(nics_.size());
  for (size_t i = 0; i < nics_.size(); ++i) {
    const FeNicStats s = nics_[i]->Snapshot();
    ClusterMemberCost member;
    member.cells = s.cells;
    member.reports = s.reports;
    member.vectors = s.vectors_emitted;
    member.dram_detours = s.dram_detours;
    total_cells += s.cells;
    report.dram_detours += s.dram_detours;
    uint64_t member_lookups = 0;
    uint64_t member_dram = 0;
    for (const auto& t : member_tables[i]) {
      member_lookups += t.lookups;
      member_dram += t.dram_lookups;
    }
    member.dram_detour_rate = member_lookups > 0 ? static_cast<double>(member_dram) /
                                                       static_cast<double>(member_lookups)
                                                 : 0.0;
    member.dram_detour_delta = member.dram_detour_rate - report.single_nic_detour_rate;
    report.per_member.push_back(member);
  }
  const double ideal_share = report.members > 0 ? 1.0 / report.members : 0.0;
  for (auto& member : report.per_member) {
    member.cells_share = total_cells > 0 ? static_cast<double>(member.cells) /
                                               static_cast<double>(total_cells)
                                         : 0.0;
    member.load_delta = member.cells_share - ideal_share;
  }
  return report;
}

double NicCluster::LoadImbalance() const {
  uint64_t total = 0;
  uint64_t max_cells = 0;
  for (const auto& nic : nics_) {
    const FeNicStats s = nic->Snapshot();
    total += s.cells;
    max_cells = std::max(max_cells, s.cells);
  }
  if (total == 0) {
    return 1.0;
  }
  const double mean = static_cast<double>(total) / nics_.size();
  return mean > 0.0 ? static_cast<double>(max_cells) / mean : 1.0;
}

}  // namespace superfe

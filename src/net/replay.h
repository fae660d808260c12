// Trace replay and amplification.
//
// The paper replays captures with MoonGen at up to 40 Gbps and uses
// switch-side packet replication to amplify beyond that (§8.1). Replayer
// models both: it feeds a PacketSink in timestamp order, optionally
// replicating each packet `amplification` times with rewritten source
// addresses and interleaved timestamps.
//
// StreamingReplay is the one replayer the runtime uses, one-shot and daemon
// alike: the feeder thread CG-hash-partitions one bounded chunk at a time
// into per-shard work queues while shard threads replay previously queued
// chunks. Because the partition is by group and each shard's queue is FIFO
// in feed order, every shard preserves the per-group packet order of the
// serial replay, and the emitted records are bit-identical to the serial
// path (both are built by the same replica constructor).
//
// Replay() and ParallelReplay() replay a whole in-memory trace. The runtime
// calls neither: they stay as the oracles tests and the layer benchmark
// compare the streaming path against.
#ifndef SUPERFE_NET_REPLAY_H_
#define SUPERFE_NET_REPLAY_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault_injector.h"
#include "net/trace.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace superfe {

// Nullable observability handles for the replay driver (superfe_replay_*).
// Counters are batched per span chunk, so the per-packet cost is zero.
// Counters may be shared across shard threads (obs::Counter is sharded
// internally); trace_lane / clock_lane are per-thread lanes and must be
// unique per concurrent replayer.
struct ReplayObs {
  obs::Counter* packets = nullptr;
  obs::Counter* bytes = nullptr;
  // Trace-time replay position (superfe_replay_trace_now_ns{shard=...}),
  // refreshed once per chunk flush. Single-writer (this shard's replay
  // thread); the telemetry /status endpoint reads it to show how far into
  // the trace each shard is.
  obs::Gauge* trace_now = nullptr;
  // When set, the replay loop publishes each packet's trace-time timestamp
  // before delivering it, so downstream consumers (NIC workers) can measure
  // queue wait / end-to-end latency in the trace clock domain.
  obs::TraceClock* clock = nullptr;
  // TraceClock lane this replayer advances (single-writer). The clock's
  // Now() is the max over lanes, so per-shard lanes preserve the serial
  // global-max semantics.
  uint32_t clock_lane = 0;
  obs::TraceRecorder* trace = nullptr;
  uint32_t trace_lane = 0;
  // One "replay/batch" trace span (and one counter flush) per this many
  // replayed packets.
  uint32_t span_packets = 8192;

  // Fault injection (not owned): injected clock skew shifts the TraceClock
  // lane this replayer advances — the *measurement* domain only. Packet
  // records and their timestamps are untouched, so skew perturbs latency
  // observations without changing a single feature. Null = no skew.
  FaultInjector* injector = nullptr;
  uint32_t fault_shard = 0;

  static ReplayObs Create(obs::MetricsRegistry* registry, obs::TraceRecorder* trace,
                          uint32_t trace_lane);
};

// Consumer interface for replayed packets (FE-Switch implements this).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void OnPacket(const PacketRecord& packet) = 0;
};

struct ReplayOptions {
  // Each input packet is emitted `amplification` times; replica i gets its
  // source/destination IPs offset so replicas form distinct flows (matching
  // the replicate-and-modify technique of IMap/Hypertester).
  uint32_t amplification = 1;

  // Time compression factor: timestamps are divided by this to model replay
  // at a higher rate than the capture rate.
  double speedup = 1.0;

  // Optional observability wiring (not owned; must outlive the replay).
  const ReplayObs* obs = nullptr;

  // Pin each replay shard thread to logical CPU (shard % CpuCount)
  // — the same slot the NIC cluster pins worker threads to, keeping a
  // shard's producer and its preferred members co-resident. Best-effort:
  // no-op (with one logged warning) where pinning is unsupported. Ignored
  // by the serial Replay().
  bool pin_threads = false;
};

struct ReplayReport {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  // Replayed-timestamp span, kept as exact integers so shard reports merge
  // without float rounding; UINT64_MAX/0 when no packets were replayed.
  uint64_t span_min_ns = UINT64_MAX;
  uint64_t span_max_ns = 0;
  double duration_s = 0.0;  // Replayed (post-speedup) time span.
  double offered_gbps = 0.0;
  double offered_mpps = 0.0;

  // Exact integer aggregation of another (shard) report: sums the counts,
  // widens the span. Call FinalizeRates() once after the last merge.
  void MergeFrom(const ReplayReport& other);
  // Derives duration/offered_* from the integer fields.
  void FinalizeRates();
};

// Replays `trace` into `sink` on the caller's thread; returns offered-load
// accounting. The serial oracle (see the file comment).
ReplayReport Replay(const Trace& trace, const ReplayOptions& options, PacketSink& sink);

// Bounded-memory chunked streaming replay across N shard threads.
//
// One feeder thread calls Feed() with successive packet chunks; each call
// partitions the chunk's (packet, replica) stream with `shard_of` (the
// switch's CG-hash on the *rewritten* replica tuple) and appends per-shard
// id lists to the shard work queues, blocking when a target queue already
// holds `max_chunks_in_flight` chunks. Shard threads drain their queues
// concurrently, so partitioning chunk k overlaps replaying chunk k-1 and
// peak memory is O(chunks_in_flight × chunk_size) instead of O(trace).
//
// Ordering/exactness contract: a group never spans shards, each shard queue
// is FIFO in feed order, and records are built by the same MakeReplica as
// the serial path — so per-group delivery order and record bytes are
// identical to Replay()/the historical up-front partition. The replica
// timestamp base is the first packet of the first chunk ever fed.
//
// Thread contract: Feed/WaitIdle/Close from ONE feeder thread; Report and
// Backlog from any thread. WaitIdle() blocks until every fed chunk has been
// fully delivered — the daemon's epoch fence (the mutex edge also makes all
// shard-side writes visible to the caller). Report() merges shard reports
// under the lock; its packet/byte counts are exact at any time, but rates
// are only meaningful at quiescence (after WaitIdle or Close).
class StreamingReplay {
 public:
  StreamingReplay(const ReplayOptions& options, std::vector<PacketSink*> sinks,
                  std::vector<const ReplayObs*> shard_obs,
                  std::function<uint32_t(const PacketRecord&)> shard_of,
                  size_t max_chunks_in_flight = 4);
  ~StreamingReplay();
  StreamingReplay(const StreamingReplay&) = delete;
  StreamingReplay& operator=(const StreamingReplay&) = delete;

  // Partitions and enqueues one chunk; blocks while any target shard queue
  // is full (backpressure toward the ingest source).
  void Feed(std::vector<PacketRecord> chunk);

  // Blocks until all fed work has been delivered to the sinks.
  void WaitIdle();

  // Drains remaining work and joins the shard threads. Idempotent; the
  // destructor calls it.
  void Close();

  ReplayReport Report() const;

  // Replicated packets fed so far (chunk packets × amplification).
  uint64_t packets_fed() const;

  // Chunks enqueued or in progress — the shed signal for overload mode.
  size_t Backlog() const;

 private:
  struct Work {
    std::shared_ptr<const std::vector<PacketRecord>> chunk;
    std::vector<uint64_t> ids;  // chunk-local index * amplification + replica
  };
  void ShardLoop(size_t s);

  const ReplayOptions options_;
  const std::vector<PacketSink*> sinks_;
  const std::vector<const ReplayObs*> shard_obs_;
  const std::function<uint32_t(const PacketRecord&)> shard_of_;
  const size_t max_queue_;
  const uint32_t amp_;
  const double speedup_;

  // Written once by the feeder before the first enqueue; shard threads only
  // observe it through the queue's mutex edge.
  uint64_t base_ts_ = 0;
  bool base_ts_set_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // shards wait: work or closing
  std::condition_variable space_cv_;  // feeder waits: queue space / idle
  std::vector<std::deque<Work>> queues_;
  size_t in_flight_ = 0;  // queued or being replayed
  uint64_t packets_fed_ = 0;
  bool closing_ = false;
  bool closed_ = false;
  std::vector<ReplayReport> shard_reports_;
  std::vector<std::thread> threads_;
};

// Replays `trace` into sinks.size() shards, one thread per shard, by
// feeding the whole trace through a StreamingReplay in fixed-size chunks —
// the whole-trace oracle for the sharded streaming path.
// `shard_of` maps a fully-formed replica record to its shard (must return
// values in [0, sinks.size()) and be pure — it is called once per record
// during chunk partitioning). `shard_obs` is either empty or one entry per
// shard (entries may be null); each shard's obs must use a distinct
// trace/clock lane. Aggregation across shards is exact (integer sums via
// MergeFrom).
ReplayReport ParallelReplay(const Trace& trace, const ReplayOptions& options,
                            const std::vector<PacketSink*>& sinks,
                            const std::vector<const ReplayObs*>& shard_obs,
                            const std::function<uint32_t(const PacketRecord&)>& shard_of);

}  // namespace superfe

#endif  // SUPERFE_NET_REPLAY_H_

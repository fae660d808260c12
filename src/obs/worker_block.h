// WorkerObsBlock: the hot tier of the two-tier observability design
// (docs/OBSERVABILITY.md, "Hot-path design").
//
// Each replay shard, NIC worker, and serial sink owns one block of plain
// (non-atomic) delta cells bound to the shared registry handles it
// instruments. Per-packet sites touch only the owning thread's cells — no
// shared cachelines, no atomics — and the block folds its deltas into the
// shared MetricsRegistry / LatencyHistogram instruments exactly once per
// batch (NotePacket cadence) and at every flush barrier, failover fence,
// and shutdown. The registry is therefore the cold tier, touched
// O(batches) instead of O(packets), while totals at quiescence stay exact:
// every flush point precedes the corresponding Snapshot/Collect read.
//
// Threading: a block is single-owner. Bind*() happens at wiring time on
// the owning thread; the cells it returns are stable for the block's
// lifetime (deque storage). Flush() folds with relaxed atomic adds, so
// multiple blocks bound to the same shared instrument may flush
// concurrently.
//
// Disable paths: Init() with a null registry leaves the block disabled and
// every Bind*() returns nullptr, so the null-safe cell helpers below make
// the whole tier free except one branch per site. A null shared handle
// also binds to nullptr — no cell is allocated for an instrument that does
// not exist. SUPERFE_OBS_DISABLED compiles the helpers away entirely.
#ifndef SUPERFE_OBS_WORKER_BLOCK_H_
#define SUPERFE_OBS_WORKER_BLOCK_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/latency.h"
#include "obs/metrics.h"

namespace superfe {
namespace obs {

// The pipeline blocks' auto-flush cadence, in packets (cells for a NIC):
// the switch, MGPV and NIC blocks fold into the registry once per this
// many and at every quiescence edge, so quiescent totals are exact at any
// cadence. Measured, cadences of 64 to 4096 cost the same and folding per
// packet costs about 8 % more, so the cadence is a constant.
constexpr uint32_t kObsFlushPackets = 4096;

class WorkerObsBlock {
 public:
  struct CounterCell {
    uint64_t delta = 0;
    Counter* shared = nullptr;
  };
  struct GaugeCell {
    double value = 0.0;
    bool dirty = false;
    Gauge* shared = nullptr;
  };
  struct HistogramCell {
    Histogram* shared = nullptr;
    std::vector<uint64_t> buckets;  // bounds+1, matching shared's layout.
    uint64_t count = 0;
    double sum = 0.0;

    void Observe(double value) {
      const std::vector<double>& bounds = shared->bounds();
      size_t i = 0;
      while (i < bounds.size() && value > bounds[i]) {
        ++i;
      }
      ++buckets[i];
      ++count;
      sum += value;
    }
  };
  struct LatencyCell {
    LatencyHistogram* shared = nullptr;
    std::array<uint64_t, LatencyHistogram::kNumBounds + 1> buckets{};
    uint64_t count = 0;
    uint64_t sum_ns = 0;

    void Observe(uint64_t ns) {
      ++buckets[LatencyHistogram::BucketIndex(ns)];
      ++count;
      sum_ns += ns;
    }
  };

  WorkerObsBlock() = default;
  WorkerObsBlock(const WorkerObsBlock&) = delete;
  WorkerObsBlock& operator=(const WorkerObsBlock&) = delete;
  // Any deltas still buffered at destruction fold into the shared tier, so
  // a stack-local block (e.g. in a worker loop) can never drop counts.
  ~WorkerObsBlock() { Flush(); }

  // Enables the block against `registry` (null leaves it disabled) and
  // registers the batching tier's own meta-metrics, labeled {block=name}.
  // `flush_every` is the NotePacket auto-flush cadence: 0 means manual —
  // the owner flushes only at its batch/barrier points, while NotePacket
  // still tracks flush lag.
  void Init(MetricsRegistry* registry, const std::string& block_name,
            uint32_t flush_every);

  bool enabled() const { return enabled_; }

  // Stable cell for `shared`, or nullptr when the block is disabled or
  // `shared` is null (no allocation on disable paths).
  CounterCell* BindCounter(Counter* shared);
  GaugeCell* BindGauge(Gauge* shared);
  HistogramCell* BindHistogram(Histogram* shared);
  LatencyCell* BindLatency(LatencyHistogram* shared);

  // Per-packet tick: counts flush lag and auto-flushes every `flush_every`
  // packets.
  void NotePacket() { NotePackets(1); }
  void NotePackets(uint64_t n) {
    if (!enabled_) {
      return;
    }
    packets_since_flush_ += n;
    if (flush_every_ > 0 && packets_since_flush_ >= flush_every_) {
      Flush();
    }
  }

  // Folds every dirty cell into its shared instrument and resets the
  // deltas. Called from NotePacket and from the owner's batch boundaries,
  // flush barriers, failover fences, and shutdown.
  void Flush();

 private:
  bool enabled_ = false;
  uint32_t flush_every_ = 0;
  uint64_t packets_since_flush_ = 0;
  uint64_t max_lag_packets_ = 0;
  Counter* flushes_ = nullptr;   // superfe_obs_flushes_total
  Gauge* max_lag_ = nullptr;     // superfe_obs_max_flush_lag_packets{block=...}
  std::deque<CounterCell> counters_;
  std::deque<GaugeCell> gauges_;
  std::deque<HistogramCell> histograms_;
  std::deque<LatencyCell> latencies_;
};

// Null-safe cell helpers mirroring the registry-handle helpers in
// metrics.h: hot sites hold nullable cell pointers and call these
// unconditionally. SUPERFE_OBS_DISABLED compiles them away.
#ifndef SUPERFE_OBS_DISABLED
inline void Inc(WorkerObsBlock::CounterCell* c, uint64_t n = 1) {
  if (c != nullptr) {
    c->delta += n;
  }
}
inline void Set(WorkerObsBlock::GaugeCell* g, double value) {
  if (g != nullptr) {
    g->value = value;
    g->dirty = true;
  }
}
inline void Observe(WorkerObsBlock::HistogramCell* h, double value) {
  if (h != nullptr) {
    h->Observe(value);
  }
}
inline void Observe(WorkerObsBlock::LatencyCell* h, uint64_t ns) {
  if (h != nullptr) {
    h->Observe(ns);
  }
}
#else
inline void Inc(WorkerObsBlock::CounterCell*, uint64_t = 1) {}
inline void Set(WorkerObsBlock::GaugeCell*, double) {}
inline void Observe(WorkerObsBlock::HistogramCell*, double) {}
inline void Observe(WorkerObsBlock::LatencyCell*, uint64_t) {}
#endif

}  // namespace obs
}  // namespace superfe

#endif  // SUPERFE_OBS_WORKER_BLOCK_H_

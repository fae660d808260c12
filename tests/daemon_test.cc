// Daemon-mode tests (docs/ROBUSTNESS.md, "Daemon mode"): rolling-epoch
// exactness against the one-shot oracle across the shards x workers matrix
// (including under a crash fault plan), per-epoch reconciliation at every
// boundary, signal-initiated graceful drain, the looped/streaming ingest
// sources, and the loopback socket source's damage tolerance. CI runs this
// binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/socket.h"
#include "core/runtime.h"
#include "net/ingest.h"
#include "net/trace_gen.h"
#include "net/wire.h"
#include "policy/parser.h"

namespace superfe {
namespace {

const char* kFlowStatsPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max])
  .reduce(ipt, [f_max])
  .collect(flow)
)";

using VectorKey = std::tuple<int, std::string, uint64_t, std::vector<double>>;

std::vector<VectorKey> SortedMultiset(const std::vector<FeatureVector>& vectors) {
  std::vector<VectorKey> keys;
  keys.reserve(vectors.size());
  for (const auto& v : vectors) {
    keys.emplace_back(static_cast<int>(v.group.granularity),
                      std::string(v.group.bytes.begin(), v.group.bytes.begin() + v.group.length),
                      v.timestamp_ns, v.values);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

RuntimeConfig MakeConfig(uint32_t shards, uint32_t workers, const std::string& plan = "") {
  RuntimeConfig config;
  config.switch_shards = shards;
  config.worker_threads = workers;
  if (!plan.empty()) {
    auto parsed = FaultPlan::Parse(plan);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    config.fault.plan = std::move(parsed).value();
  }
  return config;
}

// The one-shot oracle over the exact stream a looped daemon ingests.
std::vector<VectorKey> OneShotOracle(const Policy& policy, const RuntimeConfig& config,
                                     const Trace& trace, uint64_t loops,
                                     RunReport* report_out = nullptr) {
  const Trace looped = LoopedTraceSource::Materialize(trace, loops);
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(looped, &sink);
  if (report_out != nullptr) {
    *report_out = report;
  }
  return SortedMultiset(sink.vectors());
}

DaemonReport RunDaemonOnce(const Policy& policy, const RuntimeConfig& config,
                           const Trace& trace, uint64_t loops,
                           const DaemonConfig& daemon_in,
                           std::vector<VectorKey>* vectors_out) {
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  LoopedTraceSource source(&trace, loops);
  CollectingFeatureSink sink;
  DaemonConfig daemon = daemon_in;
  daemon.fault_trigger_trace = LoopedTrace(&trace, loops);
  const DaemonReport report = (*runtime)->RunDaemon(source, &sink, daemon);
  if (vectors_out != nullptr) {
    *vectors_out = SortedMultiset(sink.vectors());
  }
  return report;
}

TEST(LoopedTraceSourceTest, MaterializeMatchesChunkStream) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 2000, 7);
  const uint64_t loops = 3;
  const Trace oracle = LoopedTraceSource::Materialize(trace, loops);

  LoopedTraceSource source(&trace, loops);
  std::vector<PacketRecord> streamed;
  std::vector<PacketRecord> chunk;
  // An odd chunk size exercises loop-boundary splits.
  while (source.NextChunk(&chunk, 777) == PacketSource::Next::kChunk) {
    streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    chunk.clear();
  }
  ASSERT_EQ(streamed.size(), oracle.packets().size());
  uint64_t prev_ts = 0;
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].timestamp_ns, oracle.packets()[i].timestamp_ns) << "at " << i;
    EXPECT_EQ(streamed[i].tuple, oracle.packets()[i].tuple) << "at " << i;
    EXPECT_GE(streamed[i].timestamp_ns, prev_ts) << "at " << i;
    prev_ts = streamed[i].timestamp_ns;
  }
  EXPECT_EQ(source.stats().loops_completed, loops);
  EXPECT_EQ(source.stats().frames, streamed.size());
}

TEST(StreamingReplayTest, ChunkedFeedMatchesWholeTraceReplay) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 8000, 13);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());

  const RuntimeConfig config = MakeConfig(4, 0);
  const std::vector<VectorKey> oracle = OneShotOracle(*policy, config, trace, 1);

  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok());
  CollectingFeatureSink sink;
  DaemonConfig daemon;
  daemon.chunk_packets = 311;   // Deliberately unaligned with anything.
  daemon.epoch_packets = 0;     // No rotation: pure streaming-vs-batch.
  LoopedTraceSource source(&trace, 1);
  const DaemonReport report = (*runtime)->RunDaemon(source, &sink, daemon);
  EXPECT_TRUE(report.all_epochs_reconciled);
  EXPECT_EQ(report.epochs.size(), 1u);  // Only the final flush epoch.
  EXPECT_EQ(SortedMultiset(sink.vectors()), oracle);
}

TEST(DaemonEpochTest, RolloverExactnessAcrossShardWorkerMatrix) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, 29);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());
  const uint64_t loops = 2;

  for (uint32_t shards : {1u, 4u}) {
    for (uint32_t workers : {0u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      const RuntimeConfig config = MakeConfig(shards, workers);
      const std::vector<VectorKey> oracle = OneShotOracle(*policy, config, trace, loops);

      DaemonConfig daemon;
      daemon.chunk_packets = 1000;
      daemon.epoch_packets = 5000;  // Several rotations per run.
      std::vector<VectorKey> got;
      const DaemonReport report =
          RunDaemonOnce(*policy, config, trace, loops, daemon, &got);
      EXPECT_EQ(got, oracle);
      EXPECT_TRUE(report.all_epochs_reconciled);
      EXPECT_TRUE(report.drained);
      EXPECT_GE(report.epochs.size(), 3u);
      EXPECT_TRUE(report.epochs.back().final_epoch);
      uint64_t total_vectors = 0;
      for (const DaemonEpoch& e : report.epochs) {
        EXPECT_TRUE(e.reconciled) << "epoch " << e.index;
        total_vectors += e.vectors;
      }
      // Per-epoch deltas tile the run exactly: no vector is double-counted
      // or dropped by the boundary accounting.
      EXPECT_EQ(total_vectors, report.run.nic.vectors_emitted);
      EXPECT_EQ(static_cast<uint64_t>(got.size()), total_vectors);
    }
  }
}

TEST(DaemonEpochTest, RolloverExactnessUnderCrashFaultPlan) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, 31);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());
  // A crash mid-run: failover reroutes the dead member's CG range, the
  // detection window loses in-flight reports, flush abandons residual
  // state — all on the deterministic trace-time axis, so daemon and
  // one-shot see byte-identical fault decisions.
  const std::string plan = "crash member=1 at_packet=6000 detect_ms=2";

  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RuntimeConfig config = MakeConfig(shards, 4, plan);
    RunReport oneshot;
    const std::vector<VectorKey> oracle =
        OneShotOracle(*policy, config, trace, 1, &oneshot);
    ASSERT_TRUE(oneshot.fault.reconciled);
    ASSERT_GT(oneshot.fault.stats.members_crashed, 0u);

    DaemonConfig daemon;
    daemon.chunk_packets = 1000;
    daemon.epoch_packets = 4000;
    std::vector<VectorKey> got;
    const DaemonReport report = RunDaemonOnce(*policy, config, trace, 1, daemon, &got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(report.all_epochs_reconciled);
    EXPECT_TRUE(report.drained);
    EXPECT_GE(report.epochs.size(), 2u);
    for (const DaemonEpoch& e : report.epochs) {
      EXPECT_TRUE(e.reconciled) << "epoch " << e.index;
    }
    // The crash's losses land in some epoch's ledger, not between epochs.
    uint64_t lost = 0, shed = 0;
    bool any_fault_epoch = false;
    for (const DaemonEpoch& e : report.epochs) {
      lost += e.cells_lost;
      shed += e.cells_shed;
      any_fault_epoch = any_fault_epoch || e.fault_active;
    }
    EXPECT_EQ(lost, report.run.fault.stats.cells_lost_to_failover);
    EXPECT_EQ(shed, report.run.fault.stats.cells_shed);
    EXPECT_TRUE(any_fault_epoch);
    // Same deterministic fault outcome as the one-shot oracle.
    EXPECT_EQ(report.run.fault.stats.cells_offered, oneshot.fault.stats.cells_offered);
    EXPECT_EQ(report.run.fault.stats.cells_lost_to_failover,
              oneshot.fault.stats.cells_lost_to_failover);
    EXPECT_EQ(report.run.fault.stats.cells_shed, oneshot.fault.stats.cells_shed);
  }
}

TEST(DaemonEpochTest, CrashInSecondLoopFiresAsInMaterializedRun) {
  // at_packet counts over the whole looped stream: a trigger in loop 2 must
  // fire where it fires in a run over the materialized stream, not be
  // dropped as past the end of the one in-memory copy.
  const Trace trace = GenerateTrace(EnterpriseProfile(), 12000, 31);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());
  const uint64_t loops = 2;
  const std::string plan =
      "crash member=1 at_packet=" + std::to_string(trace.size() * 3 / 2) + " detect_ms=2";

  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const RuntimeConfig config = MakeConfig(shards, 4, plan);
    RunReport oneshot;
    const std::vector<VectorKey> oracle =
        OneShotOracle(*policy, config, trace, loops, &oneshot);
    ASSERT_GT(oneshot.fault.stats.members_crashed, 0u);
    ASSERT_GT(oneshot.fault.stats.reports_failed_over, 0u);

    DaemonConfig daemon;
    daemon.chunk_packets = 1000;
    daemon.epoch_packets = 5000;
    std::vector<VectorKey> got;
    const DaemonReport report = RunDaemonOnce(*policy, config, trace, loops, daemon, &got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(report.all_epochs_reconciled);
    EXPECT_TRUE(report.drained);
    const FaultStats& want = oneshot.fault.stats;
    const FaultStats& fs = report.run.fault.stats;
    EXPECT_EQ(fs.cells_offered, want.cells_offered);
    EXPECT_EQ(fs.cells_lost_to_failover, want.cells_lost_to_failover);
    EXPECT_EQ(fs.cells_shed, want.cells_shed);
    EXPECT_EQ(fs.reports_failed_over, want.reports_failed_over);
    EXPECT_EQ(fs.groups_failed_over, want.groups_failed_over);
    EXPECT_EQ(fs.members_crashed, want.members_crashed);
    EXPECT_EQ(fs.groups_abandoned, want.groups_abandoned);
  }
}

TEST(DaemonDrainTest, SignalMidRunDrainsCleanly) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 6000, 37);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());
  const RuntimeConfig config = MakeConfig(4, 4);
  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok());

  // Endless looped ingest; a watcher thread raises the stop flag mid-run
  // like a SIGTERM handler would.
  LoopedTraceSource source(&trace, /*loops=*/0);
  std::atomic<int> stop{0};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(15, std::memory_order_relaxed);  // SIGTERM's number.
  });

  CollectingFeatureSink sink;
  DaemonConfig daemon;
  daemon.chunk_packets = 500;
  daemon.epoch_packets = 3000;
  daemon.stop = &stop;
  daemon.fault_trigger_trace = LoopedTrace(&trace, /*loops=*/0);
  const DaemonReport report = (*runtime)->RunDaemon(source, &sink, daemon);
  killer.join();

  EXPECT_TRUE(report.stopped_by_signal);
  EXPECT_EQ(report.signal, 15);
  EXPECT_TRUE(report.drained);
  EXPECT_TRUE(report.all_epochs_reconciled);
  ASSERT_FALSE(report.epochs.empty());
  EXPECT_TRUE(report.epochs.back().final_epoch);
  // Everything fed before the signal was fully processed: the vector count
  // ties out against the per-epoch ledgers.
  uint64_t total_vectors = 0;
  for (const DaemonEpoch& e : report.epochs) {
    EXPECT_TRUE(e.reconciled) << "epoch " << e.index;
    total_vectors += e.vectors;
  }
  EXPECT_EQ(total_vectors, static_cast<uint64_t>(sink.vectors().size()));
}

TEST(DaemonEpochTest, MaxEpochsAndTimeRotationBound) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 4000, 41);
  auto policy = ParsePolicy("daemon", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok());
  auto runtime = SuperFeRuntime::Create(*policy, MakeConfig(1, 0));
  ASSERT_TRUE(runtime.ok());
  LoopedTraceSource source(&trace, /*loops=*/0);  // Endless.
  CollectingFeatureSink sink;
  DaemonConfig daemon;
  daemon.chunk_packets = 400;
  daemon.epoch_packets = 800;
  daemon.max_epochs = 3;  // Rotated epochs; the final flush epoch is extra.
  daemon.fault_trigger_trace = LoopedTrace(&trace, /*loops=*/0);
  const DaemonReport report = (*runtime)->RunDaemon(source, &sink, daemon);
  EXPECT_EQ(report.epochs.size(), 4u);
  EXPECT_FALSE(report.stopped_by_signal);
  EXPECT_TRUE(report.all_epochs_reconciled);
  EXPECT_TRUE(report.drained);
}

// ---- Loopback socket ingest -----------------------------------------------

std::string FrameRecords(const std::vector<PacketRecord>& records) {
  std::string wire;
  for (const PacketRecord& r : records) {
    AppendIngestRecord(&wire, r);
  }
  return wire;
}

TEST(SocketSourceTest, TcpDeliversFramedRecords) {
  SocketSourceOptions opts;
  opts.port = 0;  // Ephemeral.
  auto source = SocketSource::Open(opts);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 200, 43);
  const std::string wire = FrameRecords(trace.packets());

  std::thread sender([&, port = (*source)->port()] {
    const int fd = TcpConnect(port, 1000);
    ASSERT_GE(fd, 0);
    // Two sends split mid-record to exercise byte reassembly.
    const size_t split = wire.size() / 2 + 7;
    ASSERT_TRUE(SendAll(fd, std::string_view(wire).substr(0, split)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(SendAll(fd, std::string_view(wire).substr(split)));
    CloseFd(fd);
  });

  std::vector<PacketRecord> got;
  std::vector<PacketRecord> chunk;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < trace.packets().size() &&
         std::chrono::steady_clock::now() < deadline) {
    chunk.clear();
    const PacketSource::Next next = (*source)->NextChunk(&chunk, 64);
    if (next == PacketSource::Next::kEnd) {
      break;
    }
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  sender.join();
  ASSERT_EQ(got.size(), trace.packets().size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp_ns, trace.packets()[i].timestamp_ns) << "at " << i;
    EXPECT_EQ(got[i].tuple, trace.packets()[i].tuple) << "at " << i;
    EXPECT_EQ(got[i].direction, trace.packets()[i].direction) << "at " << i;
  }
  EXPECT_EQ((*source)->stats().frames, got.size());
  EXPECT_EQ((*source)->stats().frames_damaged, 0u);
}

TEST(SocketSourceTest, DamagedFrameSkippedStreamStaysSynced) {
  SocketSourceOptions opts;
  opts.port = 0;
  auto source = SocketSource::Open(opts);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 20, 47);
  std::string wire;
  AppendIngestRecord(&wire, trace.packets()[0]);
  // A framed-but-garbage record: valid length header, unparseable payload.
  // The source must count it damaged and resynchronize on the next record.
  {
    const uint32_t len = static_cast<uint32_t>(kMinFrameLen);
    char header[kIngestHeaderLen] = {};
    std::memcpy(header, &len, 4);  // Little-endian on every supported arch.
    wire.append(header, sizeof(header));
    wire.append(kMinFrameLen, '\xff');
  }
  AppendIngestRecord(&wire, trace.packets()[1]);

  std::thread sender([&, port = (*source)->port()] {
    const int fd = TcpConnect(port, 1000);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, wire));
    CloseFd(fd);
  });

  std::vector<PacketRecord> got;
  std::vector<PacketRecord> chunk;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    chunk.clear();
    if ((*source)->NextChunk(&chunk, 16) == PacketSource::Next::kEnd) {
      break;
    }
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  sender.join();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].tuple, trace.packets()[0].tuple);
  EXPECT_EQ(got[1].tuple, trace.packets()[1].tuple);
  EXPECT_EQ((*source)->stats().frames_damaged, 1u);
}

TEST(SocketSourceTest, UdpDeliversOneRecordPerDatagram) {
  SocketSourceOptions opts;
  opts.port = 0;
  opts.udp = true;
  auto source = SocketSource::Open(opts);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 50, 53);
  std::thread sender([&, port = (*source)->port()] {
    const int fd = UdpConnect(port);
    ASSERT_GE(fd, 0);
    for (const PacketRecord& r : trace.packets()) {
      std::string datagram;
      AppendIngestRecord(&datagram, r);
      ASSERT_TRUE(SendAll(fd, datagram));
      // Loopback UDP can still drop under burst; pace the writes.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    CloseFd(fd);
  });

  std::vector<PacketRecord> got;
  std::vector<PacketRecord> chunk;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < trace.packets().size() &&
         std::chrono::steady_clock::now() < deadline) {
    chunk.clear();
    if ((*source)->NextChunk(&chunk, 16) == PacketSource::Next::kEnd) {
      break;
    }
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  sender.join();
  // UDP is lossy by nature even on loopback; require substantial delivery
  // and exact decoding of what arrived.
  ASSERT_GE(got.size(), trace.packets().size() / 2);
  for (const PacketRecord& r : got) {
    EXPECT_GT(r.wire_bytes, 0u);
  }
  EXPECT_EQ((*source)->stats().frames, got.size());
}

}  // namespace
}  // namespace superfe

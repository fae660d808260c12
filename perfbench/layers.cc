// perfbench_layers: per-layer probe for the superfe_run benchmark.
//
// Calls the public functions of each SuperFE module and times them from
// here, so nothing inside the library is instrumented. Three modes, each
// printing one JSON object on stdout:
//
//   perfbench_layers spawn TIMEOUT_S LOG PROGRAM ARGS...
//     Runs one child with stdout and stderr to LOG and reports its exit
//     code, wall time (fork to reap) and wait4 rusage. The launcher is a
//     small process: a child's ru_maxrss includes the peak RSS of the
//     process it was forked from, so forking from the (large) harness
//     would inflate it. The child is killed after TIMEOUT_S seconds.
//
//   perfbench_layers setup POLICY.sfe PCAP LOOP SHARDS WORKERS DAEMON REPS
//     Times what superfe_run does before the first packet enters the
//     pipeline (ParsePolicy + ReadPcap [+ Materialize] + Create), REPS times.
//
//   perfbench_layers trace POLICY.sfe PCAP LOOP SHARDS WORKERS DAEMON
//     Runs the serial pipeline with a timing shim at every layer boundary
//     (Replay -> FeSwitch -> FeNic -> sink), the same pipeline untraced,
//     ParallelReplay / StreamingReplay into no-op sinks, and Run/RunDaemon
//     at the workload topology, and prints the raw totals the harness turns
//     into per-layer metrics.
//
// DAEMON is 0 or 1. A one-shot run with LOOP > 1 replays the materialized
// looped stream, exactly as superfe_run does; a daemon run pulls the loops
// from a LoopedTraceSource.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/json_writer.h"
#include "core/runtime.h"
#include "net/ingest.h"
#include "net/pcap.h"
#include "net/replay.h"
#include "nicsim/fe_nic.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "streaming/simd.h"
#include "switchsim/fe_switch.h"

using namespace superfe;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// CPU time of every thread in this process.
uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
  std::exit(1);
}

struct Args {
  std::string mode;
  std::string policy_path;
  std::string pcap_path;
  uint64_t loop = 1;
  uint32_t shards = 1;
  uint32_t workers = 0;
  bool daemon = false;
  int reps = 1;
};

Policy LoadPolicy(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Die("cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto policy = ParsePolicy(path, buffer.str());
  if (!policy.ok()) {
    Die("parse error: " + policy.status().ToString());
  }
  return std::move(policy).value();
}

Trace LoadTrace(const std::string& path) {
  auto trace = ReadPcap(path);
  if (!trace.ok()) {
    Die("pcap error: " + trace.status().ToString());
  }
  return std::move(trace).value();
}

// superfe_run's configuration for the workload: no obs, empty fault plan.
RuntimeConfig WorkloadConfig(const Args& args) {
  RuntimeConfig config;
  config.worker_threads = args.workers;
  config.switch_shards = args.shards;
  return config;
}

std::unique_ptr<SuperFeRuntime> CreateRuntime(const Policy& policy, const Args& args) {
  auto runtime = SuperFeRuntime::Create(policy, WorkloadConfig(args));
  if (!runtime.ok()) {
    Die("compile error: " + runtime.status().ToString());
  }
  return std::move(runtime).value();
}

void FieldArray(JsonWriter& out, const char* key, const std::vector<double>& values) {
  out.Key(key);
  out.BeginArray();
  for (double v : values) {
    out.Double(v);
  }
  out.EndArray();
}

void AddProvenance(JsonWriter& out) {
  out.FieldStr("simd", SimdLevelName(ActiveSimdLevel()));
  out.FieldStr("git_sha", BuildGitSha());
  out.FieldStr("compiler", BuildCompiler());
}

// ---- spawn mode -----------------------------------------------------------

volatile sig_atomic_t g_child = 0;

void KillChild(int) {
  if (g_child > 0) {
    kill(g_child, SIGKILL);
  }
}

int RunSpawn(int argc, char** argv) {
  const unsigned timeout_s = static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10));
  const int log = open(argv[3], O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) {
    Die(std::string("cannot write ") + argv[3]);
  }
  std::vector<char*> child_argv(argv + 4, argv + argc);
  child_argv.push_back(nullptr);
  const uint64_t t0 = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    Die("fork failed");
  }
  if (pid == 0) {
    dup2(log, STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    execv(child_argv[0], child_argv.data());
    _exit(127);
  }
  g_child = pid;
  signal(SIGALRM, KillChild);
  alarm(timeout_s);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      Die("wait4 failed");
    }
  }
  const uint64_t t1 = NowNs();
  alarm(0);
  close(log);
  const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  const auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  JsonWriter out(std::cout, /*indent=*/0);
  out.BeginObject();
  out.FieldInt("rc", rc);
  out.FieldDouble("wall_s", (t1 - t0) / 1e9);
  out.FieldDouble("cpu_s", seconds(usage.ru_utime) + seconds(usage.ru_stime));
  out.FieldDouble("rss_mb", usage.ru_maxrss / 1024.0);
  out.EndObject();
  std::cout << '\n';
  return 0;
}

// ---- setup mode -----------------------------------------------------------

int RunSetup(const Args& args) {
  std::vector<double> parse_ms, read_ms, materialize_ms, create_ms, compile_ms, total_s;
  for (int rep = 0; rep < args.reps; ++rep) {
    const uint64_t t0 = NowNs();
    const Policy policy = LoadPolicy(args.policy_path);
    const uint64_t t1 = NowNs();
    Trace trace = LoadTrace(args.pcap_path);
    const uint64_t t2 = NowNs();
    if (!args.daemon && args.loop > 1) {
      trace = LoopedTraceSource::Materialize(trace, args.loop);
    }
    const uint64_t t3 = NowNs();
    auto runtime = CreateRuntime(policy, args);
    const uint64_t t4 = NowNs();
    runtime.reset();
    trace = Trace();
    // Compile() alone, outside the set-up total (Create compiles too).
    const uint64_t c0 = NowNs();
    auto compiled = Compile(policy);
    const uint64_t c1 = NowNs();
    if (!compiled.ok()) {
      Die("compile error: " + compiled.status().ToString());
    }
    parse_ms.push_back((t1 - t0) / 1e6);
    read_ms.push_back((t2 - t1) / 1e6);
    materialize_ms.push_back((t3 - t2) / 1e6);
    create_ms.push_back((t4 - t3) / 1e6);
    compile_ms.push_back((c1 - c0) / 1e6);
    total_s.push_back((t4 - t0) / 1e9);
  }
  JsonWriter out(std::cout, /*indent=*/0);
  out.BeginObject();
  FieldArray(out, "parse_ms", parse_ms);
  FieldArray(out, "read_pcap_ms", read_ms);
  FieldArray(out, "materialize_ms", materialize_ms);
  FieldArray(out, "create_ms", create_ms);
  FieldArray(out, "compile_ms", compile_ms);
  FieldArray(out, "setup_s", total_s);
  AddProvenance(out);
  out.EndObject();
  std::cout << '\n';
  return 0;
}

// ---- trace mode -----------------------------------------------------------

// Innermost sink: counts and drops the vectors.
class CountingSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override {
    const FeatureVector dropped = std::move(vector);
    ++count_;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

// Times each hand-off from the NIC into the sink.
class TimedFeatureSink : public FeatureSink {
 public:
  explicit TimedFeatureSink(FeatureSink* next) : next_(next) {}
  void OnFeatureVector(FeatureVector&& vector) override {
    const uint64_t t0 = NowNs();
    next_->OnFeatureVector(std::move(vector));
    ns += NowNs() - t0;
    ++calls;
  }
  uint64_t ns = 0;
  uint64_t calls = 0;

 private:
  FeatureSink* next_;
};

// Times each switch -> NIC message.
class TimedMgpvSink : public MgpvSink {
 public:
  explicit TimedMgpvSink(MgpvSink* next) : next_(next) {}
  void OnMgpv(const MgpvReport& report) override {
    const uint64_t t0 = NowNs();
    next_->OnMgpv(report);
    ns += NowNs() - t0;
    ++reports;
    cells += report.cells.size();
  }
  void OnFgSync(const FgSyncMessage& sync) override {
    const uint64_t t0 = NowNs();
    next_->OnFgSync(sync);
    ns += NowNs() - t0;
    ++syncs;
  }
  uint64_t ns = 0;
  uint64_t reports = 0;
  uint64_t cells = 0;
  uint64_t syncs = 0;

 private:
  MgpvSink* next_;
};

// Times each replayed packet's trip through the switch.
class TimedPacketSink : public PacketSink {
 public:
  explicit TimedPacketSink(PacketSink* next) : next_(next) {}
  void OnPacket(const PacketRecord& packet) override {
    const uint64_t t0 = NowNs();
    next_->OnPacket(packet);
    ns += NowNs() - t0;
  }
  uint64_t ns = 0;

 private:
  PacketSink* next_;
};

class NullPacketSink : public PacketSink {
 public:
  void OnPacket(const PacketRecord&) override {}
};

std::unique_ptr<FeNic> CreateNic(const CompiledPolicy& compiled, FeatureSink* sink) {
  auto nic = FeNic::Create(compiled, RuntimeConfig().nic, sink);
  if (!nic.ok()) {
    Die("nic error: " + nic.status().ToString());
  }
  return std::move(nic).value();
}

// The traced serial pipeline: every layer boundary carries a timer, and a
// layer's self time is its call time minus the calls it makes downward.
void TracedSerial(const CompiledPolicy& compiled, const Trace& stream, JsonWriter& out) {
  CountingSink counter;
  TimedFeatureSink timed_sink(&counter);
  auto nic = CreateNic(compiled, &timed_sink);
  TimedMgpvSink timed_mgpv(nic.get());
  FeSwitch fe_switch(compiled, &timed_mgpv, RuntimeConfig().mgpv);
  TimedPacketSink timed_switch(&fe_switch);

  // The outer span reads its own clock, so the gaps between the layer
  // spans show up as unattributed time.
  const uint64_t total0 = NowNs();
  const uint64_t t0 = NowNs();
  const ReplayReport replay = Replay(stream, ReplayOptions(), timed_switch);
  const uint64_t t1 = NowNs();
  const uint64_t nic_before_switch_flush = timed_mgpv.ns;
  const uint64_t t2 = NowNs();
  fe_switch.Flush();
  const uint64_t t3 = NowNs();
  const uint64_t sink_before_nic_flush = timed_sink.ns;
  const uint64_t t4 = NowNs();
  nic->Flush();
  const uint64_t t5 = NowNs();
  const uint64_t total1 = NowNs();

  const uint64_t replay_wall = t1 - t0;
  const uint64_t switch_flush_wall = t3 - t2;
  const uint64_t nic_flush_wall = t5 - t4;
  const uint64_t nic_in_switch_flush = timed_mgpv.ns - nic_before_switch_flush;
  const uint64_t sink_in_nic_flush = timed_sink.ns - sink_before_nic_flush;
  const uint64_t sink_in_nic_calls = timed_sink.ns - sink_in_nic_flush;

  const double replay_self = static_cast<double>(replay_wall) - timed_switch.ns;
  const double switch_packet_self =
      static_cast<double>(timed_switch.ns) - nic_before_switch_flush;
  const double switch_flush_self = static_cast<double>(switch_flush_wall) - nic_in_switch_flush;
  const double nic_call_self = static_cast<double>(timed_mgpv.ns) - sink_in_nic_calls;
  const double nic_flush_self = static_cast<double>(nic_flush_wall) - sink_in_nic_flush;

  const FeSwitchStats& sw = fe_switch.stats();
  const MgpvStats& mgpv = fe_switch.cache().stats();
  out.FieldUint("total_ns", total1 - total0);
  out.FieldUint("packets", replay.packets);
  out.FieldUint("packets_seen", sw.packets_seen);
  out.FieldUint("packets_batched", sw.packets_batched);
  out.FieldUint("reports", timed_mgpv.reports);
  out.FieldUint("cells", timed_mgpv.cells);
  out.FieldUint("syncs", timed_mgpv.syncs);
  out.FieldUint("vectors", timed_sink.calls);
  out.FieldUint("vectors_counted", counter.count());
  out.FieldDouble("replay_self_ns", replay_self);
  out.FieldDouble("switch_packet_self_ns", switch_packet_self);
  out.FieldDouble("switch_flush_self_ns", switch_flush_self);
  out.FieldDouble("nic_call_self_ns", nic_call_self);
  out.FieldDouble("nic_flush_self_ns", nic_flush_self);
  out.FieldUint("emit_ns", timed_sink.ns);
  out.Key("evictions");
  out.BeginObject();
  for (size_t i = 0; i < std::size(mgpv.evictions); ++i) {
    out.FieldUint(EvictReasonName(static_cast<EvictReason>(i)), mgpv.evictions[i]);
  }
  out.EndObject();
}

// The same serial pipeline without any timer: the traced run's baseline.
void UntracedSerial(const CompiledPolicy& compiled, const Trace& stream, JsonWriter& out) {
  CountingSink counter;
  auto nic = CreateNic(compiled, &counter);
  FeSwitch fe_switch(compiled, nic.get(), RuntimeConfig().mgpv);
  const uint64_t t0 = NowNs();
  Replay(stream, ReplayOptions(), fe_switch);
  fe_switch.Flush();
  nic->Flush();
  const uint64_t t1 = NowNs();
  out.FieldUint("untraced_total_ns", t1 - t0);
  out.FieldUint("untraced_vectors", counter.count());
}

std::function<uint32_t(const PacketRecord&)> ShardOf(const CompiledPolicy& compiled,
                                                      uint32_t shards) {
  const Granularity cg = FeSwitch::DefaultConfig(compiled).cg;
  return [cg, shards](const PacketRecord& pkt) {
    return GroupKey::ForPacket(pkt, cg).Hash() % shards;
  };
}

// ParallelReplay (the one-shot topology driver) into no-op sinks.
void ParallelReplayProbe(const CompiledPolicy& compiled, const Trace& stream, uint32_t shards,
                         JsonWriter& out) {
  std::vector<NullPacketSink> nulls(shards);
  std::vector<PacketSink*> sinks;
  for (auto& n : nulls) {
    sinks.push_back(&n);
  }
  const uint64_t t0 = NowNs();
  const ReplayReport report =
      ParallelReplay(stream, ReplayOptions(), sinks, {}, ShardOf(compiled, shards));
  const uint64_t t1 = NowNs();
  out.FieldUint("parallel_replay_ns", t1 - t0);
  out.FieldUint("parallel_replay_packets", report.packets);
}

// StreamingReplay fed chunk by chunk from a LoopedTraceSource, with the
// daemon's default chunk size and an idle fence at each default epoch.
void StreamFeedProbe(const CompiledPolicy& compiled, const Trace& trace, uint64_t loops,
                     uint32_t shards, JsonWriter& out) {
  const DaemonConfig defaults;
  std::vector<NullPacketSink> nulls(shards);
  std::vector<PacketSink*> sinks;
  for (auto& n : nulls) {
    sinks.push_back(&n);
  }
  LoopedTraceSource source(&trace, loops);
  const uint64_t t0 = NowNs();
  uint64_t fenced = 0;
  {
    StreamingReplay replay(ReplayOptions(), sinks, {}, ShardOf(compiled, shards),
                           defaults.max_chunks_in_flight);
    std::vector<PacketRecord> chunk;
    while (source.NextChunk(&chunk, defaults.chunk_packets) == PacketSource::Next::kChunk) {
      replay.Feed(std::move(chunk));
      chunk = std::vector<PacketRecord>();
      if (replay.packets_fed() - fenced >= defaults.epoch_packets) {
        replay.WaitIdle();
        fenced = replay.packets_fed();
      }
    }
    replay.Close();
    out.FieldUint("stream_feed_packets", replay.Report().packets);
  }
  const uint64_t t1 = NowNs();
  out.FieldUint("stream_feed_ns", t1 - t0);
}

// Run / RunDaemon at the workload topology into a counting sink.
void CoreProbe(const Policy& policy, const Args& args, const Trace& trace,
               const Trace& stream, JsonWriter& out) {
  auto runtime = CreateRuntime(policy, args);
  CountingSink counter;
  uint64_t packets = 0;
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t t0 = NowNs();
  if (args.daemon) {
    LoopedTraceSource source(&trace, args.loop);
    DaemonConfig config;
    config.fault_trigger_trace = &trace;
    const DaemonReport report = runtime->RunDaemon(source, &counter, config);
    packets = report.run.offered.packets;
  } else {
    const RunReport report = runtime->Run(stream, &counter);
    packets = report.offered.packets;
  }
  const uint64_t t1 = NowNs();
  const uint64_t cpu1 = ProcessCpuNs();
  out.FieldUint("pipeline_ns", t1 - t0);
  out.FieldUint("pipeline_cpu_ns", cpu1 - cpu0);
  out.FieldUint("pipeline_packets", packets);
  out.FieldUint("pipeline_vectors", counter.count());

  uint64_t waits = 0, high_watermark = 0, dropped = 0;
  double imbalance = 1.0;
  if (const NicCluster* cluster = runtime->cluster(); cluster != nullptr) {
    for (size_t i = 0; i < cluster->size(); ++i) {
      const NicWorkerStats stats = cluster->worker_stats(i);
      waits += stats.backpressure_waits;
      high_watermark = std::max(high_watermark, stats.queue_high_watermark);
      dropped += stats.reports_dropped;
    }
    imbalance = cluster->LoadImbalance();
  }
  out.FieldUint("cluster_backpressure_waits", waits);
  out.FieldUint("cluster_queue_high_watermark", high_watermark);
  out.FieldDouble("cluster_load_imbalance", imbalance);
  out.FieldUint("cluster_reports_dropped", dropped);
}

int RunTrace(const Args& args) {
  const Policy policy = LoadPolicy(args.policy_path);
  auto compiled = Compile(policy);
  if (!compiled.ok()) {
    Die("compile error: " + compiled.status().ToString());
  }
  const Trace trace = LoadTrace(args.pcap_path);
  const uint64_t m0 = NowNs();
  const Trace stream = LoopedTraceSource::Materialize(trace, args.loop);
  const uint64_t m1 = NowNs();

  JsonWriter out(std::cout, /*indent=*/0);
  out.BeginObject();
  out.FieldUint("materialize_ns", m1 - m0);
  out.FieldUint("trace_packets", trace.size());
  TracedSerial(*compiled, stream, out);
  UntracedSerial(*compiled, stream, out);
  const uint32_t shards = std::max<uint32_t>(args.shards, 1);
  ParallelReplayProbe(*compiled, stream, shards, out);
  StreamFeedProbe(*compiled, trace, args.loop, shards, out);
  CoreProbe(policy, args, trace, stream, out);
  AddProvenance(out);
  out.EndObject();
  std::cout << '\n';
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_layers spawn TIMEOUT_S LOG PROGRAM ARGS...\n"
               "       perfbench_layers setup POLICY PCAP LOOP SHARDS WORKERS DAEMON REPS\n"
               "       perfbench_layers trace POLICY PCAP LOOP SHARDS WORKERS DAEMON\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 5 && std::strcmp(argv[1], "spawn") == 0) {
    return RunSpawn(argc, argv);
  }
  if (argc < 8) {
    return Usage();
  }
  Args args;
  args.mode = argv[1];
  args.policy_path = argv[2];
  args.pcap_path = argv[3];
  args.loop = std::max<uint64_t>(std::strtoull(argv[4], nullptr, 10), 1);
  args.shards = static_cast<uint32_t>(std::strtoul(argv[5], nullptr, 10));
  args.workers = static_cast<uint32_t>(std::strtoul(argv[6], nullptr, 10));
  args.daemon = std::strcmp(argv[7], "1") == 0;
  if (args.mode == "setup" && argc == 9) {
    args.reps = std::max(std::atoi(argv[8]), 1);
    return RunSetup(args);
  }
  if (args.mode == "trace" && argc == 8) {
    return RunTrace(args);
  }
  return Usage();
}

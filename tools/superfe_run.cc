// superfe_run: run a SuperFE policy over traffic (a pcap file or a synthetic
// profile) through the simulated switch+NIC pipeline and write the feature
// vectors as CSV. Every run streams its source through the one run loop
// (SuperFeRuntime::RunDaemon); --daemon adds epoch rotation, run limits,
// ingest shedding and the SIGTERM/SIGINT drain.
//
//   superfe_run POLICY.sfe [--pcap FILE | --profile mawi|enterprise|campus]
//               [--packets N] [--seed S] [--out FEATURES.csv] [--report]
//               [--workers N] [--switch-shards N] [--pin-threads]
//               [--metrics-json FILE] [--metrics-prom FILE]
//               [--trace-out FILE] [--sample-interval-ms N]
//               [--latency-report] [--samples-out FILE]
//               [--obs-batch N] [--profile-cycles]
//               [--telemetry-port P] [--telemetry-linger-ms N]
//               [--fault-plan FILE] [--flush-timeout-ms N] [--watchdog-ms N]
//               [--daemon] [--loop N] [--listen tcp:P|udp:P]
//               [--chunk-packets N] [--epoch-packets N] [--epoch-ms N]
//               [--epoch-dir DIR] [--max-seconds N] [--max-epochs N]
//               [--shed-after N] [--drain-timeout-ms N]
//
// Exit codes:
//   0  success
//   1  export/output write failure
//   2  usage error
//   3  invalid configuration (policy parse/compile error, bad fault plan,
//      unknown profile, bad --listen spec)
//   4  unreadable trace (pcap open/decode failure)
//   5  degraded completion (a fault plan ran and the pipeline shed/lost/
//      abandoned work or missed a flush deadline — outputs are still the
//      exact reconciled remainder; also an epoch that failed reconciliation
//      or a drain that missed its deadline)
//   6  daemon clean drain on signal (SIGTERM/SIGINT arrived, ingest stopped,
//      every epoch reconciled, and the final flush met its deadline — the
//      documented graceful-shutdown success code)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "core/csv_export.h"
#include "core/runtime.h"
#include "net/ingest.h"
#include "net/pcap.h"
#include "net/trace_gen.h"
#include "policy/parser.h"

using namespace superfe;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: superfe_run POLICY.sfe [--pcap FILE | --profile NAME]\n"
               "                   [--packets N] [--seed S] [--out FILE.csv] [--report]\n"
               "                   [--workers N]   (N>0: parallel NIC cluster, N members)\n"
               "                   [--switch-shards N]  (N>1: sharded FE-Switch + parallel\n"
               "                                         replay, one pipe per CG-hash shard)\n"
               "                   [--pin-threads]      pin shard/worker threads to cores\n"
               "                                        (best-effort; no-op where unsupported)\n"
               "                   [--metrics-json FILE]  metrics + time series as JSON\n"
               "                   [--metrics-prom FILE]  Prometheus text exposition\n"
               "                   [--trace-out FILE]     Chrome trace JSON (Perfetto)\n"
               "                   [--sample-interval-ms N]  snapshot period (default 2)\n"
               "                   [--latency-report]     per-stage latency breakdown\n"
               "                   [--samples-out FILE]   sampler time series as JSON\n"
               "                   [--obs-batch N]        hot-tier flush cadence in packets\n"
               "                                          (default 4096; 1 = per-packet)\n"
               "                   [--profile-cycles]     measured per-stage cycle profile\n"
               "                                          (superfe_cycles_total{stage=...})\n"
               "                   [--telemetry-port P]   live telemetry HTTP server on\n"
               "                                          127.0.0.1:P (/metrics /healthz\n"
               "                                          /status; 0 = ephemeral port)\n"
               "                   [--telemetry-linger-ms N]  keep serving N ms after the\n"
               "                                          run + exports finish\n"
               "                   [--fault-plan FILE]    deterministic fault plan\n"
               "                                          (docs/ROBUSTNESS.md format)\n"
               "                   [--flush-timeout-ms N] cluster flush/join deadline\n"
               "                   [--watchdog-ms N]      worker stall watchdog timeout\n"
               "                   [--no-batch-kernels]   per-cell scalar execution (skip\n"
               "                                          the SoA batch feature kernels)\n"
               "                   [--compensated-batch]  Neumaier-compensated batch sums\n"
               "                                          for double-valued reducers\n"
               "                   [--daemon]             continuous operation: rolling MGPV\n"
               "                                          epochs + SIGTERM/SIGINT graceful\n"
               "                                          drain\n"
               "                   [--loop N]             stream the trace N times from one\n"
               "                                          copy (0 with --daemon = until\n"
               "                                          stopped)\n"
               "                   [--listen tcp:P|udp:P] daemon ingest from a loopback\n"
               "                                          socket instead of the trace\n"
               "                                          (0 = ephemeral port)\n"
               "                   [--chunk-packets N]    ingest chunk size (default 8192)\n"
               "                   [--epoch-packets N]    rotate an epoch every N replayed\n"
               "                                          packets (default 262144; 0 = off)\n"
               "                   [--epoch-ms N]         also rotate every N wall ms\n"
               "                   [--epoch-dir DIR]      per-epoch feature CSVs\n"
               "                                          (epoch_NNNNN.csv) + epochs.jsonl\n"
               "                   [--max-seconds N]      stop ingesting after N seconds\n"
               "                   [--max-epochs N]       stop after N rotated epochs\n"
               "                   [--shed-after N]       shed ingest chunks whole once the\n"
               "                                          replay backlog reaches N chunks\n"
               "                                          (0 = lossless backpressure)\n"
               "                   [--drain-timeout-ms N] epoch drain-barrier deadline\n");
  return 2;
}

// Exit codes (see file header).
constexpr int kExitExportFailure = 1;
constexpr int kExitInvalidConfig = 3;
constexpr int kExitUnreadableTrace = 4;
constexpr int kExitDegraded = 5;
constexpr int kExitDrained = 6;

// Raised by the SIGTERM/SIGINT handler (daemon mode); the daemon loop polls
// it between chunks and starts the graceful drain.
std::atomic<int> g_stop{0};

void StopHandler(int sig) { g_stop.store(sig, std::memory_order_relaxed); }

// One epochs.jsonl line per closed epoch (hand-formatted: JsonWriter
// pretty-prints, and the soak harness parses this file line by line): the
// reconciliation ledger asserted at every boundary.
void WriteEpochJsonl(std::ostream& out, const DaemonEpoch& e) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"epoch\":%llu,\"final\":%s,\"packets\":%llu,\"bytes\":%llu,"
      "\"cells_offered\":%llu,\"cells_processed\":%llu,\"cells_shed\":%llu,"
      "\"cells_lost_failover\":%llu,\"cells_dropped_overflow\":%llu,"
      "\"vectors\":%llu,\"ingest_shed_packets\":%llu,\"reconciled\":%s,"
      "\"fault_active\":%s,\"mgpv_occupancy\":%.6g,\"mgpv_epoch\":%llu,"
      "\"wall_ms\":%.3f}",
      (unsigned long long)e.index, e.final_epoch ? "true" : "false",
      (unsigned long long)e.packets, (unsigned long long)e.bytes,
      (unsigned long long)e.cells_offered, (unsigned long long)e.cells_processed,
      (unsigned long long)e.cells_shed, (unsigned long long)e.cells_lost,
      (unsigned long long)e.cells_overflow, (unsigned long long)e.vectors,
      (unsigned long long)e.ingest_shed_packets, e.reconciled ? "true" : "false",
      e.fault_active ? "true" : "false", e.mgpv_occupancy,
      (unsigned long long)e.mgpv_epoch, e.wall_ms);
  out << buf << '\n';
}

// 9.99 ns / 9.99 us / 9.99 ms / 9.99 s, whichever keeps the mantissa small.
std::string FormatDuration(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

void PrintLatencyBreakdown(const RunReport::LatencyBreakdown& b) {
  const auto row = [](const std::string& name, const obs::LatencyStageSummary& s) {
    if (s.count == 0) {
      return;  // Stage never ran (e.g. queue wait in serial mode).
    }
    std::fprintf(stderr, "  %-28s %10llu  %10s %10s %10s %10s %10s\n", name.c_str(),
                 (unsigned long long)s.count, FormatDuration(s.MeanNs()).c_str(),
                 FormatDuration(s.p50_ns).c_str(), FormatDuration(s.p90_ns).c_str(),
                 FormatDuration(s.p99_ns).c_str(), FormatDuration(s.p999_ns).c_str());
  };
  std::fprintf(stderr,
               "latency breakdown (trace-time):\n"
               "  %-28s %10s  %10s %10s %10s %10s %10s\n",
               "stage", "count", "mean", "p50", "p90", "p99", "p99.9");
  row("mgpv_residency", b.mgpv_residency);
  for (int i = 0; i < 5; ++i) {
    row(std::string("  residency[") + EvictReasonName(static_cast<EvictReason>(i)) + "]",
        b.residency_by_cause[i]);
  }
  row("queue_wait", b.queue_wait);
  for (size_t i = 0; i < b.queue_wait_by_worker.size(); ++i) {
    row("  queue_wait[worker " + std::to_string(i) + "]", b.queue_wait_by_worker[i]);
  }
  row("worker_service", b.worker_service);
  row("end_to_end", b.end_to_end);
  std::fprintf(stderr, "service attribution (modeled NIC cycles):\n");
  for (const auto& s : b.service_shares) {
    if (s.cycles == 0) {
      continue;
    }
    std::fprintf(stderr, "  %-28s %12llu cycles  %5.1f%%\n", s.family,
                 (unsigned long long)s.cycles, s.fraction * 100.0);
  }
}

// --profile-cycles: the measured counterpart of the modeled attribution
// above (superfe_cycles_total brackets per stage).
void PrintMeasuredCycles(const RunReport::LatencyBreakdown& b) {
  std::fprintf(stderr, "stage profile (measured cycles):\n");
  for (const auto& s : b.measured_cycle_shares) {
    std::fprintf(stderr, "  %-28s %12llu cycles  %5.1f%%\n", s.family,
                 (unsigned long long)s.cycles, s.fraction * 100.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string policy_path = argv[1];
  std::string pcap_path;
  std::string profile_name = "enterprise";
  std::string out_path;
  size_t packets = 100000;
  uint64_t seed = 1;
  bool report = false;
  uint32_t workers = 0;
  uint32_t switch_shards = 1;
  bool pin_threads = false;
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::string trace_out_path;
  std::string samples_out_path;
  uint32_t sample_interval_ms = 2;
  bool latency_report = false;
  uint32_t obs_batch = 0;  // 0 = keep the RuntimeConfig default.
  bool profile_cycles = false;
  int32_t telemetry_port = -1;      // -1 = off, 0 = ephemeral.
  uint64_t telemetry_linger_ms = 0;
  std::string fault_plan_path;
  uint64_t flush_timeout_ms = 0;
  uint32_t watchdog_ms = 0;
  bool no_batch_kernels = false;
  bool compensated_batch = false;
  bool daemon_mode = false;
  uint64_t loop = 1;
  std::string listen_spec;
  size_t chunk_packets = 8192;
  uint64_t epoch_packets = 262144;
  uint64_t epoch_ms = 0;
  std::string epoch_dir;
  uint64_t max_seconds = 0;
  uint64_t max_epochs = 0;
  size_t shed_after = 0;
  uint64_t drain_timeout_ms = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pcap") == 0 && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_name = argv[++i];
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--switch-shards") == 0 && i + 1 < argc) {
      switch_shards = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--pin-threads") == 0) {
      pin_threads = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-prom") == 0 && i + 1 < argc) {
      metrics_prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sample-interval-ms") == 0 && i + 1 < argc) {
      sample_interval_ms = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--latency-report") == 0) {
      latency_report = true;
    } else if (std::strcmp(argv[i], "--samples-out") == 0 && i + 1 < argc) {
      samples_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs-batch") == 0 && i + 1 < argc) {
      obs_batch = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--profile-cycles") == 0) {
      profile_cycles = true;
    } else if (std::strcmp(argv[i], "--telemetry-port") == 0 && i + 1 < argc) {
      telemetry_port = static_cast<int32_t>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--telemetry-linger-ms") == 0 && i + 1 < argc) {
      telemetry_linger_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--fault-plan") == 0 && i + 1 < argc) {
      fault_plan_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flush-timeout-ms") == 0 && i + 1 < argc) {
      flush_timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
      watchdog_ms = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--no-batch-kernels") == 0) {
      no_batch_kernels = true;
    } else if (std::strcmp(argv[i], "--compensated-batch") == 0) {
      compensated_batch = true;
    } else if (std::strcmp(argv[i], "--daemon") == 0) {
      daemon_mode = true;
    } else if (std::strcmp(argv[i], "--loop") == 0 && i + 1 < argc) {
      loop = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--chunk-packets") == 0 && i + 1 < argc) {
      chunk_packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--epoch-packets") == 0 && i + 1 < argc) {
      epoch_packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--epoch-ms") == 0 && i + 1 < argc) {
      epoch_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--epoch-dir") == 0 && i + 1 < argc) {
      epoch_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--max-seconds") == 0 && i + 1 < argc) {
      max_seconds = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-epochs") == 0 && i + 1 < argc) {
      max_epochs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shed-after") == 0 && i + 1 < argc) {
      shed_after = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0 && i + 1 < argc) {
      drain_timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (loop == 0 && !daemon_mode) {
    std::fprintf(stderr, "--loop 0 (run until stopped) requires --daemon\n");
    return Usage();
  }
  if (!listen_spec.empty() && !daemon_mode) {
    std::fprintf(stderr, "--listen requires --daemon\n");
    return Usage();
  }
  if (!daemon_mode) {
    // One-shot is the same run loop with a single epoch, closed by the
    // final flush: no rotation, limits, shedding or per-epoch files.
    epoch_packets = epoch_ms = max_seconds = max_epochs = drain_timeout_ms = 0;
    shed_after = 0;
    epoch_dir.clear();
  }

  std::ifstream in(policy_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", policy_path.c_str());
    return kExitInvalidConfig;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto policy = ParsePolicy(policy_path, buffer.str());
  if (!policy.ok()) {
    std::fprintf(stderr, "parse error: %s\n", policy.status().ToString().c_str());
    return kExitInvalidConfig;
  }

  Trace trace;
  if (!pcap_path.empty()) {
    PcapReadStats pcap_stats;
    auto loaded = ReadPcap(pcap_path, &pcap_stats);
    if (!loaded.ok()) {
      std::fprintf(stderr, "pcap error: %s\n", loaded.status().ToString().c_str());
      return kExitUnreadableTrace;
    }
    trace = std::move(loaded).value();
    if (pcap_stats.truncated_records > 0 || pcap_stats.corrupt_records > 0) {
      std::fprintf(stderr,
                   "pcap: tolerated %llu truncated / %llu corrupt records "
                   "(%llu frames decoded)\n",
                   (unsigned long long)pcap_stats.truncated_records,
                   (unsigned long long)pcap_stats.corrupt_records,
                   (unsigned long long)pcap_stats.frames_decoded);
    }
  } else {
    TraceProfile profile = EnterpriseProfile();
    if (profile_name == "mawi") {
      profile = MawiIxpProfile();
    } else if (profile_name == "campus") {
      profile = CampusProfile();
    } else if (profile_name != "enterprise") {
      std::fprintf(stderr, "unknown profile '%s'\n", profile_name.c_str());
      return kExitInvalidConfig;
    }
    trace = GenerateTrace(profile, packets, seed);
  }

  RuntimeConfig config;
  config.worker_threads = workers;
  config.switch_shards = switch_shards;
  config.pin_threads = pin_threads;
  if (!metrics_json_path.empty() || !metrics_prom_path.empty() ||
      !samples_out_path.empty() || telemetry_port >= 0) {
    config.obs.metrics = true;
    config.obs.sample_interval_ms = sample_interval_ms;
  }
  config.obs.trace = !trace_out_path.empty();
  config.obs.latency = latency_report;
  config.obs.profile = profile_cycles;
  config.obs.telemetry_port = telemetry_port;
  config.obs.run_label =
      !pcap_path.empty() ? pcap_path : "profile:" + profile_name;
  if (obs_batch > 0) {
    config.obs.batch_packets = obs_batch;
  }
  if (!fault_plan_path.empty()) {
    std::ifstream plan_in(fault_plan_path);
    if (!plan_in) {
      std::fprintf(stderr, "cannot read fault plan %s\n", fault_plan_path.c_str());
      return kExitInvalidConfig;
    }
    std::stringstream plan_buffer;
    plan_buffer << plan_in.rdbuf();
    auto plan = FaultPlan::Parse(plan_buffer.str());
    if (!plan.ok()) {
      std::fprintf(stderr, "fault plan error: %s\n", plan.status().ToString().c_str());
      return kExitInvalidConfig;
    }
    config.fault.plan = std::move(plan).value();
  }
  config.nic.batch_kernels = !no_batch_kernels;
  config.nic.exec.compensated_batch = compensated_batch;
  config.fault.flush_timeout_ms = flush_timeout_ms;
  if (watchdog_ms > 0) {
    // Poll a few times per timeout so a stall is caught promptly.
    config.fault.watchdog_timeout_ms = watchdog_ms;
    config.fault.watchdog_interval_ms = std::max<uint32_t>(watchdog_ms / 4, 1);
  }
  auto runtime = SuperFeRuntime::Create(*policy, config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "compile error: %s\n", runtime.status().ToString().c_str());
    return kExitInvalidConfig;
  }
  if ((*runtime)->telemetry() != nullptr) {
    // Scripts parse this line to find an ephemeral port; keep it stable.
    std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%u (/metrics /healthz /status)\n",
                 (*runtime)->telemetry_port());
    std::fflush(stderr);
  }

  // Ingest: a loopback socket (--listen), or the loaded trace streamed
  // `loop` times from its one in-memory copy.
  std::unique_ptr<PacketSource> source;
  LoopedTrace trigger_axis;  // Socket ingest has no packet axis up front.
  if (!listen_spec.empty()) {
    SocketSourceOptions sopt;
    const size_t colon = listen_spec.find(':');
    const std::string proto =
        colon == std::string::npos ? listen_spec : listen_spec.substr(0, colon);
    if (proto == "udp") {
      sopt.udp = true;
    } else if (proto != "tcp") {
      std::fprintf(stderr, "bad --listen spec '%s' (want tcp:PORT or udp:PORT)\n",
                   listen_spec.c_str());
      return kExitInvalidConfig;
    }
    if (colon != std::string::npos) {
      sopt.port =
          static_cast<uint16_t>(std::strtoul(listen_spec.c_str() + colon + 1, nullptr, 10));
    }
    auto opened = SocketSource::Open(sopt);
    if (!opened.ok()) {
      std::fprintf(stderr, "listen error: %s\n", opened.status().ToString().c_str());
      return kExitInvalidConfig;
    }
    // Scripts parse this line to find an ephemeral port; keep it stable.
    std::fprintf(stderr, "ingest: listening on 127.0.0.1:%u (%s)\n", (*opened)->port(),
                 sopt.udp ? "udp" : "tcp");
    std::fflush(stderr);
    source = std::move(opened).value();
  } else {
    source = std::make_unique<LoopedTraceSource>(&trace, loop);
    trigger_axis = LoopedTrace(&trace, loop);
  }
  if (daemon_mode) {
    std::signal(SIGTERM, StopHandler);
    std::signal(SIGINT, StopHandler);
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  std::unique_ptr<CsvSink> csv;
  RotatingCsvSink* rotating = nullptr;  // csv, when --epoch-dir is set.
  std::ofstream jsonl;
  bool csv_ok = true;
  const auto epoch_path = [&](uint64_t index) {
    char name[32];
    std::snprintf(name, sizeof(name), "epoch_%05llu.csv", (unsigned long long)index);
    return epoch_dir + "/" + name;
  };
  if (!epoch_dir.empty()) {
    auto epoch_sink = std::make_unique<RotatingCsvSink>((*runtime)->compiled().nic_program);
    rotating = epoch_sink.get();
    csv = std::move(epoch_sink);
    if (!rotating->OpenEpochFile(epoch_path(1))) {
      std::fprintf(stderr, "cannot write %s\n", epoch_path(1).c_str());
      return kExitExportFailure;
    }
    jsonl.open(epoch_dir + "/epochs.jsonl");
    if (!jsonl) {
      std::fprintf(stderr, "cannot write %s/epochs.jsonl\n", epoch_dir.c_str());
      return kExitExportFailure;
    }
  } else {
    if (!out_path.empty()) {
      file.open(out_path);
      if (!file) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return kExitExportFailure;
      }
      out = &file;
    }
    csv = std::make_unique<CsvSink>(out, (*runtime)->compiled().nic_program);
  }

  DaemonConfig dcfg;
  dcfg.chunk_packets = chunk_packets;
  dcfg.epoch_packets = epoch_packets;
  dcfg.epoch_wall_ms = epoch_ms;
  dcfg.max_seconds = max_seconds;
  dcfg.max_epochs = max_epochs;
  dcfg.stop = &g_stop;  // Only the --daemon signal handlers raise it.
  dcfg.drain_timeout_ms = drain_timeout_ms;
  dcfg.shed_backlog_chunks = shed_after;
  dcfg.fault_trigger_trace = trigger_axis;
  dcfg.on_epoch = [&](const DaemonEpoch& e) {
    if (jsonl.is_open()) {
      WriteEpochJsonl(jsonl, e);
      jsonl.flush();  // A soak supervisor tails this between epochs.
    }
    // The epoch's drain barrier (or the final flush) has parked every
    // worker, so the member chunks hold exactly this epoch's remaining
    // rows: write them out before the next epoch's file opens.
    csv_ok = csv->Drain() && csv_ok;
    if (rotating != nullptr && !e.final_epoch) {
      csv_ok = rotating->OpenEpochFile(epoch_path(e.index + 1)) && csv_ok;
    }
  };

  const DaemonReport d = (*runtime)->RunDaemon(*source, csv.get(), dcfg);
  const RunReport& run = d.run;

  if (!csv_ok) {
    const std::string what = !epoch_dir.empty() ? epoch_dir + "/epoch_*.csv"
                             : !out_path.empty() ? out_path
                                                 : "stdout";
    std::fprintf(stderr, "cannot write %s\n", what.c_str());
  }
  const auto write_export = [&](const std::string& path, auto writer_fn) -> bool {
    if (path.empty()) {
      return true;
    }
    std::ofstream export_file(path);
    if (!export_file || !writer_fn(export_file)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  };
  bool exports_ok = csv_ok;
  exports_ok &= write_export(metrics_json_path, [&](std::ostream& os) {
    return (*runtime)->WriteMetricsJson(os);
  });
  exports_ok &= write_export(metrics_prom_path, [&](std::ostream& os) {
    return (*runtime)->WriteMetricsProm(os);
  });
  exports_ok &= write_export(trace_out_path, [&](std::ostream& os) {
    return (*runtime)->WriteTraceJson(os);
  });
  exports_ok &= write_export(samples_out_path, [&](std::ostream& os) {
    return (*runtime)->WriteSamplesJson(os);
  });
  if (daemon_mode) {
    std::fprintf(stderr,
                 "daemon: %zu epochs (%s) | ingested %llu packets (shed %llu) | "
                 "replayed %llu | %llu vectors | %.0f ms\n",
                 d.epochs.size(),
                 d.all_epochs_reconciled ? "all reconciled" : "RECONCILIATION FAILED",
                 (unsigned long long)d.packets_ingested,
                 (unsigned long long)d.packets_shed_ingest,
                 (unsigned long long)run.offered.packets, (unsigned long long)csv->count(),
                 d.wall_ms);
  }
  if (report || !out_path.empty()) {
    std::fprintf(stderr,
                 "packets %llu | batched %llu | reports %llu | vectors %llu\n"
                 "aggregation: %.1f%% rate, %.1f%% bytes reach the NIC\n"
                 "sustainable %.0f Gbps (bottleneck: %s)\n",
                 (unsigned long long)run.switch_stats.packets_seen,
                 (unsigned long long)run.switch_stats.packets_batched,
                 (unsigned long long)run.mgpv.reports_out,
                 (unsigned long long)csv->count(), run.mgpv.MessageRatio() * 100.0,
                 run.mgpv.ByteRatio() * 100.0, run.sustainable_gbps, run.bottleneck);
    if (switch_shards > 1) {
      std::fprintf(stderr, "switch shards: %u (parallel replay)\n",
                   (*runtime)->config().switch_shards);
    }
  }
  if (run.cluster_cost.enabled && report) {
    std::fprintf(stderr,
                 "cluster cost: %zu members | load imbalance %.3f | DRAM detour rate "
                 "%.4f (single-NIC model %.4f, delta %+.4f)\n",
                 run.cluster_cost.members, run.cluster_cost.load_imbalance,
                 run.cluster_cost.dram_detour_rate, run.cluster_cost.single_nic_detour_rate,
                 run.cluster_cost.dram_detour_delta);
    for (size_t i = 0; i < run.cluster_cost.per_member.size(); ++i) {
      const auto& m = run.cluster_cost.per_member[i];
      std::fprintf(stderr,
                   "  nic %zu: %llu cells (share %.3f, delta %+.3f) | detour rate %.4f "
                   "(delta %+.4f)\n",
                   i, (unsigned long long)m.cells, m.cells_share, m.load_delta,
                   m.dram_detour_rate, m.dram_detour_delta);
    }
  }
  if (run.obs.trace_enabled && report) {
    std::fprintf(stderr, "trace: %llu events recorded, %llu overwritten\n",
                 (unsigned long long)run.obs.trace_events_recorded,
                 (unsigned long long)run.obs.trace_events_dropped);
  }
  if (latency_report && run.latency.enabled) {
    PrintLatencyBreakdown(run.latency);
  }
  if (profile_cycles && !run.latency.measured_cycle_shares.empty()) {
    PrintMeasuredCycles(run.latency);
  }
  if (run.fault.enabled) {
    const FaultStats& fs = run.fault.stats;
    std::fprintf(stderr,
                 "fault: offered %llu cells = processed %llu + shed %llu + lost %llu "
                 "+ overflow %llu -> %s\n"
                 "fault: failed over %llu reports (%llu groups) | crashed members %llu | "
                 "abandoned groups %llu | pool exhaustions %llu | fences %llu\n"
                 "fault: stalls injected %llu | watchdog events %llu | "
                 "flush deadline %s\n",
                 (unsigned long long)fs.cells_offered,
                 (unsigned long long)run.fault.cells_processed,
                 (unsigned long long)fs.cells_shed,
                 (unsigned long long)fs.cells_lost_to_failover,
                 (unsigned long long)run.fault.overflow_cells_dropped,
                 run.fault.reconciled ? "reconciled" : "NOT RECONCILED",
                 (unsigned long long)fs.reports_failed_over,
                 (unsigned long long)fs.groups_failed_over,
                 (unsigned long long)fs.members_crashed,
                 (unsigned long long)fs.groups_abandoned,
                 (unsigned long long)fs.injected_pool_exhaustions,
                 (unsigned long long)fs.failover_fences,
                 (unsigned long long)fs.stalls_injected,
                 (unsigned long long)fs.watchdog_stall_events,
                 run.fault.flush_deadline_exceeded ? "EXCEEDED" : "met");
  }
  if (d.stopped_by_signal) {
    std::fprintf(stderr, "daemon: signal %d -> %s drain\n", d.signal,
                 d.drained ? "clean" : "FAILED");
  }
  if (telemetry_linger_ms > 0 && (*runtime)->telemetry() != nullptr) {
    // Exports are written and the pipeline is quiescent: a scrape taken in
    // this window is byte-identical to the --metrics-prom file (the CI
    // telemetry smoke asserts exactly that).
    std::fprintf(stderr, "telemetry: lingering %llu ms before exit\n",
                 (unsigned long long)telemetry_linger_ms);
    std::fflush(stderr);
  }
  // Explicit drain-then-linger shutdown ordering (sampler stop -> linger ->
  // server stop) instead of relying on the runtime destructor chain.
  (*runtime)->FinishTelemetry(telemetry_linger_ms);
  if (!exports_ok) {
    return kExitExportFailure;
  }
  if (!d.drained || !d.all_epochs_reconciled) {
    return kExitDegraded;
  }
  if (d.stopped_by_signal) {
    // Clean signal-initiated drain: distinct from both success (the run
    // was cut short) and degradation (nothing was lost). Takes precedence
    // over per-epoch fault marks — a chaos soak that drains cleanly and
    // reconciles every epoch exits 6, not 5.
    return kExitDrained;
  }
  return run.fault.enabled && run.fault.degraded ? kExitDegraded : 0;
}

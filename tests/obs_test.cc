// Tests for the src/obs observability subsystem: metrics registry
// concurrency, trace ring wrap-around and Chrome JSON export, the snapshot
// sampler, log-level env parsing, and the runtime integration contract
// (obs counter totals == RunReport stats fields).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "net/trace_gen.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "policy/parser.h"
#include "switchsim/evict.h"

namespace superfe {
namespace {

TEST(JsonWriterTest, EscapesAndStructure) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.BeginObject();
  w.FieldStr("quote\"back\\slash", "line\nbreak\ttab");
  w.Key("nums");
  w.BeginArray();
  w.Uint(42);
  w.Double(1.5);
  w.Double(std::numeric_limits<double>::infinity());  // No JSON spelling.
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\"quote\\\"back\\\\slash\":\"line\\nbreak\\ttab\","
            "\"nums\":[42,1.5,null,true,null]}");
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(MetricsTest, ConcurrentCountersAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* plain = registry.GetCounter("test_plain_total");
  obs::Counter* sharded = registry.GetCounter("test_sharded_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        plain->Inc();
        sharded->IncShard(static_cast<size_t>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(plain->Value(), kThreads * kPerThread);
  EXPECT_EQ(sharded->Value(), kThreads * kPerThread);
}

TEST(MetricsTest, ConcurrentHistogramSumIsExact) {
  // The observation sum is sharded per thread (no CAS loop); with values
  // that are exact in binary the concurrent total must be exact too.
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("test_hist", {1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const double value = 0.25 * (1 + t % 4);  // 0.25 .. 1.0, all exact.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist->Observe(value);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(hist->Count(), kThreads * kPerThread);
  double expected = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected += 0.25 * (1 + t % 4) * kPerThread;
  }
  EXPECT_DOUBLE_EQ(hist->Sum(), expected);
}

TEST(MetricsTest, GetIsIdempotentAndTypeChecked) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x_total", {{"k", "v"}});
  obs::Counter* b = registry.GetCounter("x_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  // Same name, different labels: a distinct child of the same family.
  EXPECT_NE(a, registry.GetCounter("x_total", {{"k", "other"}}));
  // Type clash: null handle, safe to pass through the helpers.
  EXPECT_EQ(registry.GetGauge("x_total"), nullptr);
  obs::Set(static_cast<obs::Gauge*>(nullptr), 1.0);
  obs::Inc(static_cast<obs::Counter*>(nullptr));
}

TEST(MetricsTest, GaugeAndHistogram) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("depth");
  g->Set(3.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 5.0);

  obs::Histogram* h = registry.GetHistogram("sizes", {1.0, 4.0, 16.0});
  h->Observe(0.5);   // le=1
  h->Observe(4.0);   // le=4 (upper bound inclusive)
  h->Observe(5.0);   // le=16
  h->Observe(100.0); // +Inf
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_DOUBLE_EQ(h->Sum(), 109.5);
  EXPECT_EQ(h->BucketCount(0), 1u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->BucketCount(3), 1u);
}

TEST(MetricsTest, PromExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("req_total", {{"b", "2"}, {"a", "1"}}, "requests")->Inc(7);
  registry.GetGauge("depth", {}, "queue depth")->Set(2.0);
  registry.GetHistogram("lat", {1.0, 2.0}, {}, "latency")->Observe(1.5);

  std::ostringstream out;
  registry.WriteProm(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  // Labels are serialized sorted by key.
  EXPECT_NE(text.find("req_total{a=\"1\",b=\"2\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2\n"), std::string::npos);
  // Cumulative buckets plus sum/count.
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1\n"), std::string::npos);
}

TEST(MetricsTest, ValueLookup) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c_total", {{"w", "0"}})->Inc(3);
  auto v = registry.Value("c_total", {{"w", "0"}});
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 3.0);
  EXPECT_FALSE(registry.Value("missing").has_value());
}

TEST(TraceTest, WrapAroundKeepsNewestAndCounts) {
  obs::TraceRecorder recorder(/*capacity_per_lane=*/4, /*lanes=*/1);
  for (uint64_t i = 0; i < 10; ++i) {
    obs::TraceRecorder::Event e;
    e.phase = obs::TraceRecorder::Event::Phase::kInstant;
    e.category = "t";
    e.name = "e";
    e.ts_ns = i * 1000;
    e.arg_name = "i";
    e.arg_value = i;
    recorder.Emit(0, e);
  }
  EXPECT_EQ(recorder.events_recorded(), 10u);
  EXPECT_EQ(recorder.events_dropped(), 6u);

  std::ostringstream out;
  recorder.WriteChromeJson(out);
  const std::string json = out.str();
  // Oldest surviving event is i=6; 0..5 were overwritten.
  EXPECT_EQ(json.find("\"i\":5"), std::string::npos);
  for (uint64_t i = 6; i < 10; ++i) {
    EXPECT_NE(json.find("\"i\":" + std::to_string(i)), std::string::npos) << i;
  }
}

TEST(TraceTest, ChromeJsonGolden) {
  obs::TraceRecorder recorder(/*capacity_per_lane=*/8, /*lanes=*/2);
  recorder.SetLaneName(0, "producer");
  recorder.SetLaneName(1, "worker-0");

  obs::TraceRecorder::Event span;
  span.phase = obs::TraceRecorder::Event::Phase::kSpan;
  span.category = "replay";
  span.name = "batch";
  span.ts_ns = 1000;
  span.dur_ns = 2500;
  span.arg_name = "packets";
  span.arg_value = 64;
  recorder.Emit(0, span);

  obs::TraceRecorder::Event instant;
  instant.phase = obs::TraceRecorder::Event::Phase::kInstant;
  instant.category = "mgpv";
  instant.name = "evict";
  instant.ts_ns = 4000;
  instant.str_arg_name = "cause";
  instant.str_arg_value = "aging";
  recorder.Emit(1, instant);

  std::ostringstream out;
  recorder.WriteChromeJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"producer\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  // Span: ph X with microsecond ts/dur.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"packets\":64"), std::string::npos);
  // Instant: ph i, thread-scoped, with the string arg.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\":\"aging\""), std::string::npos);
}

TEST(TraceTest, NullRecorderSpanIsNoop) {
  obs::TraceRecorder::Span span(nullptr, 0, "c", "n");
  span.SetArg("x", 1);  // Must not crash.
}

TEST(SnapshotTest, SamplerCapturesSeriesAndRunsHook) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("ticks_total");
  std::atomic<int> hook_calls{0};
  obs::SnapshotSampler sampler(&registry, /*interval_ms=*/1, [&] {
    hook_calls.fetch_add(1);
    c->Inc();
  });
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();

  EXPECT_GE(hook_calls.load(), 1);
  ASSERT_GE(sampler.samples().size(), 1u);
  // The final (Stop-time) sample reflects every hook increment.
  const auto& last = sampler.samples().back();
  bool found = false;
  for (const auto& [name, value] : last.values) {
    if (name == "ticks_total") {
      found = true;
      EXPECT_DOUBLE_EQ(value, static_cast<double>(hook_calls.load()));
    }
  }
  EXPECT_TRUE(found);

  std::ostringstream out;
  JsonWriter w(out);
  sampler.WriteJson(w);
  EXPECT_NE(out.str().find("\"interval_ms\""), std::string::npos);
  EXPECT_NE(out.str().find("\"samples\""), std::string::npos);
}

TEST(LoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("Error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("none", &level));
  EXPECT_EQ(level, LogLevel::kNone);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kNone);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_FALSE(ParseLogLevel(nullptr, &level));
}

// --- Runtime integration -------------------------------------------------

const char* kPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_sum, f_min, f_max])
  .reduce(ipt, [f_max])
  .collect(flow)
)";

Policy Parse(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

TEST(ObsRuntimeTest, MetricsMatchRunReportWithWorkers) {
  RuntimeConfig config;
  config.worker_threads = 4;
  config.obs.metrics = true;
  config.obs.trace = true;
  config.obs.sample_interval_ms = 1;
  auto runtime = SuperFeRuntime::Create(Parse(kPolicy), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 30000, 7);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  obs::MetricsRegistry* metrics = (*runtime)->metrics();
  ASSERT_NE(metrics, nullptr);

  const auto value = [&](const std::string& name, const obs::LabelSet& labels = {}) {
    auto v = metrics->Value(name, labels);
    EXPECT_TRUE(v.has_value()) << name;
    return v.value_or(-1.0);
  };

  // Replay / switch totals.
  EXPECT_EQ(value("superfe_replay_packets_total"), report.offered.packets);
  EXPECT_EQ(value("superfe_replay_bytes_total"), report.offered.bytes);
  EXPECT_EQ(value("superfe_switch_packets_seen_total"), report.switch_stats.packets_seen);
  EXPECT_EQ(value("superfe_switch_packets_batched_total"),
            report.switch_stats.packets_batched);

  // MGPV totals, including per-cause evictions.
  EXPECT_EQ(value("superfe_mgpv_reports_out_total"), report.mgpv.reports_out);
  EXPECT_EQ(value("superfe_mgpv_cells_out_total"), report.mgpv.cells_out);
  for (int i = 0; i < 5; ++i) {
    const auto reason = static_cast<EvictReason>(i);
    EXPECT_EQ(value("superfe_mgpv_evictions_total", {{"cause", EvictReasonName(reason)}}),
              report.mgpv.evictions[i])
        << EvictReasonName(reason);
  }

  // NIC totals: sum over {nic="i"} children equals the aggregate stats.
  double nic_cells = 0.0, nic_reports = 0.0, nic_vectors = 0.0;
  for (uint32_t i = 0; i < 4; ++i) {
    const obs::LabelSet labels = {{"nic", std::to_string(i)}};
    nic_cells += value("superfe_nic_cells_total", labels);
    nic_reports += value("superfe_nic_reports_total", labels);
    nic_vectors += value("superfe_nic_vectors_emitted_total", labels);
  }
  EXPECT_EQ(nic_cells, report.nic.cells);
  EXPECT_EQ(nic_reports, report.nic.reports);
  EXPECT_EQ(nic_vectors, report.nic.vectors_emitted);

  // Per-worker cluster counters mirror worker_stats exactly, and queue-depth
  // gauges exist (zero after the Flush barrier).
  const NicCluster* cluster = (*runtime)->cluster();
  ASSERT_NE(cluster, nullptr);
  for (uint32_t i = 0; i < 4; ++i) {
    const obs::LabelSet labels = {{"worker", std::to_string(i)}};
    const NicWorkerStats ws = cluster->worker_stats(i);
    EXPECT_EQ(value("superfe_cluster_reports_enqueued_total", labels), ws.reports_enqueued);
    EXPECT_EQ(value("superfe_cluster_syncs_enqueued_total", labels), ws.syncs_enqueued);
    EXPECT_EQ(value("superfe_cluster_queue_stalls_total", labels), ws.backpressure_waits);
    EXPECT_EQ(value("superfe_cluster_queue_depth", labels), 0.0);
    EXPECT_EQ(value("superfe_cluster_queue_high_watermark", labels),
              ws.queue_high_watermark);
  }

  // Obs summary + sampler series.
  EXPECT_TRUE(report.obs.metrics_enabled);
  EXPECT_TRUE(report.obs.trace_enabled);
  EXPECT_GT(report.obs.trace_events_recorded, 0u);
  EXPECT_GE(report.obs.samples_captured, 1u);

  // Trace export parses structurally and covers >= 3 pipeline stages.
  std::ostringstream trace_out;
  ASSERT_TRUE((*runtime)->WriteTraceJson(trace_out));
  const std::string trace_json = trace_out.str();
  int stages = 0;
  for (const char* cat : {"\"cat\":\"replay\"", "\"cat\":\"mgpv\"", "\"cat\":\"cluster\"",
                          "\"cat\":\"worker\""}) {
    if (trace_json.find(cat) != std::string::npos) {
      ++stages;
    }
  }
  EXPECT_GE(stages, 3) << trace_json.substr(0, 400);

  // Exports succeed; disabled exports on a fresh runtime return false.
  std::ostringstream prom_out, json_out;
  EXPECT_TRUE((*runtime)->WriteMetricsProm(prom_out));
  EXPECT_TRUE((*runtime)->WriteMetricsJson(json_out));
  EXPECT_NE(prom_out.str().find("superfe_mgpv_evictions_total{cause="),
            std::string::npos);
  EXPECT_NE(json_out.str().find("\"series\""), std::string::npos);

  auto plain = SuperFeRuntime::Create(Parse(kPolicy), RuntimeConfig{});
  ASSERT_TRUE(plain.ok());
  std::ostringstream none;
  EXPECT_FALSE((*plain)->WriteMetricsProm(none));
  EXPECT_FALSE((*plain)->WriteTraceJson(none));
}

TEST(ObsRuntimeTest, SerialModeMatchesToo) {
  RuntimeConfig config;
  config.obs.metrics = true;
  auto runtime = SuperFeRuntime::Create(Parse(kPolicy), config);
  ASSERT_TRUE(runtime.ok());

  const Trace trace = GenerateTrace(CampusProfile(), 10000, 3);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  obs::MetricsRegistry* metrics = (*runtime)->metrics();

  EXPECT_EQ(metrics->Value("superfe_nic_cells_total", {{"nic", "0"}}).value_or(-1),
            report.nic.cells);
  EXPECT_EQ(metrics->Value("superfe_nic_vectors_emitted_total", {{"nic", "0"}}).value_or(-1),
            report.nic.vectors_emitted);
  EXPECT_EQ(metrics->Value("superfe_switch_packets_seen_total").value_or(-1),
            report.switch_stats.packets_seen);
  // Inline dispatch has no worker queues: no cluster gauges, and /status
  // lists no queues.
  EXPECT_FALSE(metrics->Value("superfe_cluster_queue_depth", {{"worker", "0"}}).has_value());
  std::ostringstream status;
  ASSERT_TRUE((*runtime)->WriteStatusJson(status));
  EXPECT_NE(status.str().find("\"queues\": []"), std::string::npos) << status.str();
}

}  // namespace
}  // namespace superfe

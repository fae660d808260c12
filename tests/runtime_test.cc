#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "common/stats.h"
#include "core/csv_export.h"
#include "core/runtime.h"
#include "core/software_extractor.h"
#include "net/replay.h"
#include "net/trace_gen.h"
#include "nicsim/fe_nic.h"
#include "policy/parser.h"
#include "switchsim/fe_switch.h"

namespace superfe {
namespace {

Policy Parse(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

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

TEST(RuntimeTest, EndToEndProducesVectors) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 5);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);

  EXPECT_EQ(report.switch_stats.packets_seen, trace.size());
  EXPECT_EQ(report.nic.cells, trace.size());
  const uint64_t flows = trace.ComputeStats().flow_count;
  EXPECT_EQ(sink.vectors().size(), flows);
  EXPECT_GT(report.sustainable_gbps, 0.0);
}

// Formats every vector it sees as one CSV row, in arrival order.
class CsvRowSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override { AppendCsvRow(&rows, vector); }
  std::string rows;
};

const char* const kExamplePolicies[] = {"basic_stats", "channel_stats", "direction_seq",
                                        "frequency", "multi_granularity"};

// `name` from examples/policies/.
Policy ExamplePolicy(const std::string& name) {
  std::ifstream in(std::string(SUPERFE_EXAMPLE_POLICIES) + "/" + name + ".sfe");
  EXPECT_TRUE(in) << name;
  std::stringstream text;
  text << in.rdbuf();
  auto policy = ParsePolicy(name, text.str());
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(policy).value();
}

TEST(RuntimeTest, SerialRunMatchesHandWiredReplayFeSwitchFeNic) {
  // The documented serial oracle: Replay -> FeSwitch -> FeNic wired by
  // hand, with no cluster, streaming replay or run loop in between. The
  // runtime's serial path (an inline one-member NicCluster fed by the run
  // loop) must emit the same rows in the same order for every example
  // policy.
  const Trace trace = GenerateTrace(CampusProfile(), 30000, 1);
  for (const char* name : kExamplePolicies) {
    SCOPED_TRACE(name);
    const Policy policy = ExamplePolicy(name);

    const RuntimeConfig config;
    auto compiled = Compile(policy);
    ASSERT_TRUE(compiled.ok());
    CsvRowSink oracle;
    auto nic = FeNic::Create(*compiled, config.nic, &oracle);
    ASSERT_TRUE(nic.ok());
    FeSwitch fe_switch(*compiled, nic->get(), config.mgpv);
    Replay(trace, config.replay, fe_switch);
    fe_switch.Flush();
    (*nic)->Flush();

    auto runtime = SuperFeRuntime::Create(policy, config);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    CsvRowSink serial;
    const RunReport report = (*runtime)->Run(trace, &serial);
    EXPECT_GT(report.nic.vectors_emitted, 0u);
    EXPECT_EQ(report.nic.vectors_emitted, (*nic)->stats().vectors_emitted);
    EXPECT_TRUE(serial.rows == oracle.rows)
        << serial.rows.size() << " bytes vs " << oracle.rows.size();

    // The one-shard switch side counts exactly what the hand-wired switch
    // counts.
    const FeSwitchStats& sw = fe_switch.stats();
    EXPECT_EQ(report.switch_stats.packets_seen, sw.packets_seen);
    EXPECT_EQ(report.switch_stats.packets_filtered, sw.packets_filtered);
    EXPECT_EQ(report.switch_stats.packets_batched, sw.packets_batched);
    EXPECT_EQ(report.switch_stats.frames_unparseable, sw.frames_unparseable);
    const MgpvStats& mg = fe_switch.cache().stats();
    EXPECT_EQ(report.mgpv.packets_in, mg.packets_in);
    EXPECT_EQ(report.mgpv.bytes_in, mg.bytes_in);
    EXPECT_EQ(report.mgpv.reports_out, mg.reports_out);
    EXPECT_EQ(report.mgpv.cells_out, mg.cells_out);
    EXPECT_EQ(report.mgpv.bytes_out, mg.bytes_out);
    EXPECT_EQ(report.mgpv.fg_syncs, mg.fg_syncs);
    EXPECT_EQ(report.mgpv.fg_collisions, mg.fg_collisions);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(report.mgpv.evictions[i], mg.evictions[i]) << "eviction cause " << i;
    }
    EXPECT_EQ(report.mgpv.long_allocs, mg.long_allocs);
    EXPECT_EQ(report.mgpv.long_alloc_failures, mg.long_alloc_failures);
    EXPECT_EQ(report.mgpv.pressure_evictions, mg.pressure_evictions);
    EXPECT_EQ(report.mgpv.injected_pool_failures, mg.injected_pool_failures);

    // With metrics on, the one-shard catalog is the unsharded one: switch
    // series carry no shard label and the obs blocks are "switch"/"mgpv".
    RuntimeConfig metrics_config;
    metrics_config.obs.metrics = true;
    auto observed = SuperFeRuntime::Create(policy, metrics_config);
    ASSERT_TRUE(observed.ok()) << observed.status().ToString();
    CsvRowSink observed_rows;
    (*observed)->Run(trace, &observed_rows);
    EXPECT_TRUE(observed_rows.rows == oracle.rows);
    const obs::MetricsRegistry& metrics = *(*observed)->metrics();
    size_t seen_series = 0;
    for (const auto& m : metrics.Collect()) {
      if (m.name == "superfe_switch_packets_seen_total") {
        ++seen_series;
        EXPECT_TRUE(m.labels.empty()) << obs::MetricsRegistry::SerializeLabels(m.labels);
      }
    }
    EXPECT_EQ(seen_series, 1u);
    EXPECT_EQ(metrics.Value("superfe_switch_packets_seen_total"),
              static_cast<double>(sw.packets_seen));
    for (const char* block : {"switch", "mgpv"}) {
      EXPECT_TRUE(
          metrics.Value("superfe_obs_max_flush_lag_packets", {{"block", block}}).has_value())
          << block;
    }
  }
}

// The run's rows, one CSV row per vector, sorted.
std::vector<std::string> SortedRows(const Policy& policy, const Trace& trace,
                                    const RuntimeConfig& config) {
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  CsvRowSink sink;
  (*runtime)->Run(trace, &sink);
  std::vector<std::string> rows;
  std::istringstream lines(sink.rows);
  for (std::string row; std::getline(lines, row);) {
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The batch-kernel gate: the SoA path (the default) gives the per-cell
// oracle's rows (batch_kernels = false, serial), bit for bit after sorting,
// for every example policy, serial and at 4 shards x 4 workers.
TEST(RuntimeTest, BatchKernelsMatchPerCellOracle) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 1);
  for (const char* name : kExamplePolicies) {
    SCOPED_TRACE(name);
    const Policy policy = ExamplePolicy(name);
    RuntimeConfig oracle_config;
    oracle_config.nic.batch_kernels = false;
    const std::vector<std::string> oracle = SortedRows(policy, trace, oracle_config);
    ASSERT_FALSE(oracle.empty());
    for (const uint32_t parallel : {0u, 4u}) {
      RuntimeConfig config;
      config.switch_shards = std::max(parallel, 1u);
      config.worker_threads = parallel;
      EXPECT_TRUE(SortedRows(policy, trace, config) == oracle)
          << config.switch_shards << " shards x " << parallel << " workers";
    }
  }
}

TEST(RuntimeTest, ExactFeaturesMatchSoftwareBaseline) {
  // Deterministic sum/min/max features must be identical whether computed
  // through MGPV batching + FE-NIC or directly in software: batching must
  // not lose or duplicate packets, and per-group order is preserved.
  auto policy = Parse(kFlowStatsPolicy);
  RuntimeConfig config;
  config.nic.exec.nic_arithmetic = false;  // Exact arithmetic on both sides.
  auto runtime = SuperFeRuntime::Create(policy, config);
  ASSERT_TRUE(runtime.ok());

  const Trace trace = GenerateTrace(CampusProfile(), 30000, 6);
  CollectingFeatureSink superfe_sink;
  (*runtime)->Run(trace, &superfe_sink);

  auto compiled = Compile(policy);
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  CollectingFeatureSink software_sink;
  (*software)->Run(trace, &software_sink, SoftwareDeployment{});

  ASSERT_EQ(superfe_sink.vectors().size(), software_sink.vectors().size());

  // Index software vectors by group key bytes.
  auto key_of = [](const FeatureVector& v) {
    return std::string(reinterpret_cast<const char*>(v.group.bytes.data()), v.group.length);
  };
  std::map<std::string, std::vector<double>> expected;
  for (const auto& v : software_sink.vectors()) {
    expected[key_of(v)] = v.values;
  }
  for (const auto& v : superfe_sink.vectors()) {
    auto it = expected.find(key_of(v));
    ASSERT_NE(it, expected.end());
    ASSERT_EQ(v.values.size(), it->second.size());
    for (size_t i = 0; i < v.values.size(); ++i) {
      EXPECT_NEAR(v.values[i], it->second[i], 1e-9) << "feature " << i;
    }
  }
}

TEST(RuntimeTest, SuperFeFasterThanSoftwareByOrders) {
  auto policy = Parse(kFlowStatsPolicy);
  auto runtime = SuperFeRuntime::Create(policy, RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());

  const Trace trace = GenerateTrace(MawiIxpProfile(), 50000, 7);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);

  auto compiled = Compile(policy);
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  const SoftwareRunReport sw = (*software)->Run(trace, nullptr, SoftwareDeployment{});

  // The headline Fig 9 property: SuperFE sustains far more than the
  // original software deployment (we require > 10x here; the bench reports
  // the full ~100x with the paper's deployment parameters).
  EXPECT_GT(report.sustainable_gbps, 10.0 * sw.deployed_gbps);
}

TEST(RuntimeTest, CoreSweepMonotone) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 8);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  double prev = 0.0;
  for (uint32_t cores : {1u, 2u, 8u, 30u, 60u, 120u}) {
    const double gbps = (*runtime)->SustainableGbps(report, cores);
    EXPECT_GE(gbps, prev);
    prev = gbps;
  }
}

TEST(RuntimeTest, ReportsBottleneck) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 10000, 9);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_TRUE(std::string(report.bottleneck) == "nic-compute" ||
              std::string(report.bottleneck) == "switch-nic-link" ||
              std::string(report.bottleneck) == "switch-capacity");
  EXPECT_LE(report.sustainable_gbps, 3300.0);
}

TEST(RuntimeTest, SwitchResourcesAvailable) {
  auto runtime = SuperFeRuntime::Create(Parse(kFlowStatsPolicy), RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const SwitchResourceUsage usage = (*runtime)->SwitchResources();
  EXPECT_GT(usage.salus, 0u);
  EXPECT_GT((*runtime)->NicMemoryUtilization(), 0.0);
}

TEST(SoftwareExtractorTest, MeasuresRealTime) {
  auto compiled = Compile(Parse(kFlowStatsPolicy));
  ASSERT_TRUE(compiled.ok());
  auto software = SoftwareExtractor::Create(*compiled);
  ASSERT_TRUE(software.ok());
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 10);
  const SoftwareRunReport report = (*software)->Run(trace, nullptr, SoftwareDeployment{});
  EXPECT_EQ(report.packets, trace.size());
  EXPECT_GT(report.measured_ns_per_packet, 0.0);
  EXPECT_GT(report.deployed_gbps, 0.0);
  EXPECT_GT(report.cpp_gbps, report.deployed_gbps);  // Interpreter slowdown.
}

TEST(RuntimeTest, FilteredPolicyOnlyProcessesMatching) {
  auto runtime = SuperFeRuntime::Create(Parse(R"(
pktstream
  .filter(udp.exist)
  .groupby(flow)
  .reduce(size, [f_sum])
  .collect(flow)
)"),
                                        RuntimeConfig{});
  ASSERT_TRUE(runtime.ok());
  const Trace trace = GenerateTrace(CampusProfile(), 20000, 11);
  CollectingFeatureSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_LT(report.filter_pass_fraction, 1.0);
  EXPECT_GT(report.filter_pass_fraction, 0.0);
  EXPECT_EQ(report.nic.cells, report.switch_stats.packets_batched);
}

}  // namespace
}  // namespace superfe

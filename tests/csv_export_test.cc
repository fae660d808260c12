// The exact CSV export (core/csv_export.h): every double field reads back
// to the same bits, rows of any width fit, per-member chunks are drained
// completely (one-shot) and into the right epoch file (daemon), and sinks
// that offer no member sinks still see one call at a time. CI runs this
// binary under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/csv_export.h"
#include "core/runtime.h"
#include "net/ingest.h"
#include "net/trace_gen.h"
#include "policy/parser.h"

namespace superfe {
namespace {

// Kitsune-style per-packet collection: one row per packet, non-integral
// values at three granularities.
const char* kPerPacketPolicy = R"(
pktstream
  .groupby(host, channel, socket)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum{decay=1}], host)
  .reduce(size, [f_mean{decay=1}, f_std{decay=1}], host)
  .reduce(size, [f_mean{decay=1}, f_mag{decay=1}, f_pcc{decay=1}], channel)
  .reduce(ipt, [f_mean{decay=1}, f_std{decay=1}], socket)
  .collect(pkt)
)";

const char* kFlowStatsPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum])
  .reduce(size, [f_mean, f_var, f_min, f_max])
  .reduce(ipt, [f_mean, f_var])
  .collect(flow)
)";

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::string> SplitFields(const std::string& row) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (;;) {
    const size_t comma = row.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(row.substr(start));
      return fields;
    }
    fields.push_back(row.substr(start, comma - start));
    start = comma + 1;
  }
}

FeatureVector MakeVector(std::vector<double> values) {
  FeatureVector v;
  v.group.granularity = Granularity::kFlow;
  v.group.length = 13;
  for (uint8_t i = 0; i < 13; ++i) {
    v.group.bytes[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  v.timestamp_ns = std::numeric_limits<uint64_t>::max();
  v.values = std::move(values);
  return v;
}

// Formats `values` as one row and checks that strtod gives back every
// value's exact bits.
void ExpectRoundTrip(const std::vector<double>& values) {
  const FeatureVector vector = MakeVector(values);
  std::string row = "prefix kept\n";
  AppendCsvRow(&row, vector);
  ASSERT_EQ(row.compare(0, 12, "prefix kept\n"), 0);
  ASSERT_EQ(row.back(), '\n');
  const std::vector<std::string> fields = SplitFields(row.substr(12, row.size() - 13));
  ASSERT_EQ(fields.size(), values.size() + 2);
  EXPECT_EQ(fields[0], vector.group.ToString());
  EXPECT_EQ(fields[1], std::to_string(vector.timestamp_ns));
  for (size_t i = 0; i < values.size(); ++i) {
    char* end = nullptr;
    const double parsed = std::strtod(fields[i + 2].c_str(), &end);
    EXPECT_EQ(*end, '\0') << fields[i + 2];
    EXPECT_EQ(Bits(parsed), Bits(values[i]))
        << "field " << i << " printed as " << fields[i + 2];
  }
}

TEST(CsvExportTest, EveryDoubleRoundTripsToTheSameBits) {
  using Limits = std::numeric_limits<double>;
  ExpectRoundTrip({0.0,
                   -0.0,
                   Limits::quiet_NaN(),
                   -Limits::quiet_NaN(),
                   Limits::infinity(),
                   -Limits::infinity(),
                   Limits::denorm_min(),
                   -Limits::denorm_min(),
                   FromBits(0x000fffffffffffffULL),  // Largest denormal.
                   Limits::min(),
                   Limits::max(),
                   Limits::lowest(),
                   1e308,
                   -1e-308,
                   9007199254740992.0,   // 2^53.
                   9007199254740994.0,   // 2^53 + 2.
                   18446744073709551616.0,  // 2^64.
                   123456789012345678.0,
                   0.1,
                   1.0 / 3.0,
                   3.141592653589793,
                   1514.0,
                   -2.2250738585072014e-308});
}

TEST(CsvExportTest, RandomBitPatternsRoundTrip) {
  Rng rng(2025);
  std::vector<double> values;
  while (values.size() < 20000) {
    const double v = FromBits(rng.NextU64());
    if (!std::isnan(v)) {  // NaN payloads are not text; canonical NaNs are above.
      values.push_back(v);
    }
  }
  ExpectRoundTrip(values);
}

// A fixed-size stack buffer overflows on direction_seq-shaped rows.
TEST(CsvExportTest, FiveThousandValueRowFits) {
  std::vector<double> widest(5000, -2.2250738585072014e-308);
  ExpectRoundTrip(widest);
  std::vector<double> mixed(5000);
  for (size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = (i % 3 == 0) ? -1.0 : std::ldexp(1.0 + i * 1e-4, static_cast<int>(i % 600) - 300);
  }
  ExpectRoundTrip(mixed);
}

TEST(CsvExportTest, GroupKeyTextIsHexOfTheKeyBytes) {
  PacketRecord pkt;
  pkt.tuple.src_ip = 0x0a00ff01;
  pkt.tuple.dst_ip = 0xac100005;
  pkt.tuple.src_port = 51234;
  pkt.tuple.dst_port = 443;
  pkt.tuple.protocol = 6;
  for (Granularity g : {Granularity::kHost, Granularity::kChannel, Granularity::kSocket,
                        Granularity::kFlow}) {
    const GroupKey key = GroupKey::ForPacket(pkt, g);
    std::string want = std::string(GranularityName(g)) + ":";
    for (int i = 0; i < key.length; ++i) {
      char hex[3];
      std::snprintf(hex, sizeof(hex), "%02x", key.bytes[i]);
      want += hex;
    }
    EXPECT_EQ(key.ToString(), want);
    std::string appended = "x";
    key.AppendText(&appended);
    EXPECT_EQ(appended, "x" + want);
  }
}

TEST(CsvExportTest, HeaderNamesEveryArrayElement) {
  auto policy = ParsePolicy("seq", R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(direction, one, f_direction)
  .reduce(one, [f_sum])
  .reduce(direction, [f_array{5000}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  auto runtime = SuperFeRuntime::Create(*policy, RuntimeConfig{});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const NicProgram& program = (*runtime)->compiled().nic_program;
  std::string header;
  AppendCsvHeader(&header, program);
  ASSERT_EQ(header.back(), '\n');
  header.pop_back();
  const std::vector<std::string> columns = SplitFields(header);
  ASSERT_EQ(columns.size(), 2 + program.FeatureDimension());
  EXPECT_EQ(columns[0], "group");
  EXPECT_EQ(columns[1], "timestamp_ns");
  EXPECT_EQ(columns[2], program.layout[0].Name());
  EXPECT_EQ(columns[3], program.layout[1].Name() + "[0]");
  EXPECT_EQ(columns.back(), program.layout[1].Name() + "[4999]");
}

// Rows of one CSV text (header dropped), sorted.
std::vector<std::string> SortedRows(const std::string& csv, std::string* header = nullptr) {
  std::vector<std::string> rows;
  std::istringstream in(csv);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      if (header != nullptr) {
        *header = line;
      }
      first = false;
      continue;
    }
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct OneShotExport {
  std::string csv;
  std::string before_drain;  // Stream contents when Run() returned.
  uint64_t count = 0;
  uint64_t vectors_emitted = 0;
};

OneShotExport RunToCsv(const Policy& policy, const Trace& trace, uint32_t shards,
                       uint32_t workers) {
  RuntimeConfig config;
  config.switch_shards = shards;
  config.worker_threads = workers;
  auto runtime = SuperFeRuntime::Create(policy, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  std::ostringstream out;
  CsvSink sink(&out, (*runtime)->compiled().nic_program);
  const RunReport report = (*runtime)->Run(trace, &sink);
  OneShotExport result;
  result.before_drain = out.str();
  EXPECT_TRUE(sink.Drain());
  result.csv = out.str();
  result.count = sink.count();
  result.vectors_emitted = report.nic.vectors_emitted;
  return result;
}

TEST(CsvExportTest, MemberChunksDrainCompletelyAndMatchSerial) {
  auto policy = ParsePolicy("kitsune", kPerPacketPolicy);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  // Enough rows that every member's chunk fills and is appended several
  // times before the final drain.
  const Trace trace = GenerateTrace(CampusProfile(), 12000, 3);
  const OneShotExport serial = RunToCsv(*policy, trace, 1, 0);
  std::string serial_header;
  const std::vector<std::string> serial_rows = SortedRows(serial.csv, &serial_header);
  ASSERT_EQ(serial_rows.size(), serial.vectors_emitted);
  ASSERT_EQ(serial.count, serial.vectors_emitted);
  ASSERT_GT(serial.csv.size(), 8 * kCsvChunkBytes);

  for (const auto& [shards, workers] : {std::pair<uint32_t, uint32_t>{1, 4}, {4, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards) + " workers=" + std::to_string(workers));
    const OneShotExport parallel = RunToCsv(*policy, trace, shards, workers);
    std::string header;
    const std::vector<std::string> rows = SortedRows(parallel.csv, &header);
    EXPECT_EQ(header, serial_header);
    EXPECT_EQ(parallel.count, rows.size());
    EXPECT_EQ(parallel.vectors_emitted, rows.size());
    EXPECT_TRUE(rows == serial_rows) << rows.size() << " rows vs " << serial_rows.size();
    // Rows reached the stream in whole chunks while the run went on, and
    // the rest only at Drain(): nothing is lost or written twice.
    EXPECT_LT(parallel.before_drain.size(), parallel.csv.size());
    EXPECT_EQ(parallel.csv.compare(0, parallel.before_drain.size(), parallel.before_drain), 0);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CsvExportTest, DaemonEpochFilesHoldTheirOwnRowsAndConcatenateToOneShot) {
  auto policy = ParsePolicy("kitsune", kPerPacketPolicy);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const Trace trace = GenerateTrace(EnterpriseProfile(), 6000, 11);
  const uint64_t loops = 3;
  RuntimeConfig config;
  config.switch_shards = 2;
  config.worker_threads = 2;

  const OneShotExport oneshot =
      RunToCsv(*policy, LoopedTraceSource::Materialize(trace, loops), 2, 2);
  std::string oneshot_header;
  const std::vector<std::string> oneshot_rows = SortedRows(oneshot.csv, &oneshot_header);

  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const std::string dir = ::testing::TempDir();
  const auto epoch_path = [&](uint64_t index) {
    return dir + "csv_export_test_epoch_" + std::to_string(index) + ".csv";
  };
  RotatingCsvSink sink((*runtime)->compiled().nic_program);
  ASSERT_TRUE(sink.OpenEpochFile(epoch_path(1)));
  bool files_ok = true;
  DaemonConfig daemon;
  daemon.chunk_packets = 1000;
  daemon.epoch_packets = 2500;
  daemon.fault_trigger_trace = LoopedTrace(&trace, loops);
  daemon.on_epoch = [&](const DaemonEpoch& e) {
    files_ok = sink.Drain() && files_ok;
    if (!e.final_epoch) {
      files_ok = sink.OpenEpochFile(epoch_path(e.index + 1)) && files_ok;
    }
  };
  LoopedTraceSource source(&trace, loops);
  const DaemonReport report = (*runtime)->RunDaemon(source, &sink, daemon);
  ASSERT_TRUE(files_ok);
  ASSERT_TRUE(report.all_epochs_reconciled);
  ASSERT_GE(report.epochs.size(), 4u);

  std::vector<std::string> concatenated;
  for (const DaemonEpoch& e : report.epochs) {
    std::string header;
    const std::vector<std::string> rows = SortedRows(ReadFile(epoch_path(e.index)), &header);
    EXPECT_EQ(header, oneshot_header) << "epoch " << e.index;
    // A row left in a member chunk past its boundary would land in the
    // next epoch's file and break both counts.
    EXPECT_EQ(rows.size(), e.vectors) << "epoch " << e.index;
    concatenated.insert(concatenated.end(), rows.begin(), rows.end());
    std::remove(epoch_path(e.index).c_str());
  }
  std::sort(concatenated.begin(), concatenated.end());
  EXPECT_EQ(sink.count(), concatenated.size());
  EXPECT_TRUE(concatenated == oneshot_rows)
      << concatenated.size() << " rows vs " << oneshot_rows.size();
}

// A sink without member sinks must still see one call at a time, however
// many workers emit.
class ConcurrencyCheckingSink : public CollectingFeatureSink {
 public:
  void OnFeatureVector(FeatureVector&& vector) override {
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    CollectingFeatureSink::OnFeatureVector(std::move(vector));
    in_flight_.fetch_sub(1);
  }
  int max_in_flight() const { return max_in_flight_.load(); }

 private:
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

TEST(CsvExportTest, SinkWithoutMemberSinksIsSerialized) {
  auto policy = ParsePolicy("kitsune", kPerPacketPolicy);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const Trace trace = GenerateTrace(CampusProfile(), 8000, 5);
  RuntimeConfig config;
  config.worker_threads = 4;
  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ConcurrencyCheckingSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_EQ(sink.max_in_flight(), 1);
  EXPECT_EQ(sink.vectors().size(), report.nic.vectors_emitted);
  EXPECT_GT(sink.vectors().size(), 0u);
}

// A sink with member sinks gets every vector there, and each member sink
// sees one call at a time.
class PerMemberSink : public FeatureSink {
 public:
  void OnFeatureVector(FeatureVector&&) override { ++serial_calls_; }
  FeatureSink* MemberSink(size_t member) override {
    while (members_.size() <= member) {
      members_.push_back(std::make_unique<Member>());
    }
    return members_[member].get();
  }
  uint64_t serial_calls() const { return serial_calls_.load(); }
  size_t members() const { return members_.size(); }
  uint64_t member_calls() const {
    uint64_t n = 0;
    for (const auto& m : members_) {
      n += m->calls;
    }
    return n;
  }
  bool overlapped() const {
    return std::any_of(members_.begin(), members_.end(),
                       [](const auto& m) { return m->overlapped; });
  }

 private:
  struct Member : FeatureSink {
    void OnFeatureVector(FeatureVector&&) override {
      overlapped = overlapped || busy.exchange(true);
      ++calls;  // Plain field: TSan flags any overlap.
      busy.store(false);
    }
    std::atomic<bool> busy{false};
    bool overlapped = false;
    uint64_t calls = 0;
  };
  std::atomic<uint64_t> serial_calls_{0};
  std::vector<std::unique_ptr<Member>> members_;
};

TEST(CsvExportTest, MemberSinksReceiveEveryParallelVector) {
  auto policy = ParsePolicy("flow", kFlowStatsPolicy);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const Trace trace = GenerateTrace(EnterpriseProfile(), 8000, 5);
  RuntimeConfig config;
  config.switch_shards = 2;
  config.worker_threads = 4;
  auto runtime = SuperFeRuntime::Create(*policy, config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  PerMemberSink sink;
  const RunReport report = (*runtime)->Run(trace, &sink);
  EXPECT_EQ(sink.members(), 4u);
  EXPECT_EQ(sink.serial_calls(), 0u);
  EXPECT_FALSE(sink.overlapped());
  EXPECT_EQ(sink.member_calls(), report.nic.vectors_emitted);
  EXPECT_GT(sink.member_calls(), 0u);
}

}  // namespace
}  // namespace superfe

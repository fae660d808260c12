#include <gtest/gtest.h>

#include <iterator>

#include "policy/builder.h"
#include "policy/parser.h"

namespace superfe {
namespace {

TEST(ParserTest, ParsesFig3StyleBasicStats) {
  auto policy = ParsePolicy("basic", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .map(ipt, tstamp, f_ipt)
  .reduce(size, [f_mean, f_var, f_min, f_max])
  .collect(flow)
  .reduce(ipt, [f_mean, f_var, f_min, f_max])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->name, "basic");
  EXPECT_EQ(policy->ops.size(), 9u);
}

TEST(ParserTest, ParsesFig4Histograms) {
  auto policy = ParsePolicy("freq", R"(
pktstream
  .groupby(flow)
  .map(ipt, tstamp, f_ipt)
  .reduce(ipt, [ft_hist{10000, 100}])
  .reduce(size, [ft_hist{100, 16}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* reduce = std::get_if<ReduceOp>(&policy->ops[2]);
  ASSERT_NE(reduce, nullptr);
  ASSERT_EQ(reduce->specs.size(), 1u);
  EXPECT_EQ(reduce->specs[0].fn, ReduceFn::kHist);
  EXPECT_DOUBLE_EQ(reduce->specs[0].param0, 10000.0);
  EXPECT_DOUBLE_EQ(reduce->specs[0].param1, 100.0);
}

TEST(ParserTest, ParsesFig5DirectionSequences) {
  auto policy = ParsePolicy("wfp", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(one, _, f_one)
  .map(direction, one, f_direction)
  .reduce(direction, [f_array])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

TEST(ParserTest, NamedParameters) {
  auto policy = ParsePolicy("named", R"(
pktstream
  .groupby(host)
  .reduce(size, [f_mean{decay=0.5}, f_array{limit=128}])
  .collect(host)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* reduce = std::get_if<ReduceOp>(&policy->ops[1]);
  ASSERT_NE(reduce, nullptr);
  EXPECT_DOUBLE_EQ(reduce->specs[0].decay_lambda, 0.5);
  EXPECT_EQ(reduce->specs[1].array_limit, 128u);
}

TEST(ParserTest, GranularityRestrictedReduce) {
  auto policy = ParsePolicy("restricted", R"(
pktstream
  .groupby(host, channel)
  .reduce(size, [f_mean], host)
  .reduce(size, [f_var], channel)
  .collect(pkt)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* r0 = std::get_if<ReduceOp>(&policy->ops[1]);
  ASSERT_NE(r0, nullptr);
  ASSERT_TRUE(r0->at.has_value());
  EXPECT_EQ(*r0->at, Granularity::kHost);
}

TEST(ParserTest, ComparisonPredicates) {
  auto policy = ParsePolicy("pred", R"(
pktstream
  .filter(dst_port == 443 && size > 100)
  .groupby(flow)
  .reduce(size, [f_sum])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  const auto* filter = std::get_if<FilterOp>(&policy->ops[0]);
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->expr.conjuncts.size(), 2u);
  EXPECT_EQ(filter->expr.conjuncts[0].field, PredField::kDstPort);
  EXPECT_EQ(filter->expr.conjuncts[1].op, PredOp::kGt);
}

TEST(ParserTest, CommentsAndBlankLines) {
  auto policy = ParsePolicy("comments", R"(
# A comment line.
pktstream
  .groupby(flow)   # trailing comment
  .reduce(size, [f_sum])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

TEST(ParserTest, SynthesizeWithQualifiedSource) {
  auto policy = ParsePolicy("synth", R"(
pktstream
  .groupby(flow)
  .map(dirsize, size, f_direction)
  .reduce(dirsize, [f_array{100}])
  .synthesize(f_norm(dirsize.f_array))
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
}

struct BadPolicyCase {
  const char* name;
  const char* source;
};

// The parameter is an index into this table rather than the case itself:
// gtest prints a struct parameter as its raw bytes, and two pointers into an
// ASLR-placed binary would make the listed test names differ on every run.
const BadPolicyCase kBadPolicies[] = {
    {"no_pktstream", ".groupby(flow).collect(flow)"},
    {"unknown_op", "pktstream.frobnicate(flow)"},
    {"unknown_granularity", "pktstream.groupby(flowz).collect(flowz)"},
    {"no_groupby", "pktstream.reduce(size, [f_sum]).collect(flow)"},
    {"no_collect", "pktstream.groupby(flow).reduce(size, [f_sum])"},
    {"filter_after_groupby",
     "pktstream.groupby(flow).filter(tcp.exist).reduce(size, "
     "[f_sum]).collect(flow)"},
    {"reduce_unknown_field",
     "pktstream.groupby(flow).reduce(nosuch, [f_sum]).collect(flow)"},
    {"unknown_reduce_fn",
     "pktstream.groupby(flow).reduce(size, [f_wat]).collect(flow)"},
    {"hist_missing_params",
     "pktstream.groupby(flow).reduce(size, [ft_hist]).collect(flow)"},
    {"bad_percent_range",
     "pktstream.groupby(flow).reduce(size, "
     "[ft_percent{1.5}]).collect(flow)"},
    {"synth_without_reduce",
     "pktstream.groupby(flow).synthesize(f_norm(size)).collect(flow)"},
    {"collect_before_compute", "pktstream.groupby(flow).collect(flow)"},
    {"collect_unit_not_in_chain",
     "pktstream.groupby(flow).reduce(size, [f_sum]).collect(host)"},
    {"broken_chain",
     "pktstream.groupby(socket, flow).reduce(size, "
     "[f_sum]).collect(flow)"},
    {"reduce_at_not_in_chain",
     "pktstream.groupby(flow).reduce(size, [f_sum], host).collect(flow)"},
    {"mixed_collect_units",
     "pktstream.groupby(host, channel).reduce(size, "
     "[f_sum]).collect(host).reduce(size, [f_mean]).collect(channel)"},
    {"trailing_garbage",
     "pktstream.groupby(flow).reduce(size, [f_sum]).collect(flow) extra"},
};

class ParserErrorTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParserErrorTest, Rejects) {
  const BadPolicyCase& bad = kBadPolicies[GetParam()];
  auto policy = ParsePolicy(bad.name, bad.source);
  EXPECT_FALSE(policy.ok()) << "expected failure for " << bad.name;
}

INSTANTIATE_TEST_SUITE_P(
    BadPolicies, ParserErrorTest,
    ::testing::Range<size_t>(0, std::size(kBadPolicies)),
    [](const auto& info) { return std::string(kBadPolicies[info.param].name); });

TEST(BuilderTest, BuildsEquivalentOfParsedPolicy) {
  auto built = PolicyBuilder("built")
                   .Filter(FilterExpr::TcpOnly())
                   .GroupBy(Granularity::kFlow)
                   .Map("one", "_", MapFn::kOne)
                   .Reduce("one", {ReduceSpec{ReduceFn::kSum}})
                   .Collect(Granularity::kFlow)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->ops.size(), 5u);
}

TEST(BuilderTest, RejectsBadPipeline) {
  auto bad = PolicyBuilder("bad").Reduce("size", {ReduceSpec{ReduceFn::kSum}}).Build();
  EXPECT_FALSE(bad.ok());
}

TEST(BuilderTest, NormalizesGranularityChain) {
  auto built = PolicyBuilder("chain")
                   .GroupBy({Granularity::kSocket, Granularity::kHost, Granularity::kChannel})
                   .Reduce("size", {ReduceSpec{ReduceFn::kSum}})
                   .Collect(Granularity::kSocket)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto* groupby = std::get_if<GroupByOp>(&built->ops[0]);
  ASSERT_NE(groupby, nullptr);
  ASSERT_EQ(groupby->chain.size(), 3u);
  EXPECT_EQ(groupby->chain[0], Granularity::kHost);
  EXPECT_EQ(groupby->chain[2], Granularity::kSocket);
}

TEST(BuilderTest, ReduceAtRestriction) {
  auto built = PolicyBuilder("at")
                   .GroupBy({Granularity::kHost, Granularity::kChannel})
                   .ReduceAt(Granularity::kHost, "size", {ReduceSpec{ReduceFn::kMean}})
                   .CollectPerPacket()
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
}

TEST(PolicyTest, LinesOfCodeCountsNonEmpty) {
  Policy policy;
  policy.source_text = "pktstream\n\n  .groupby(flow)\n# comment\n  .collect(flow)\n";
  EXPECT_EQ(policy.LinesOfCode(), 3);
}

TEST(PolicyTest, ToStringRoundTripsThroughParser) {
  auto policy = ParsePolicy("rt", R"(
pktstream
  .filter(tcp.exist)
  .groupby(flow)
  .map(ipt, tstamp, f_ipt)
  .reduce(ipt, [ft_hist{10000, 100}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok());
  const std::string printed = policy->ToString();
  auto reparsed = ParsePolicy("rt2", printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << printed;
  EXPECT_EQ(reparsed->ops.size(), policy->ops.size());
}

TEST(PredicateTest, MatchesFields) {
  PacketRecord pkt;
  pkt.tuple = {1, 2, 100, 443, kProtoTcp};
  pkt.wire_bytes = 1000;
  EXPECT_TRUE(FilterExpr::TcpOnly().Matches(pkt));
  EXPECT_FALSE(FilterExpr::UdpOnly().Matches(pkt));
  FilterExpr expr{{Predicate{PredField::kDstPort, PredOp::kEq, 443},
                   Predicate{PredField::kSize, PredOp::kGe, 1000}}};
  EXPECT_TRUE(expr.Matches(pkt));
  pkt.wire_bytes = 999;
  EXPECT_FALSE(expr.Matches(pkt));
}

TEST(PredicateTest, EmptyFilterAcceptsAll) {
  FilterExpr expr;
  PacketRecord pkt;
  EXPECT_TRUE(expr.Matches(pkt));
}

}  // namespace
}  // namespace superfe

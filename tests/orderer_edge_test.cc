/// Edge-case behavior shared by all ordering algorithms: empty inputs,
/// degenerate spaces, heavy ties, exhaustion, and the discard protocol —
/// plus the core::MakeOrderer factory contract.

#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace planorder::core {
namespace {

using test::Drain;
using test::MakeWorkload;
using test::Measure;
using test::MustMakeMeasure;

/// Every algorithm kind, in enum order.
constexpr OrdererKind kAllKinds[] = {OrdererKind::kGreedy, OrdererKind::kIDrips,
                                     OrdererKind::kStreamer, OrdererKind::kPi,
                                     OrdererKind::kNaive};

/// The factory contract, one row per (kind, measure): MakeOrderer succeeds
/// exactly when Applicable holds, the built orderer reports the kind's name,
/// and names round-trip.
TEST(OrdererFactoryTest, ContractHoldsForEveryKindAndMeasure) {
  stats::WorkloadOptions options;
  options.query_length = 2;
  options.bucket_size = 3;
  options.regions_per_bucket = 8;
  options.alpha_min = options.alpha_max = 0.3;  // admits kCost2UniformAlpha
  options.seed = 11;
  auto w = stats::Workload::Generate(options);
  ASSERT_TRUE(w.ok()) << w.status();
  for (OrdererKind kind : kAllKinds) {
    const std::string name = OrdererKindName(kind);
    auto parsed = OrdererKindFromName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind) << name;
    for (Measure measure :
         {Measure::kAdditive, Measure::kCost2UniformAlpha, Measure::kCost2,
          Measure::kFailureNoCache, Measure::kFailureCache, Measure::kMonetary,
          Measure::kMonetaryCache, Measure::kCoverage}) {
      auto model = MustMakeMeasure(measure, &*w);
      auto orderer = MakeOrderer(kind, &*w, model.get());
      const std::string row = name + "/" + test::MeasureName(measure);
      ASSERT_EQ(orderer.ok(), Applicable(kind, *model)) << row;
      if (orderer.ok()) {
        EXPECT_EQ((*orderer)->name(), name) << row;
      } else {
        EXPECT_EQ(orderer.status().code(), StatusCode::kFailedPrecondition)
            << row;
      }
    }
  }
  auto unknown = OrdererKindFromName("drips");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

/// Section 6's guidance, one row per measure class.
TEST(OrdererFactoryTest, ChooseOrdererFollowsPaperGuidance) {
  stats::Workload w = MakeWorkload(2, 4, 0.4, 77);
  const std::pair<Measure, OrdererKind> rows[] = {
      {Measure::kAdditive, OrdererKind::kGreedy},  // fully monotonic
      {Measure::kCoverage, OrdererKind::kStreamer},  // diminishing returns
      {Measure::kFailureNoCache, OrdererKind::kStreamer},
      {Measure::kFailureCache, OrdererKind::kIDrips},  // DR fails
      {Measure::kMonetaryCache, OrdererKind::kIDrips},
  };
  for (const auto& [measure, expected] : rows) {
    auto model = MustMakeMeasure(measure, &w);
    EXPECT_EQ(ChooseOrderer(*model), expected) << test::MeasureName(measure);
  }
}

/// Edge cases over explicit plan spaces, which MakeOrderer (full space
/// only) does not build: each orderer class through its own Create.
template <typename T>
class ExplicitSpaceTest : public ::testing::Test {};
using ExplicitSpaceOrderers =
    ::testing::Types<PiOrderer, IDripsOrderer, StreamerOrderer>;
TYPED_TEST_SUITE(ExplicitSpaceTest, ExplicitSpaceOrderers);

TYPED_TEST(ExplicitSpaceTest, NoSpacesMeansImmediateExhaustion) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 1);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  auto orderer = TypeParam::Create(&w, model.get(), {});
  ASSERT_TRUE(orderer.ok());
  auto next = (*orderer)->Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
}

TYPED_TEST(ExplicitSpaceTest, EmptyBucketSpacesAreSkipped) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 2);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace empty;
  empty.buckets = {{0, 1}, {}};
  PlanSpace small;
  small.buckets = {{0}, {2}};
  auto orderer = TypeParam::Create(&w, model.get(), {empty, small});
  ASSERT_TRUE(orderer.ok());
  const auto plans = Drain(**orderer);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].plan, (utility::ConcretePlan{0, 2}));
}

TYPED_TEST(ExplicitSpaceTest, UnknownSourceIdRejected) {
  stats::Workload w = MakeWorkload(2, 3, 0.3, 3);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0, 7}, {0}};
  auto orderer = TypeParam::Create(&w, model.get(), {bad});
  EXPECT_FALSE(orderer.ok());
  EXPECT_EQ(orderer.status().code(), StatusCode::kInvalidArgument);
}

TYPED_TEST(ExplicitSpaceTest, WrongBucketCountRejected) {
  stats::Workload w = MakeWorkload(3, 3, 0.3, 4);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  PlanSpace bad;
  bad.buckets = {{0}, {0}};  // workload has 3 buckets
  EXPECT_FALSE(TypeParam::Create(&w, model.get(), {bad}).ok());
}

TEST(OrdererEdgeTest, MassTiesStillEmitEveryPlanOnce) {
  // All sources identical: every plan ties. All orderers must still emit
  // each plan exactly once with identical utilities.
  std::vector<std::vector<stats::SourceStats>> buckets(2);
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < 4; ++i) {
      stats::SourceStats s;
      s.cardinality = 10;
      s.transmission_cost = 0.5;
      s.regions.bits = 0b0011;
      buckets[b].push_back(s);
    }
  }
  auto w = stats::Workload::FromParts(
      buckets, {std::vector<double>(4, 0.25), std::vector<double>(4, 0.25)},
      1.0, {100.0, 100.0});
  ASSERT_TRUE(w.ok());
  for (Measure measure : {Measure::kCoverage, Measure::kCost2}) {
    auto model = MustMakeMeasure(measure, &*w);
    for (OrdererKind kind : kAllKinds) {
      if (!Applicable(kind, *model)) continue;
      const std::string name = OrdererKindName(kind);
      auto orderer = MakeOrderer(kind, &*w, model.get());
      ASSERT_TRUE(orderer.ok()) << name;
      const auto plans = Drain(**orderer);
      ASSERT_EQ(plans.size(), 16u)
          << name << "/" << test::MeasureName(measure);
      std::set<utility::ConcretePlan> unique;
      for (const auto& p : plans) unique.insert(p.plan);
      EXPECT_EQ(unique.size(), 16u)
          << name << "/" << test::MeasureName(measure);
    }
  }
}

TEST(OrdererEdgeTest, ExhaustionIsSticky) {
  stats::Workload w = MakeWorkload(2, 2, 0.3, 5);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (OrdererKind kind : kAllKinds) {
    if (!Applicable(kind, *model)) continue;
    const std::string name = OrdererKindName(kind);
    auto orderer = MakeOrderer(kind, &w, model.get());
    ASSERT_TRUE(orderer.ok()) << name;
    EXPECT_EQ(Drain(**orderer).size(), 4u) << name;
    for (int i = 0; i < 3; ++i) {
      auto next = (*orderer)->Next();
      EXPECT_FALSE(next.ok()) << name;
      EXPECT_EQ(next.status().code(), StatusCode::kNotFound) << name;
    }
  }
}

TEST(OrdererEdgeTest, DiscardKeepsContextClean) {
  stats::Workload w = MakeWorkload(2, 3, 0.4, 6);
  auto model = MustMakeMeasure(Measure::kCoverage, &w);
  for (OrdererKind kind : kAllKinds) {
    if (!Applicable(kind, *model)) continue;
    const std::string name = OrdererKindName(kind);
    auto orderer = MakeOrderer(kind, &w, model.get());
    ASSERT_TRUE(orderer.ok()) << name;
    // Discard before any Next: harmless no-op.
    (*orderer)->ReportDiscarded();
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    (*orderer)->ReportDiscarded();
    (*orderer)->ReportDiscarded();  // double discard: still a no-op
    EXPECT_EQ((*orderer)->context().epoch(), 0) << name;
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    ASSERT_TRUE((*orderer)->Next().ok()) << name;
    // Second plan was implicitly executed when the third was requested.
    EXPECT_EQ((*orderer)->context().epoch(), 1) << name;
  }
}

TEST(OrdererEdgeTest, PlainIntervalModeStaysExact) {
  // probe_lower_bounds=false reverts to the paper's plain interval
  // semantics (min-over-members lower bounds, any-member link witnesses).
  // Slower, but the ordering must remain exact.
  stats::Workload w = MakeWorkload(3, 5, 0.4, 8);
  const std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(w)};
  for (Measure measure : {Measure::kCoverage, Measure::kMonetary}) {
    auto ref_model = MustMakeMeasure(measure, &w);
    auto reference = PiOrderer::Create(&w, ref_model.get(), spaces,
                                       /*use_independence=*/false);
    ASSERT_TRUE(reference.ok());
    const auto expected = Drain(**reference);

    auto model = MustMakeMeasure(measure, &w);
    auto streamer = StreamerOrderer::Create(
        &w, model.get(), spaces, {.probe_lower_bounds = false});
    ASSERT_TRUE(streamer.ok());
    const auto via_streamer = Drain(**streamer);
    ASSERT_EQ(via_streamer.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(via_streamer[i].utility, expected[i].utility, 1e-9)
          << test::MeasureName(measure) << " streamer at " << i;
    }

    auto model2 = MustMakeMeasure(measure, &w);
    auto idrips = IDripsOrderer::Create(&w, model2.get(), spaces);
    ASSERT_TRUE(idrips.ok());
    const auto via_idrips = Drain(**idrips);
    ASSERT_EQ(via_idrips.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(via_idrips[i].utility, expected[i].utility, 1e-9)
          << test::MeasureName(measure) << " idrips at " << i;
    }
  }
}

TEST(OrdererEdgeTest, SingleBucketWorkloadOrdersSources) {
  stats::Workload w = MakeWorkload(1, 6, 0.3, 7);
  auto model = MustMakeMeasure(Measure::kCost2, &w);
  for (OrdererKind kind : kAllKinds) {
    if (!Applicable(kind, *model)) continue;
    const std::string name = OrdererKindName(kind);
    auto orderer = MakeOrderer(kind, &w, model.get());
    ASSERT_TRUE(orderer.ok()) << name;
    const auto plans = Drain(**orderer);
    ASSERT_EQ(plans.size(), 6u) << name;
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_LE(plans[i].utility, plans[i - 1].utility + 1e-12) << name;
    }
  }
}

}  // namespace
}  // namespace planorder::core

#include "exec/synthetic_domain.h"

#include <gtest/gtest.h>

#include "datalog/evaluator.h"
#include "reformulation/bucket.h"
#include "reformulation/rewriting.h"
#include "utility/coverage_model.h"

namespace planorder::exec {
namespace {

stats::WorkloadOptions SmallOptions() {
  stats::WorkloadOptions options;
  options.query_length = 3;
  options.bucket_size = 5;
  options.overlap_rate = 0.4;
  options.regions_per_bucket = 8;
  options.seed = 31;
  return options;
}

TEST(SyntheticDomainTest, ShapeAndAlignment) {
  auto domain = BuildSyntheticDomain(SmallOptions(), /*num_answers=*/200);
  ASSERT_TRUE(domain.ok()) << domain.status();
  const SyntheticDomain& d = **domain;
  EXPECT_EQ(d.workload.num_buckets(), 3);
  EXPECT_EQ(d.query.body.size(), 3u);
  EXPECT_EQ(d.catalog.num_sources(), 15);
  EXPECT_EQ(d.num_answers, 200u);
  for (int b = 0; b < 3; ++b) {
    ASSERT_EQ(d.source_ids[b].size(), 5u);
    for (int i = 0; i < 5; ++i) {
      // Honest statistics: believed cardinality equals materialized count
      // (or 1 for empty sources).
      const auto& name = d.catalog.source(d.source_ids[b][i]).name;
      const size_t actual = d.source_facts.TuplesFor(name).size();
      EXPECT_DOUBLE_EQ(d.workload.source(b, i).cardinality,
                       std::max<size_t>(actual, 1));
    }
  }
}

TEST(SyntheticDomainTest, BucketsOfGeneratedCatalogMatchWorkload) {
  auto domain = BuildSyntheticDomain(SmallOptions(), 50);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  auto buckets = reformulation::BuildBuckets(d.query, d.catalog);
  ASSERT_TRUE(buckets.ok());
  ASSERT_EQ(buckets->buckets.size(), 3u);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(buckets->buckets[b], d.source_ids[b]);
  }
}

TEST(SyntheticDomainTest, EveryPlanIsSoundIdentityViews) {
  auto domain = BuildSyntheticDomain(SmallOptions(), 50);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  auto plan = reformulation::BuildSoundPlan(
      d.query, d.catalog,
      {d.source_ids[0][0], d.source_ids[1][1], d.source_ids[2][2]});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->has_value());
}

TEST(SyntheticDomainTest, PlanResultsAreExactlyTheCoverageBox) {
  // The defining property of the generator: a plan returns exactly the
  // answers whose per-bucket regions fall in its sources' masks, so the
  // coverage model's estimate equals the realized fraction in expectation.
  auto domain = BuildSyntheticDomain(SmallOptions(), 400);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  utility::CoverageModel model(&d.workload);
  utility::ExecutionContext ctx(&d.workload);

  for (const utility::ConcretePlan& plan :
       {utility::ConcretePlan{0, 0, 0}, utility::ConcretePlan{1, 2, 3},
        utility::ConcretePlan{4, 4, 4}}) {
    std::vector<datalog::SourceId> choice(3);
    for (int b = 0; b < 3; ++b) choice[b] = d.source_ids[b][plan[b]];
    auto qp = reformulation::BuildSoundPlan(d.query, d.catalog, choice);
    ASSERT_TRUE(qp.ok());
    ASSERT_TRUE(qp->has_value());
    auto tuples = datalog::EvaluateQuery((*qp)->rewriting, d.source_facts);
    ASSERT_TRUE(tuples.ok());
    const double realized = double(tuples->size()) / double(d.num_answers);
    const double estimated = model.EvaluateConcrete(plan, ctx);
    // Multinomial sampling noise at n=400: allow a generous band.
    EXPECT_NEAR(realized, estimated, 0.08)
        << "plan " << plan[0] << plan[1] << plan[2];
  }
}

TEST(SyntheticDomainTest, QueryAnswersOverSchemaFactsAreAllAnswers) {
  auto domain = BuildSyntheticDomain(SmallOptions(), 60);
  ASSERT_TRUE(domain.ok());
  const SyntheticDomain& d = **domain;
  auto answers = datalog::EvaluateQuery(d.query, d.schema_facts);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 60u);
}

TEST(SyntheticDomainTest, RejectsBadArguments) {
  EXPECT_FALSE(BuildSyntheticDomain(SmallOptions(), 0).ok());
  stats::WorkloadOptions bad = SmallOptions();
  bad.query_length = 0;
  EXPECT_FALSE(BuildSyntheticDomain(bad, 10).ok());
}

}  // namespace
}  // namespace planorder::exec

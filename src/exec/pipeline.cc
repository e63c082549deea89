#include "exec/pipeline.h"

#include "core/greedy.h"
#include "core/idrips.h"
#include "core/pi.h"
#include "core/streamer.h"
#include "reformulation/executable_order.h"

namespace planorder::exec {

StatusOr<std::unique_ptr<OrderingPipeline>> OrderingPipeline::Create(
    const datalog::Catalog* catalog, datalog::ConjunctiveQuery query,
    const stats::Workload* workload, const Options& options) {
  auto pipeline = std::unique_ptr<OrderingPipeline>(new OrderingPipeline());
  pipeline->catalog_ = catalog;
  pipeline->query_ = std::move(query);
  PLANORDER_ASSIGN_OR_RETURN(
      pipeline->buckets_,
      reformulation::BuildBuckets(pipeline->query_, *catalog));
  if (static_cast<int>(pipeline->buckets_.buckets.size()) !=
      workload->num_buckets()) {
    return InvalidArgumentError(
        "workload buckets do not align with the query's relational subgoals");
  }
  for (size_t b = 0; b < pipeline->buckets_.buckets.size(); ++b) {
    if (static_cast<int>(pipeline->buckets_.buckets[b].size()) !=
        workload->bucket_size(static_cast<int>(b))) {
      return InvalidArgumentError("workload bucket " + std::to_string(b) +
                                  " does not match the source bucket");
    }
  }
  PLANORDER_ASSIGN_OR_RETURN(
      pipeline->model_, utility::MakeMeasure(options.measure, workload));

  Algorithm algorithm = options.algorithm;
  if (algorithm == Algorithm::kAuto) {
    // Section 6's guidance, encoded: Greedy clearly wins when applicable;
    // Streamer when it can recycle dominance relations (diminishing
    // returns); iDrips otherwise (e.g. operation caching).
    if (pipeline->model_->fully_monotonic()) {
      algorithm = Algorithm::kGreedy;
    } else if (pipeline->model_->diminishing_returns()) {
      algorithm = Algorithm::kStreamer;
    } else {
      algorithm = Algorithm::kIDrips;
    }
  }
  std::vector<core::PlanSpace> spaces = {core::PlanSpace::FullSpace(*workload)};
  switch (algorithm) {
    case Algorithm::kGreedy: {
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<core::GreedyOrderer> orderer,
          core::GreedyOrderer::Create(workload, pipeline->model_.get(),
                                      std::move(spaces)));
      pipeline->orderer_ = std::move(orderer);
      pipeline->algorithm_name_ = "greedy";
      break;
    }
    case Algorithm::kStreamer: {
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<core::StreamerOrderer> orderer,
          core::StreamerOrderer::Create(workload, pipeline->model_.get(),
                                        std::move(spaces), options.heuristic));
      pipeline->orderer_ = std::move(orderer);
      pipeline->algorithm_name_ = "streamer";
      break;
    }
    case Algorithm::kIDrips: {
      core::IDripsOptions idrips_options;
      idrips_options.heuristic = options.heuristic;
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<core::IDripsOrderer> orderer,
          core::IDripsOrderer::Create(workload, pipeline->model_.get(),
                                      std::move(spaces), idrips_options));
      pipeline->orderer_ = std::move(orderer);
      pipeline->algorithm_name_ = "idrips";
      break;
    }
    case Algorithm::kPi: {
      PLANORDER_ASSIGN_OR_RETURN(
          std::unique_ptr<core::PiOrderer> orderer,
          core::PiOrderer::Create(workload, pipeline->model_.get(),
                                  std::move(spaces)));
      pipeline->orderer_ = std::move(orderer);
      pipeline->algorithm_name_ = "pi";
      break;
    }
    case Algorithm::kAuto:
      return InternalError("kAuto must have been resolved");
  }
  return pipeline;
}

StatusOr<OrderingPipeline::Emission> OrderingPipeline::Next() {
  while (true) {
    PLANORDER_ASSIGN_OR_RETURN(core::OrderedPlan next, orderer_->Next());
    std::vector<datalog::SourceId> choice(next.plan.size());
    for (size_t b = 0; b < next.plan.size(); ++b) {
      choice[b] = buckets_.buckets[b][next.plan[b]];
    }
    PLANORDER_ASSIGN_OR_RETURN(
        std::optional<reformulation::QueryPlan> plan,
        reformulation::BuildSoundPlan(query_, *catalog_, choice));
    if (!plan.has_value()) {
      orderer_->ReportDiscarded();
      continue;
    }
    auto ordered = reformulation::FindExecutableOrder(*plan, *catalog_);
    if (!ordered.ok()) {
      if (ordered.status().code() != StatusCode::kFailedPrecondition) {
        return ordered.status();
      }
      orderer_->ReportDiscarded();
      continue;
    }
    return Emission{std::move(*ordered), next.utility};
  }
}

}  // namespace planorder::exec

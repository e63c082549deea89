// large-order: one client, no plan execution. It fully drains a 4096-plan
// space through the core orderers (iDrips and Streamer under coverage) and
// through an AdaptiveOrderer fed drifting observations, so that it rebuilds
// mid-stream, and runs ranked sessions over a 512-plan domain. Core
// ordering, adaptive rebuilds and the any-k plan phase do the work here;
// the service, runtime and cluster layers do none.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "adaptive/adaptive_orderer.h"
#include "adaptive/observed_stats.h"
#include "anyk/ranked_stream.h"
#include "checks.h"
#include "core/idrips.h"
#include "core/plan_space.h"
#include "core/streamer.h"
#include "exec/synthetic_domain.h"
#include "utility/measures.h"
#include "workloads.h"

namespace perfbench {

namespace pl = planorder;

namespace {

// One round: a Streamer drain, kIDripsPerRound iDrips drains, an adaptive
// drain and kRankedPerRound ranked sessions. A Streamer drain costs as much
// as 35 iDrips drains and its first plan comes some 70x later, so it is
// kept under a tenth of each latency kind's samples: the p50 and p90 then
// fall inside the steady iDrips and ranked clusters, while its cost still
// shows in the per-round rates.
constexpr int kIDripsPerRound = 19;
constexpr int kRankedPerRound = 10;
constexpr size_t kRankedK = 10;
constexpr int kVerifyFirst = 8;
// Observations drift (12x the estimated cardinality) only inside this
// emission window, so rebuilds happen mid-stream but not on every step.
constexpr int kDriftFrom = 64;
constexpr int kDriftTo = 160;
// Fixed plan-space statistics (see cold_mediate.cc); --seed varies the
// ranked tuple weights.
constexpr uint64_t kDrainSeed = 15485863;
constexpr uint64_t kRankedSeed = 32452843;

struct LargeWorld {
  pl::stats::Workload drain_workload;
  std::vector<std::vector<std::string>> names;
  std::unique_ptr<pl::exec::SyntheticDomain> ranked_domain;
  uint64_t ranked_plans = 0;
  uint64_t weight_seed = 1;
};

std::unique_ptr<LargeWorld> SetUp(const Options& options) {
  auto world = std::make_unique<LargeWorld>();
  pl::stats::WorkloadOptions wopts;
  wopts.query_length = 4;
  wopts.bucket_size = 8;
  wopts.overlap_rate = 0.3;
  wopts.regions_per_bucket = 16;
  wopts.seed = kDrainSeed;
  auto workload = pl::stats::Workload::Generate(wopts);
  pl::stats::WorkloadOptions ropts;
  ropts.query_length = 3;
  ropts.bucket_size = 8;
  ropts.overlap_rate = 0.4;
  ropts.regions_per_bucket = 16;
  ropts.seed = kRankedSeed;
  auto domain = pl::exec::BuildSyntheticDomain(ropts, /*num_answers=*/400);
  if (!workload.ok() || !domain.ok()) {
    std::fprintf(stderr, "large-order inputs failed to build\n");
    std::abort();
  }
  world->drain_workload = std::move(*workload);
  const pl::stats::Workload& w = world->drain_workload;
  world->names.resize(size_t(w.num_buckets()));
  for (int b = 0; b < w.num_buckets(); ++b) {
    for (int i = 0; i < w.bucket_size(b); ++i) {
      world->names[size_t(b)].push_back("b" + std::to_string(b) + "_s" +
                                        std::to_string(i));
    }
  }
  world->ranked_domain = std::move(*domain);
  world->ranked_plans =
      pl::core::PlanSpace::FullSpace(world->ranked_domain->workload).NumPlans();
  world->weight_seed = options.seed;
  return world;
}

struct Outputs {
  OutputBook book;
  std::map<std::string, std::vector<pl::core::OrderedPlan>> drain_first;
  std::vector<pl::anyk::RankedAnswer> ranked_first;
  int64_t min_rebuilds = -1;
};

enum class DrainKind { kIDrips, kStreamer, kAdaptive };

pl::Status Drain(LargeWorld& world, DrainKind kind, Tally& tally,
                 Outputs& outputs) {
  const pl::stats::Workload& w = world.drain_workload;
  const double issued = CpuMs();
  std::unique_ptr<pl::utility::UtilityModel> model;
  std::unique_ptr<pl::core::Orderer> orderer;
  pl::adaptive::AdaptiveOrderer* adaptive = nullptr;
  pl::adaptive::ObservedStats observed;
  const char* next_span = "core.next";
  std::string key = "idrips";
  if (kind == DrainKind::kAdaptive) {
    ScopedSpan span("adaptive.build");
    pl::adaptive::AdaptiveOptions aopts;
    aopts.inner = pl::adaptive::InnerOrderer::kIDrips;
    aopts.measure = pl::utility::MeasureKind::kCost2;
    aopts.drift.band = 2.0;
    aopts.drift.min_calls = 1;
    PLANORDER_ASSIGN_OR_RETURN(
        auto created,
        pl::adaptive::AdaptiveOrderer::Create(&w, world.names, &observed,
                                              aopts));
    adaptive = created.get();
    orderer = std::move(created);
    next_span = "adaptive.next";
    key = "adaptive";
  } else {
    ScopedSpan span("core.build");
    PLANORDER_ASSIGN_OR_RETURN(
        model,
        pl::utility::MakeMeasure(pl::utility::MeasureKind::kCoverage, &w));
    std::vector<pl::core::PlanSpace> spaces = {
        pl::core::PlanSpace::FullSpace(w)};
    if (kind == DrainKind::kIDrips) {
      PLANORDER_ASSIGN_OR_RETURN(
          orderer, pl::core::IDripsOrderer::Create(&w, model.get(), spaces));
    } else {
      PLANORDER_ASSIGN_OR_RETURN(
          orderer, pl::core::StreamerOrderer::Create(&w, model.get(), spaces));
      key = "streamer";
    }
  }
  std::vector<pl::core::OrderedPlan> emitted;
  emitted.reserve(4096);
  while (true) {
    pl::StatusOr<pl::core::OrderedPlan> next = pl::NotFoundError("");
    {
      ScopedSpan span(next_span);
      next = orderer->Next();
    }
    if (!next.ok()) {
      if (next.status().code() == pl::StatusCode::kNotFound) break;
      return next.status();
    }
    if (emitted.empty()) tally.first_result_ms.push_back(CpuMs() - issued);
    const int index = int(emitted.size());
    emitted.push_back(*std::move(next));
    if (adaptive != nullptr && index >= kDriftFrom && index < kDriftTo) {
      const pl::core::ConcretePlan& plan = emitted.back().plan;
      for (size_t b = 0; b < plan.size(); ++b) {
        pl::runtime::SourceObservation obs;
        obs.rows = int64_t(w.source(int(b), plan[b]).cardinality * 12.0);
        obs.attempts = 1;
        obs.latency_micros = 1000;
        observed.RecordFetch(world.names[b][size_t(plan[b])], obs);
      }
      ScopedSpan span("adaptive.fold");
      observed.FoldWindow();
    }
  }
  tally.query_ms.push_back(CpuMs() - issued);
  ++tally.queries;
  tally.plans += int64_t(emitted.size());
  if (adaptive != nullptr) {
    ++tally.adaptive_drains;
    tally.rebuilds += adaptive->rebuilds();
    if (outputs.min_rebuilds < 0 ||
        adaptive->rebuilds() < outputs.min_rebuilds) {
      outputs.min_rebuilds = adaptive->rebuilds();
    }
  } else {
    ++tally.core_drains;
    tally.core_plans += int64_t(emitted.size());
    tally.core_evaluations += orderer->plan_evaluations();
  }
  if (outputs.book.Note(key, Digest(emitted))) {
    outputs.drain_first[key] = std::move(emitted);
  }
  return pl::OkStatus();
}

pl::Status Ranked(LargeWorld& world, Tally& tally, Outputs& outputs) {
  const pl::exec::SyntheticDomain& d = *world.ranked_domain;
  const double issued = CpuMs();
  std::unique_ptr<pl::utility::UtilityModel> model;
  std::unique_ptr<pl::core::IDripsOrderer> orderer;
  std::optional<pl::anyk::RankedAnswerStream> stream;
  {
    ScopedSpan span("anyk.open");
    PLANORDER_ASSIGN_OR_RETURN(
        model,
        pl::utility::MakeMeasure(pl::utility::MeasureKind::kCoverage,
                                 &d.workload));
    PLANORDER_ASSIGN_OR_RETURN(
        orderer, pl::core::IDripsOrderer::Create(
                     &d.workload, model.get(),
                     {pl::core::PlanSpace::FullSpace(d.workload)}));
    pl::anyk::RankedAnswerStream::Options ropts;
    ropts.max_plans = int(world.ranked_plans);
    ropts.weights.seed = world.weight_seed;
    PLANORDER_ASSIGN_OR_RETURN(
        auto opened, pl::anyk::RankedAnswerStream::Open(
                         d.catalog, d.query, d.source_facts, d.source_ids,
                         *orderer, ropts));
    stream.emplace(std::move(opened));
  }
  std::vector<pl::anyk::RankedAnswer> answers;
  while (answers.size() < kRankedK) {
    pl::StatusOr<pl::anyk::RankedAnswer> next = pl::NotFoundError("");
    {
      ScopedSpan span("anyk.next");
      next = stream->Next();
    }
    if (!next.ok()) {
      if (next.status().code() == pl::StatusCode::kNotFound) break;
      return next.status();
    }
    answers.push_back(*std::move(next));
  }
  const double elapsed = CpuMs() - issued;
  tally.ranked_first_k_ms.push_back(elapsed);
  tally.query_ms.push_back(elapsed);
  ++tally.queries;
  ++tally.ranked_sessions;
  tally.plans += stream->stats().plans_considered;
  tally.ranked_plans += stream->stats().plans_considered;
  tally.ranked_witnesses += int64_t(stream->stats().witnesses_expanded);
  tally.ranked_answers += int64_t(answers.size());
  tally.answers += int64_t(answers.size());
  if (outputs.book.Note("ranked", Digest(answers))) {
    outputs.ranked_first = std::move(answers);
  }
  return pl::OkStatus();
}

void Round(LargeWorld& world, Tally& tally, Outputs& outputs) {
  auto run = [&](const std::function<pl::Status()>& op) {
    QueryScope scope;
    ++tally.attempted;
    if (!op().ok()) ++tally.failed;
  };
  run([&] { return Drain(world, DrainKind::kStreamer, tally, outputs); });
  for (int r = 0; r < kIDripsPerRound; ++r) {
    run([&] { return Drain(world, DrainKind::kIDrips, tally, outputs); });
  }
  run([&] { return Drain(world, DrainKind::kAdaptive, tally, outputs); });
  for (int r = 0; r < kRankedPerRound; ++r) {
    run([&] { return Ranked(world, tally, outputs); });
  }
}

}  // namespace

WorkloadResult RunLargeOrder(const Options& options) {
  WorkloadResult result;
  std::unique_ptr<LargeWorld> world;
  // Set-up builds the two plan-space inputs; there is no cache to warm.
  for (int s = 0; s < 5; ++s) {
    const double start = CpuMs();
    world.reset();
    world = SetUp(options);
    result.setup_s.push_back((CpuMs() - start) / 1000.0);
  }
  Outputs outputs;
  auto round = [&](int, int64_t, Tally& tally) {
    Round(*world, tally, outputs);
  };
  // 21 drains and 10 ranked sessions per round: 10 rounds give the 100
  // samples a p90 needs.
  const double phase_seconds = PhaseSeconds(options);
  result.untraced = RunPhase(1, phase_seconds, 10, round);
  if (options.trace) {
    Tracer::Get().set_enabled(true);
    result.traced = RunPhase(1, phase_seconds, 10, round);
    Tracer::Get().set_enabled(false);
    result.traced.spans = Tracer::Get().Take();
  }

  // Checks, outside every timed region.
  if (options.inject == "swap-emission") {
    auto& drain = outputs.drain_first["idrips"];
    if (drain.size() > 1) std::swap(drain.front(), drain.back());
  }
  for (const std::string& e : outputs.book.Errors()) result.errors.push_back(e);
  const pl::stats::Workload& w = world->drain_workload;
  for (const char* key : {"idrips", "streamer", "adaptive"}) {
    auto it = outputs.drain_first.find(key);
    if (it == outputs.drain_first.end()) {
      result.errors.push_back(std::string(key) + " drain never completed");
      continue;
    }
    const int verify = std::string(key) == "adaptive" ? 0 : kVerifyFirst;
    const std::string error = CheckDrain(it->second, w, verify);
    if (!error.empty()) {
      result.errors.push_back(std::string(key) + ": " + error);
    }
  }
  if (outputs.min_rebuilds < 1) {
    result.errors.push_back("drifted drain never rebuilt");
  }
  const pl::exec::SyntheticDomain& d = *world->ranked_domain;
  pl::anyk::WeightOptions weights;
  weights.seed = world->weight_seed;
  auto oracle = RankedOracle(d.query, d.catalog, d.source_facts, weights);
  const std::string error =
      oracle.ok() ? CheckRanked(outputs.ranked_first, *oracle, kRankedK)
                  : oracle.status().ToString();
  if (!error.empty()) result.errors.push_back("ranked: " + error);

  const Tally& t = result.untraced.tally;
  const int64_t rounds =
      std::max<int64_t>(1, int64_t(result.untraced.rounds.size()));
  result.counts["round.plans"] = t.plans / rounds;
  result.counts["round.core_evaluations"] = t.core_evaluations / rounds;
  result.counts["round.rebuilds"] = t.rebuilds / rounds;
  result.counts["round.ranked_witnesses"] = t.ranked_witnesses / rounds;
  result.counts["round.ranked_plans"] = t.ranked_plans / rounds;
  return result;
}

}  // namespace perfbench

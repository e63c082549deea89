// cold-mediate: one client streams distinct queries over a synthetic chain
// domain through a QueryService with a plan store, executing plans on the
// resilient runtime. The queries cycle through more canonical forms than the
// reformulation cache holds, so every lookup misses and every query pays
// canonicalization, bucket construction, instance statistics estimation and
// a whole-store plan-store rewrite: the write path of both caches.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "adaptive/plan_store.h"
#include "datalog/canonicalize.h"
#include "reformulation/bucket.h"
#include "reformulation/statistics.h"
#include "runtime/clock.h"
#include "service/query_service.h"
#include "sessions.h"

namespace perfbench {

namespace pl = planorder;

namespace {

constexpr int kChainLength = 4;
constexpr int kBucketSize = 6;
constexpr int kNumAnswers = 300;
constexpr int kConstantsPerChain = 12;
constexpr int kMaxPlans = 6;
constexpr size_t kRankedK = 10;
constexpr int kRankedEvery = 8;  // one ranked query per 8
// The domain's statistics are fixed; --seed varies the query stream (order
// and variable names), the runtime's fault and latency draws and the ranked
// tuple weights. Seeding the domain itself moved every end-to-end
// figure by 20-40% between seeds, more than any regression bound absorbs.
constexpr uint64_t kDomainSeed = 7919;

struct ColdQuery {
  pl::datalog::ConjunctiveQuery query;
  bool ranked = false;
};

/// The query cycle: sub-chains of length >= 2 with four head projections,
/// plus constant selections on every sub-chain. Length-2 projections are the
/// ranked queries (their 36-plan spaces keep the ranked plan phase and the
/// brute-force oracle small); one ranked query follows every seven in plan
/// mode. All forms are pairwise non-isomorphic by construction. The
/// selection constants come from the fixed domain seed (which answers they
/// select moved throughput by 15 % between seeds); `seed` orders the cycle
/// and names its variables.
std::vector<ColdQuery> MakeCycle(uint64_t seed) {
  std::mt19937_64 picker(kDomainSeed);
  const int names = int(seed % 1000) + 1;
  std::vector<ColdQuery> plan_mode, ranked;
  for (int from = 0; from < kChainLength; ++from) {
    for (int to = from + 2; to <= kChainLength; ++to) {
      std::vector<int> all;
      for (int p = from; p <= to; ++p) all.push_back(p);
      const std::vector<std::vector<int>> heads = {
          {from, to}, {from}, {to}, all};
      for (const auto& head : heads) {
        ColdQuery q{ParseQuery(ChainQueryText(from, to, head, "", names)),
                    to - from == 2};
        (q.ranked ? ranked : plan_mode).push_back(std::move(q));
      }
      // Constant selections: X{from} bound to the value of a seeded answer.
      std::vector<int> picks(kNumAnswers);
      for (int a = 0; a < kNumAnswers; ++a) picks[size_t(a)] = a;
      std::shuffle(picks.begin(), picks.end(), picker);
      std::vector<int> rest(all.begin() + 1, all.end());
      for (int c = 0; c < kConstantsPerChain; ++c) {
        const std::string constant =
            "c" + std::to_string(picks[size_t(c)]) + "_" + std::to_string(from);
        plan_mode.push_back(
            {ParseQuery(ChainQueryText(from, to, rest, constant, names)),
             false});
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(plan_mode.begin(), plan_mode.end(), rng);
  std::shuffle(ranked.begin(), ranked.end(), rng);
  std::vector<ColdQuery> cycle;
  size_t p = 0, r = 0;
  while (p < plan_mode.size() || r < ranked.size()) {
    const bool take_ranked =
        r < ranked.size() &&
        (p >= plan_mode.size() ||
         cycle.size() % kRankedEvery == kRankedEvery - 1);
    cycle.push_back(take_ranked ? ranked[r++] : plan_mode[p++]);
  }
  return cycle;
}

/// Everything one set-up builds; members are declared in dependency order.
struct ColdWorld {
  std::unique_ptr<pl::exec::SyntheticDomain> domain;
  std::unique_ptr<pl::exec::SourceRegistry> registry;
  pl::runtime::VirtualClock clock;
  std::unique_ptr<pl::runtime::SourceRuntime> runtime;
  std::unique_ptr<TimingExecutor> timing;
  std::unique_ptr<pl::adaptive::PlanStore> store;
  std::unique_ptr<pl::service::QueryService> service;
  std::vector<ColdQuery> cycle;
  uint64_t weight_seed = 1;
};

std::unique_ptr<ColdWorld> SetUp(const Options& options,
                                 const std::string& store_path) {
  auto world = std::make_unique<ColdWorld>();
  pl::stats::WorkloadOptions wopts;
  wopts.query_length = kChainLength;
  wopts.bucket_size = kBucketSize;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 16;
  wopts.seed = kDomainSeed;
  auto domain = pl::exec::BuildSyntheticDomain(wopts, kNumAnswers);
  if (!domain.ok()) {
    std::fprintf(stderr, "domain: %s\n", domain.status().ToString().c_str());
    std::abort();
  }
  world->domain = std::move(*domain);
  world->registry = MakeRegistry(*world->domain);
  world->runtime = std::make_unique<pl::runtime::SourceRuntime>(
      world->registry.get(),
      MediatorRuntime(options.seed, &world->clock));
  pl::exec::PlanExecutor* executor = world->runtime.get();
  if (options.trace) {
    world->timing = std::make_unique<TimingExecutor>(executor);
    executor = world->timing.get();
  }
  std::remove(store_path.c_str());
  world->store = std::make_unique<pl::adaptive::PlanStore>(store_path);
  pl::service::ServiceOptions sopts;
  sopts.plan_store = world->store.get();
  world->service = std::make_unique<pl::service::QueryService>(
      &world->domain->catalog, &world->domain->source_facts, sopts, executor);
  world->cycle = MakeCycle(options.seed);
  world->weight_seed = options.seed;
  return world;
}

struct Outputs {
  OutputBook book;
  std::map<size_t, PlanRecord> plan_first;
  std::map<size_t, std::vector<pl::anyk::RankedAnswer>> ranked_first;
};

/// Issues query `index` of the cycle and notes its outputs.
void Issue(ColdWorld& world, size_t index, Tally& tally, Outputs& outputs) {
  const ColdQuery& q = world.cycle[index];
  QueryScope scope;
  ++tally.attempted;
  bool hit = false;
  pl::Status status;
  if (q.ranked) {
    pl::anyk::RankedAnswerStream::Options ropts;
    ropts.max_plans = 1 << 20;
    ropts.weights.seed = world.weight_seed;
    std::vector<pl::anyk::RankedAnswer> answers;
    status = DriveRankedSession(
        [&] { return world.service->OpenRankedSession(q.query, ropts); },
        kRankedK, tally, answers);
    if (status.ok() &&
        outputs.book.Note(std::to_string(index), Digest(answers))) {
      outputs.ranked_first[index] = std::move(answers);
    }
  } else {
    pl::exec::Mediator::RunLimits limits;
    limits.max_plans = kMaxPlans;
    PlanRecord record;
    status = DrivePlanSession(
        [&] { return world.service->OpenSession(q.query, limits); }, tally,
        record, &hit);
    if (status.ok() &&
        outputs.book.Note(std::to_string(index), Digest(record))) {
      outputs.plan_first[index] = std::move(record);
    }
  }
  if (!status.ok()) {
    ++tally.failed;
    return;
  }
  if (!Tracer::Get().enabled()) return;
  // The service reaches the reformulation stages only internally; time the
  // same public functions on the same inputs.
  pl::datalog::CanonicalQuery canonical;
  {
    ScopedSpan span("datalog.canonicalize");
    canonical = pl::datalog::CanonicalizeQuery(q.query);
  }
  if (hit) return;
  pl::StatusOr<pl::reformulation::BucketResult> buckets =
      pl::NotFoundError("");
  {
    ScopedSpan span("reformulation.buckets");
    buckets = pl::reformulation::BuildBuckets(canonical.query,
                                              world.domain->catalog);
  }
  pl::Status estimated = buckets.status();
  if (buckets.ok()) {
    ScopedSpan span("reformulation.estimate");
    estimated = pl::reformulation::EstimateWorkloadFromInstances(
                    canonical.query, world.domain->catalog, *buckets,
                    world.domain->source_facts,
                    world.service->options().estimate)
                    .status();
  }
  if (!estimated.ok()) {
    outputs.book.AddError("shadow reformulation: " + estimated.ToString());
  }
}

}  // namespace

WorkloadResult RunColdMediate(const Options& options) {
  WorkloadResult result;
  const std::string store_path = options.work_dir + "/cold-mediate-" +
                                 std::to_string(getpid()) + ".planstore";
  std::unique_ptr<ColdWorld> world;
  std::unique_ptr<Outputs> outputs;
  Tally warm;
  // Each set-up builds the domain, runtime and service and runs one whole
  // cycle, which fills the reformulation cache and the plan store to
  // capacity; the last set-up's world is the one measured.
  for (int s = 0; s < 3; ++s) {
    const double start = CpuMs();
    world.reset();
    world = SetUp(options, store_path);
    outputs = std::make_unique<Outputs>();
    warm = Tally();
    for (size_t i = 0; i < world->cycle.size(); ++i) {
      Issue(*world, i, warm, *outputs);
    }
    result.setup_s.push_back((CpuMs() - start) / 1000.0);
  }
  const size_t n = world->cycle.size();
  auto round = [&](int, int64_t, Tally& tally) {
    for (size_t i = 0; i < n; ++i) Issue(*world, i, tally, *outputs);
  };
  // 12 ranked queries per cycle: 9 cycles give the 100 samples a p90 needs.
  const double phase_seconds = PhaseSeconds(options);
  result.untraced = RunPhase(1, phase_seconds, 9, round);
  if (options.trace) {
    const auto before = world->service->Metrics();
    Tracer::Get().set_enabled(true);
    result.traced = RunPhase(1, phase_seconds, 9, round);
    Tracer::Get().set_enabled(false);
    result.traced.spans = Tracer::Get().Take();
    const auto after = world->service->Metrics();
    const double hits = double(after.cache.hits - before.cache.hits);
    const double misses = double(after.cache.misses - before.cache.misses);
    result.layer["service.reformulation_hit_ratio"] =
        Ratio(hits, hits + misses);
    result.layer["adaptive.plan_store_saves_per_query"] =
        Ratio(double(after.plan_store_saves - before.plan_store_saves),
              double(after.sessions_completed - before.sessions_completed));
    const double start = NowMs();
    const pl::Status saved = world->service->PersistPlanStore();
    result.layer["adaptive.plan_store_save_ms"] = NowMs() - start;
    if (!saved.ok()) {
      outputs->book.AddError("plan store save: " + saved.ToString());
    }
  }

  // Checks, outside every timed region.
  if (options.inject == "drop-answer") {
    for (auto& [index, record] : outputs->plan_first) {
      if (!record.answers.empty()) {
        record.answers.pop_back();
        break;
      }
    }
  }
  result.errors = outputs->book.Errors();
  pl::anyk::WeightOptions weights;
  weights.seed = world->weight_seed;
  for (const auto& [index, record] : outputs->plan_first) {
    auto truth =
        GroundTruth(world->cycle[index].query, world->domain->schema_facts);
    const std::string error = truth.ok() ? CheckPlanRecord(record, *truth)
                                         : truth.status().ToString();
    if (!error.empty()) {
      result.errors.push_back("query " + world->cycle[index].query.ToString() +
                              ": " + error);
    }
  }
  for (const auto& [index, answers] : outputs->ranked_first) {
    auto oracle =
        RankedOracle(world->cycle[index].query, world->domain->catalog,
                     world->domain->source_facts, weights);
    const std::string error = oracle.ok()
                                  ? CheckRanked(answers, *oracle, kRankedK)
                                  : oracle.status().ToString();
    if (!error.empty()) {
      result.errors.push_back("ranked " + world->cycle[index].query.ToString() +
                              ": " + error);
    }
  }
  if (outputs->plan_first.size() + outputs->ranked_first.size() != n) {
    result.errors.push_back("set-up cycle left queries unchecked");
  }
  result.counts["cycle.queries"] = int64_t(n);
  result.counts["cycle.plans"] = warm.plans;
  result.counts["cycle.answers"] = warm.answers;
  result.counts["cycle.sound_steps"] = warm.sound_steps;
  result.counts["cycle.source_calls"] = warm.source_calls;
  result.counts["cycle.tuples_shipped"] = warm.tuples_shipped;
  result.counts["cycle.retries"] = warm.retries;
  result.counts["cycle.ranked_witnesses"] = warm.ranked_witnesses;
  world.reset();
  std::remove(store_path.c_str());
  return result;
}

}  // namespace perfbench

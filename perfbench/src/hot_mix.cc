// hot-mix: a few closed-loop clients repeat a small set of query classes
// (as renamed, isomorphic variants) through a two-shard ShardedService whose
// shards and runtime share one SourceOperationCache. One query in four is a
// ranked session on the class's home shard; the rest are plan-mode sessions
// with a fixed plan budget. Caches are filled before timing, so this is the
// read path of the reformulation and source-operation caches.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "cluster/sharded_service.h"
#include "cluster/source_cache.h"
#include "datalog/canonicalize.h"
#include "datalog/containment.h"
#include "runtime/clock.h"
#include "sessions.h"

namespace perfbench {

namespace pl = planorder;

namespace {

constexpr int kBucketSize = 6;
constexpr int kNumAnswers = 400;
constexpr int kMaxPlans = 8;
constexpr size_t kRankedK = 10;
constexpr int kVariants = 4;
constexpr int kShards = 2;
// Fixed domain statistics (see cold_mediate.cc); --seed varies the variable
// names, the runtime's draws and the ranked tuple weights.
constexpr uint64_t kDomainSeed = 104729;

struct QueryClass {
  std::string name;
  int from, to;
  std::vector<int> head;
  bool ranked;
};

// Six plan-mode classes and two ranked ones: each client round issues all
// eight, so one query in four is ranked.
const std::vector<QueryClass>& Classes() {
  static const std::vector<QueryClass> classes = {
      {"P0", 0, 3, {0, 3}, false},    {"P1", 0, 3, {3, 0}, false},
      {"P2", 0, 3, {0, 1, 2, 3}, false}, {"R0", 1, 3, {1, 3}, true},
      {"P3", 1, 3, {1, 3}, false},    {"P4", 0, 2, {0, 2}, false},
      {"P5", 0, 3, {0}, false},       {"R1", 0, 2, {0, 1, 2}, true},
  };
  return classes;
}

struct HotWorld {
  std::unique_ptr<pl::exec::SyntheticDomain> domain;
  std::unique_ptr<pl::exec::SourceRegistry> registry;
  pl::runtime::VirtualClock clock;
  std::unique_ptr<pl::cluster::SourceOperationCache> cache;
  std::unique_ptr<TimingSourceCache> timing_cache;
  std::unique_ptr<pl::runtime::SourceRuntime> runtime;
  std::unique_ptr<TimingExecutor> timing;
  std::unique_ptr<pl::cluster::ShardedService> service;
  // [class][variant] queries, and each class's canonical form.
  std::vector<std::vector<pl::datalog::ConjunctiveQuery>> queries;
  std::vector<pl::datalog::CanonicalQuery> canonical;
  uint64_t weight_seed = 1;
};

struct Outputs {
  OutputBook book;
  std::map<size_t, PlanRecord> plan_first;
  std::map<size_t, std::vector<pl::anyk::RankedAnswer>> ranked_first;
};

// Two clients, leaving a hardware thread for the runtime's pool thread.
int Clients(const Options& options) {
  return std::min(2, std::max(1, options.nproc - 1));
}

std::unique_ptr<HotWorld> SetUp(const Options& options) {
  auto world = std::make_unique<HotWorld>();
  pl::stats::WorkloadOptions wopts;
  wopts.query_length = 3;
  wopts.bucket_size = kBucketSize;
  wopts.overlap_rate = 0.4;
  wopts.regions_per_bucket = 64;
  wopts.seed = kDomainSeed;
  auto domain = pl::exec::BuildSyntheticDomain(wopts, kNumAnswers);
  if (!domain.ok()) {
    std::fprintf(stderr, "domain: %s\n", domain.status().ToString().c_str());
    std::abort();
  }
  world->domain = std::move(*domain);
  world->registry = MakeRegistry(*world->domain);
  pl::cluster::SourceCacheOptions cache_options;
  cache_options.capacity_bytes = int64_t{256} << 20;  // holds the working set
  world->cache =
      std::make_unique<pl::cluster::SourceOperationCache>(cache_options);
  pl::runtime::RuntimeOptions ropts =
      MediatorRuntime(options.seed, &world->clock);
  ropts.source_cache = world->cache.get();
  if (options.trace) {
    world->timing_cache =
        std::make_unique<TimingSourceCache>(world->cache.get());
    ropts.source_cache = world->timing_cache.get();
  }
  world->runtime = std::make_unique<pl::runtime::SourceRuntime>(
      world->registry.get(), ropts);
  pl::exec::PlanExecutor* executor = world->runtime.get();
  if (options.trace) {
    world->timing = std::make_unique<TimingExecutor>(executor);
    executor = world->timing.get();
  }
  pl::cluster::ClusterOptions copts;
  copts.num_shards = kShards;
  copts.source_cache = world->cache.get();
  world->service = std::make_unique<pl::cluster::ShardedService>(
      &world->domain->catalog, &world->domain->source_facts, copts, executor);
  for (const QueryClass& c : Classes()) {
    std::vector<pl::datalog::ConjunctiveQuery> variants;
    for (int v = 0; v < kVariants; ++v) {
      const int name = int(options.seed % 1000) * kVariants + v + 1;
      variants.push_back(
          ParseQuery(ChainQueryText(c.from, c.to, c.head, "", name)));
    }
    world->canonical.push_back(pl::datalog::CanonicalizeQuery(variants[0]));
    world->queries.push_back(std::move(variants));
  }
  world->weight_seed = options.seed;
  return world;
}

/// Issues one query of class `c` (variant `v`) and notes its outputs.
void Issue(HotWorld& world, size_t c, int v, Tally& tally, Outputs& outputs) {
  const QueryClass& cls = Classes()[c];
  const pl::datalog::ConjunctiveQuery& query = world.queries[c][size_t(v)];
  QueryScope scope;
  ++tally.attempted;
  bool hit = true;
  pl::Status status;
  if (cls.ranked) {
    pl::anyk::RankedAnswerStream::Options ropts;
    ropts.max_plans = 1 << 20;
    ropts.weights.seed = world.weight_seed;
    std::vector<pl::anyk::RankedAnswer> answers;
    pl::service::QueryService& shard =
        world.service->shard(world.service->ShardFor(query));
    status = DriveRankedSession(
        [&] { return shard.OpenRankedSession(query, ropts); }, kRankedK, tally,
        answers);
    if (status.ok() && outputs.book.Note(cls.name, Digest(answers))) {
      outputs.ranked_first[c] = std::move(answers);
    }
  } else {
    pl::exec::Mediator::RunLimits limits;
    limits.max_plans = kMaxPlans;
    PlanRecord record;
    status = DrivePlanSession(
        [&] { return world.service->OpenSession(query, limits); }, tally,
        record, &hit);
    if (status.ok() && outputs.book.Note(cls.name, Digest(record))) {
      outputs.plan_first[c] = std::move(record);
    }
  }
  if (!status.ok()) {
    ++tally.failed;
    return;
  }
  if (!Tracer::Get().enabled()) return;
  // The service canonicalizes and verifies hits internally; time the same
  // public functions on the same inputs.
  pl::datalog::CanonicalQuery canonical;
  {
    ScopedSpan span("datalog.canonicalize");
    canonical = pl::datalog::CanonicalizeQuery(query);
  }
  if (!hit) return;
  ScopedSpan span("datalog.verify");
  if (!pl::datalog::AreEquivalent(world.canonical[c].query, canonical.query)) {
    outputs.book.AddError("class " + cls.name + " variant not equivalent");
  }
}

void Round(HotWorld& world, int client, int64_t round, Tally& tally,
           Outputs& outputs) {
  const size_t n = Classes().size();
  for (size_t i = 0; i < n; ++i) {
    const size_t c = (i + size_t(client) * 2) % n;
    const int variant = int((round + int64_t(i) + client) % kVariants);
    Issue(world, c, variant, tally, outputs);
  }
}

}  // namespace

WorkloadResult RunHotMix(const Options& options) {
  WorkloadResult result;
  const int clients = Clients(options);
  std::unique_ptr<HotWorld> world;
  std::unique_ptr<Outputs> outputs;
  Tally warm;
  // Set-up: build domain, runtime, cache and cluster, then one round per
  // client in turn, which fills the reformulation and source-operation
  // caches before anything is timed.
  for (int s = 0; s < 3; ++s) {
    const double start = CpuMs();
    world.reset();
    world = SetUp(options);
    outputs = std::make_unique<Outputs>();
    warm = Tally();
    for (int client = 0; client < clients; ++client) {
      Round(*world, client, 0, warm, *outputs);
    }
    result.setup_s.push_back((CpuMs() - start) / 1000.0);
  }
  auto round = [&](int client, int64_t r, Tally& tally) {
    Round(*world, client, r + 1, tally, *outputs);
  };
  // Two ranked queries per client round: 25 rounds each give 100 samples.
  const int64_t min_rounds = (100 + 2 * clients - 1) / (2 * clients);
  const double phase_seconds = PhaseSeconds(options);
  result.untraced = RunPhase(clients, phase_seconds, min_rounds, round);
  if (options.trace) {
    const auto before = world->service->MergedMetrics();
    const auto shards_before = world->service->PerShardMetrics();
    const auto cache_before = world->cache->stats();
    Tracer::Get().set_enabled(true);
    result.traced = RunPhase(clients, phase_seconds, min_rounds, round);
    Tracer::Get().set_enabled(false);
    result.traced.spans = Tracer::Get().Take();
    const auto after = world->service->MergedMetrics();
    const auto shards_after = world->service->PerShardMetrics();
    const auto cache_after = world->cache->stats();
    const double hits = double(after.cache.hits - before.cache.hits);
    const double misses = double(after.cache.misses - before.cache.misses);
    result.layer["service.reformulation_hit_ratio"] =
        Ratio(hits, hits + misses);
    const double src_hits = double(cache_after.hits - cache_before.hits);
    const double src_misses = double(cache_after.misses - cache_before.misses);
    result.layer["cluster.source_cache_hit_ratio"] =
        Ratio(src_hits, src_hits + src_misses);
    double max_done = 0.0, sum_done = 0.0;
    for (size_t s = 0; s < shards_after.size(); ++s) {
      const double done = double(shards_after[s].sessions_completed -
                                 shards_before[s].sessions_completed);
      max_done = std::max(max_done, done);
      sum_done += done;
    }
    result.layer["cluster.shard_skew"] =
        Ratio(max_done, sum_done / double(shards_after.size()));
  }

  // Checks, outside every timed region.
  if (options.inject == "ranked-order") {
    for (auto& [c, answers] : outputs->ranked_first) {
      for (size_t i = 0; i + 1 < answers.size(); ++i) {
        if (answers[i].weight > answers[i + 1].weight) {
          std::swap(answers[i], answers[i + 1]);
          break;
        }
      }
      break;
    }
  }
  result.errors = outputs->book.Errors();
  pl::anyk::WeightOptions weights;
  weights.seed = world->weight_seed;
  for (const auto& [c, record] : outputs->plan_first) {
    auto truth = GroundTruth(world->queries[c][0], world->domain->schema_facts);
    const std::string error = truth.ok() ? CheckPlanRecord(record, *truth)
                                         : truth.status().ToString();
    if (!error.empty()) {
      result.errors.push_back(Classes()[c].name + ": " + error);
    }
  }
  for (const auto& [c, answers] : outputs->ranked_first) {
    auto oracle = RankedOracle(world->queries[c][0], world->domain->catalog,
                               world->domain->source_facts, weights);
    const std::string error = oracle.ok()
                                  ? CheckRanked(answers, *oracle, kRankedK)
                                  : oracle.status().ToString();
    if (!error.empty()) {
      result.errors.push_back(Classes()[c].name + ": " + error);
    }
  }
  if (outputs->plan_first.size() + outputs->ranked_first.size() !=
      Classes().size()) {
    result.errors.push_back("set-up round left classes unchecked");
  }
  result.counts["round.queries"] = warm.queries;
  result.counts["round.plans"] = warm.plans;
  result.counts["round.answers"] = warm.answers;
  result.counts["round.sound_steps"] = warm.sound_steps;
  result.counts["round.source_calls"] = warm.source_calls;
  result.counts["round.tuples_shipped"] = warm.tuples_shipped;
  result.counts["round.ranked_witnesses"] = warm.ranked_witnesses;
  return result;
}

}  // namespace perfbench

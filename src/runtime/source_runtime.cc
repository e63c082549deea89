#include "runtime/source_runtime.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/dependent_join.h"

namespace planorder::runtime {

using datalog::Term;
using Rows = std::vector<std::vector<Term>>;
using Batch = std::vector<std::map<int, Term>>;

namespace {

struct PartitionResult {
  StatusOr<Rows> rows = Status(StatusCode::kInternal, "partition not executed");
  double simulated_ms = 0.0;
  exec::RuntimeAccounting accounting;
};

/// Fetches the non-empty `batch` split into at most `max_partitions`
/// contiguous chunks run concurrently on `pool`, merging chunk results in
/// chunk order with first-occurrence dedup (the serial FetchBatch row
/// order). Adds the slowest partition's simulated time to `*elapsed_ms`,
/// every partition's accounting to `*accounting`, and sets `*calls` to the
/// number of partitions.
StatusOr<Rows> FetchPartitioned(RemoteSource& source, const Batch& batch,
                                ThreadPool& pool, int max_partitions,
                                const RetryPolicy& retry, double* elapsed_ms,
                                int64_t* calls,
                                exec::RuntimeAccounting* accounting) {
  int partitions = std::min({max_partitions, pool.num_threads(),
                             static_cast<int>(batch.size())});
  // Ceiling-divide can leave trailing chunks empty (e.g. 5 items over 4
  // partitions -> chunks of 2 fill after 3); recompute so every chunk is
  // non-empty and in range.
  const size_t chunk =
      (batch.size() + size_t(partitions) - 1) / size_t(partitions);
  partitions = static_cast<int>((batch.size() + chunk - 1) / chunk);
  *calls = partitions;
  if (partitions == 1) {
    return source.FetchBatch(batch, retry, elapsed_ms, accounting);
  }

  std::vector<PartitionResult> results(static_cast<size_t>(partitions));
  {
    TaskGroup group(&pool);
    for (int p = 0; p < partitions; ++p) {
      const size_t lo = size_t(p) * chunk;
      const size_t hi = std::min(batch.size(), lo + chunk);
      group.Submit([&source, &batch, &retry, &results, p, lo, hi] {
        Batch slice(batch.begin() + long(lo), batch.begin() + long(hi));
        PartitionResult& result = results[size_t(p)];
        result.rows = source.FetchBatch(slice, retry, &result.simulated_ms,
                                        &result.accounting);
      });
    }
    group.Wait();
  }

  // Concurrent partitions overlap in (simulated) time: the call's elapsed
  // time is the slowest partition, not the sum.
  double slowest = 0.0;
  for (const PartitionResult& result : results) {
    slowest = std::max(slowest, result.simulated_ms);
    accounting->Merge(result.accounting);
  }
  *elapsed_ms += slowest;
  // First failing partition (in deterministic chunk order) fails the call.
  for (const PartitionResult& result : results) {
    if (!result.rows.ok()) return result.rows.status();
  }
  Rows merged;
  // detlint: order-insensitive(membership-only dedup; merged keeps chunk order)
  std::unordered_set<std::vector<Term>, datalog::TermVectorHash> seen;
  for (PartitionResult& result : results) {
    for (std::vector<Term>& row : *result.rows) {
      if (seen.insert(row).second) merged.push_back(std::move(row));
    }
  }
  return merged;
}

}  // namespace

SourceRuntime::SourceRuntime(exec::SourceRegistry* sources,
                             const RuntimeOptions& options)
    : options_(options),
      pool_(options.num_threads),
      remotes_(sources, options.seed) {
  remotes_.ConfigureAll(options_.default_model);
  remotes_.set_time_dilation(options_.time_dilation);
  if (options_.clock != nullptr) remotes_.set_clock(options_.clock);
  if (options_.source_cache != nullptr) {
    remotes_.set_result_cache(options_.source_cache);
  }
  if (options_.trace_sink != nullptr) {
    remotes_.set_trace_sink(options_.trace_sink);
  }
}

StatusOr<exec::PlanExecution> SourceRuntime::ExecutePlan(
    const datalog::ConjunctiveQuery& rewriting) {
  // Accounting is collected plan-locally (threaded down through every
  // FetchBatch of this execution), never by diffing the shared registry
  // totals: concurrent plans from other sessions interleave with this one,
  // so registry deltas would attribute their work to us. Calls and shipping
  // count every atom whose fetch completed, including the one that blew the
  // budget.
  exec::PlanExecution exec;
  const int max_partitions = options_.max_partitions_per_call > 0
                                 ? options_.max_partitions_per_call
                                 : pool_.num_threads();
  double elapsed_ms = 0.0;  // simulated critical path across the plan
  auto tuples = exec::ExecutePlanDependent(
      rewriting,
      [this](const std::string& predicate) -> const exec::AccessibleSource* {
        const RemoteSource* remote = remotes_.Find(predicate);
        return remote == nullptr ? nullptr : &remote->underlying();
      },
      [&](const std::string& predicate, const Batch& batch,
          exec::AtomAccess& access) -> StatusOr<Rows> {
        PLANORDER_ASSIGN_OR_RETURN(
            Rows rows, FetchPartitioned(*remotes_.Find(predicate), batch,
                                        pool_, max_partitions, options_.retry,
                                        &elapsed_ms, &access.calls,
                                        &exec.runtime));
        access.tuples_shipped = static_cast<int64_t>(rows.size());
        exec.source_calls += access.calls;
        exec.tuples_shipped += access.tuples_shipped;
        if (options_.plan_budget_ms > 0.0 &&
            elapsed_ms > options_.plan_budget_ms) {
          return DeadlineExceededError(
              "plan budget of " + std::to_string(options_.plan_budget_ms) +
              "ms exhausted at '" + predicate + "'");
        }
        return rows;
      });
  if (!tuples.ok()) {
    const StatusCode code = tuples.status().code();
    if (code == StatusCode::kUnavailable ||
        code == StatusCode::kDeadlineExceeded) {
      // Graceful degradation: the plan is lost to its sources, the run is
      // not. The mediator discards it like an unsound plan.
      exec.failed = true;
      exec.failure_reason = tuples.status().ToString();
      return exec;
    }
    return tuples.status();
  }
  exec.tuples = std::move(*tuples);
  return exec;
}

}  // namespace planorder::runtime

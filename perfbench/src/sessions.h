// Client-side helpers shared by the mediator workloads: the timing wrappers
// the traced mode installs at layer boundaries, the plan-mode and ranked
// session runners, and the chain-query generators.
#ifndef PERFBENCH_SESSIONS_H_
#define PERFBENCH_SESSIONS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/source_cache.h"
#include "exec/mediator.h"
#include "exec/source_access.h"
#include "exec/synthetic_domain.h"
#include "runtime/source_runtime.h"
#include "runtime/source_result_cache.h"
#include "service/session.h"
#include "workloads.h"

namespace perfbench {

/// Records an "exec.execute" span around every plan execution.
class TimingExecutor : public planorder::exec::PlanExecutor {
 public:
  explicit TimingExecutor(planorder::exec::PlanExecutor* inner)
      : inner_(inner) {}
  planorder::StatusOr<planorder::exec::PlanExecution> ExecutePlan(
      const planorder::datalog::ConjunctiveQuery& rewriting) override {
    ScopedSpan span("exec.execute");
    return inner_->ExecutePlan(rewriting);
  }

 private:
  planorder::exec::PlanExecutor* inner_;
};

/// Records a "cluster.acquire" span around every source-cache lookup,
/// single-flight waits included.
class TimingSourceCache : public planorder::runtime::SourceResultCache {
 public:
  explicit TimingSourceCache(planorder::cluster::SourceOperationCache* inner)
      : inner_(inner) {}
  std::optional<std::vector<Tuple>> Acquire(
      const std::string& source_name,
      const std::vector<std::map<int, planorder::datalog::Term>>& batch,
      bool* leader) override {
    ScopedSpan span("cluster.acquire");
    return inner_->Acquire(source_name, batch, leader);
  }
  void Publish(
      const std::string& source_name,
      const std::vector<std::map<int, planorder::datalog::Term>>& batch,
      const std::vector<Tuple>& rows) override {
    inner_->Publish(source_name, batch, rows);
  }
  void Abort(const std::string& source_name,
             const std::vector<std::map<int, planorder::datalog::Term>>& batch)
      override {
    inner_->Abort(source_name, batch);
  }

 private:
  planorder::cluster::SourceOperationCache* inner_;
};

using SessionPtr = std::unique_ptr<planorder::service::Session>;
using Opener = std::function<planorder::StatusOr<SessionPtr>()>;

/// Drives one plan-mode session from issue to Finish, adding its samples and
/// counters to `tally` and its outputs to `record`. Returns the session's
/// cache_hit() through `cache_hit`. A non-OK status = a failed operation.
planorder::Status DrivePlanSession(const Opener& open, Tally& tally,
                                   PlanRecord& record, bool* cache_hit);

/// Drives one ranked session to its k-th answer (or exhaustion) and Finish.
planorder::Status DriveRankedSession(
    const Opener& open, size_t k, Tally& tally,
    std::vector<planorder::anyk::RankedAnswer>& answers);

/// A chain sub-query over p{from}..p{to-1} of the synthetic domain.
/// `head` lists the chain positions (from..to) returned; `constant`, when
/// non-empty, replaces variable X{from} throughout.
std::string ChainQueryText(int from, int to, const std::vector<int>& head,
                           const std::string& constant, int variant);

/// One binding-pattern source per catalog source, loaded with the domain's
/// source facts.
std::unique_ptr<planorder::exec::SourceRegistry> MakeRegistry(
    const planorder::exec::SyntheticDomain& domain);

/// The resilient runtime both mediator workloads execute plans through:
/// simulated latency is charged to `clock` and never slept
/// (time_dilation 0), and sources fail transiently at a low seeded rate
/// that the retry policy absorbs. The pool has one thread: the runtime
/// splits a batch over the pool only when it has more, so every fetch runs
/// on the calling client thread and a query's whole cost lands on that
/// client's CPU clock.
planorder::runtime::RuntimeOptions MediatorRuntime(
    uint64_t seed, planorder::runtime::Clock* clock);

/// Parses a query (aborts on malformed benchmark input).
planorder::datalog::ConjunctiveQuery ParseQuery(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_SESSIONS_H_

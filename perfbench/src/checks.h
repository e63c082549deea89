// Correctness checks of the benchmark's outputs. Each is computed apart from
// the code under test (ground truth from the domain's schema facts, the
// brute-force ranked oracle, a fresh utility model) and runs after the timed
// phases. A repeated query is checked by digest against the first output of
// its kind, which is checked in full.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "anyk/weights.h"
#include "base/status.h"
#include "core/orderer.h"
#include "datalog/conjunctive_query.h"
#include "datalog/evaluator.h"
#include "datalog/source.h"
#include "stats/workload.h"

namespace perfbench {

using Tuple = std::vector<planorder::datalog::Term>;

struct StepRecord {
  std::vector<int> plan;
  double utility = 0.0;
  bool sound = false;
  size_t answers_from_plan = 0;
  size_t new_answers = 0;
  size_t total_answers = 0;
};

/// The outputs of one plan-mode session.
struct PlanRecord {
  std::vector<StepRecord> steps;
  std::vector<Tuple> answers;  // Session::Answers(), unspecified order
  size_t reported_total = 0;   // MediatorResult::total_answers
};

uint64_t Digest(const PlanRecord& record);
uint64_t Digest(const std::vector<planorder::anyk::RankedAnswer>& answers);
uint64_t Digest(const std::vector<planorder::core::OrderedPlan>& emissions);

/// Plan mode: no plan twice, utilities non-increasing (coverage), every
/// answer a ground-truth answer, and the answer set agrees with the counts
/// the mediator reported. Returns "" when the record passes.
std::string CheckPlanRecord(const PlanRecord& record,
                            const std::set<Tuple>& truth);

/// Ranked mode: weights non-increasing, no duplicate tuple, and the stream
/// equals the first min(k, |oracle|) answers of the oracle.
std::string CheckRanked(
    const std::vector<planorder::anyk::RankedAnswer>& got,
    const std::vector<planorder::anyk::RankedAnswer>& oracle, size_t k);

/// Drains: the emissions are a permutation of the full plan space; when
/// `verify_first` > 0, a fresh coverage model confirms that each of the
/// first `verify_first` reported utilities is the plan's conditional
/// utility and the maximum over the plans not yet emitted.
std::string CheckDrain(const std::vector<planorder::core::OrderedPlan>& emitted,
                       const planorder::stats::Workload& workload,
                       int verify_first);

/// The query's answers over the ground-truth schema facts.
planorder::StatusOr<std::set<Tuple>> GroundTruth(
    const planorder::datalog::ConjunctiveQuery& query,
    const planorder::datalog::Database& schema_facts);

/// anyk::BruteForceRankedUnion over every sound, executable rewriting.
planorder::StatusOr<std::vector<planorder::anyk::RankedAnswer>> RankedOracle(
    const planorder::datalog::ConjunctiveQuery& query,
    const planorder::datalog::Catalog& catalog,
    const planorder::datalog::Database& source_facts,
    const planorder::anyk::WeightOptions& weights);

/// Thread-safe first-output registry: the first digest seen under a key is
/// the reference; every later output under that key must repeat it.
class OutputBook {
 public:
  /// Returns true when `key` is new (the caller keeps the full output for
  /// the full check); otherwise compares `digest` with the reference.
  bool Note(const std::string& key, uint64_t digest);
  std::vector<std::string> Errors() const;
  void AddError(const std::string& error);

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> first_;
  std::vector<std::string> errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

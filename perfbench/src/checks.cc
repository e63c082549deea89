#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "anyk/brute_force.h"
#include "core/plan_space.h"
#include "reformulation/executable_order.h"
#include "reformulation/rewriting.h"
#include "utility/execution_context.h"
#include "utility/measures.h"

namespace perfbench {

namespace pl = planorder;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t& h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void MixInt(uint64_t& h, int64_t v) { Mix(h, &v, sizeof v); }

void MixDouble(uint64_t& h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Mix(h, &bits, sizeof bits);
}

uint64_t TupleHash(const Tuple& tuple) {
  uint64_t h = kFnvOffset;
  for (const pl::datalog::Term& term : tuple) {
    const std::string text = term.ToString();
    Mix(h, text.data(), text.size());
    MixInt(h, -1);
  }
  return h;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string PlanText(const std::vector<int>& plan) {
  std::string text = "(";
  for (size_t i = 0; i < plan.size(); ++i) {
    text += (i ? "," : "") + std::to_string(plan[i]);
  }
  return text + ")";
}

}  // namespace

uint64_t Digest(const PlanRecord& record) {
  uint64_t h = kFnvOffset;
  for (const StepRecord& step : record.steps) {
    for (int s : step.plan) MixInt(h, s);
    MixDouble(h, step.utility);
    MixInt(h, step.sound);
    MixInt(h, int64_t(step.answers_from_plan));
    MixInt(h, int64_t(step.new_answers));
  }
  // The answer set in unspecified order: an order-free sum of tuple hashes.
  uint64_t set_hash = 0;
  for (const Tuple& tuple : record.answers) set_hash += TupleHash(tuple);
  MixInt(h, int64_t(set_hash));
  MixInt(h, int64_t(record.answers.size()));
  MixInt(h, int64_t(record.reported_total));
  return h;
}

uint64_t Digest(const std::vector<pl::anyk::RankedAnswer>& answers) {
  uint64_t h = kFnvOffset;
  for (const pl::anyk::RankedAnswer& answer : answers) {
    MixInt(h, int64_t(TupleHash(answer.tuple)));
    MixDouble(h, answer.weight);
  }
  return h;
}

uint64_t Digest(const std::vector<pl::core::OrderedPlan>& emissions) {
  uint64_t h = kFnvOffset;
  for (const pl::core::OrderedPlan& e : emissions) {
    for (int s : e.plan) MixInt(h, s);
    MixDouble(h, e.utility);
  }
  return h;
}

std::string CheckPlanRecord(const PlanRecord& record,
                            const std::set<Tuple>& truth) {
  std::set<std::vector<int>> seen_plans;
  size_t new_sum = 0;
  for (size_t i = 0; i < record.steps.size(); ++i) {
    const StepRecord& step = record.steps[i];
    if (!seen_plans.insert(step.plan).second) {
      return "plan " + PlanText(step.plan) + " emitted twice";
    }
    if (i > 0 && step.utility > record.steps[i - 1].utility &&
        !Close(step.utility, record.steps[i - 1].utility)) {
      return "coverage utility rose at step " + std::to_string(i);
    }
    new_sum += step.new_answers;
    if (step.total_answers != new_sum) {
      return "step " + std::to_string(i) + " reports " +
             std::to_string(step.total_answers) + " answers, steps sum to " +
             std::to_string(new_sum);
    }
  }
  std::set<Tuple> distinct(record.answers.begin(), record.answers.end());
  if (distinct.size() != record.answers.size()) return "duplicate answer";
  if (distinct.size() != record.reported_total || new_sum != distinct.size()) {
    return "answer set holds " + std::to_string(distinct.size()) +
           " tuples, mediator reported " +
           std::to_string(record.reported_total);
  }
  for (const Tuple& tuple : distinct) {
    if (truth.count(tuple) == 0) return "answer not in the ground truth";
  }
  return "";
}

std::string CheckRanked(const std::vector<pl::anyk::RankedAnswer>& got,
                        const std::vector<pl::anyk::RankedAnswer>& oracle,
                        size_t k) {
  std::set<Tuple> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i].weight > got[i - 1].weight) {
      return "ranked weight rose at answer " + std::to_string(i);
    }
    if (!seen.insert(got[i].tuple).second) return "ranked answer repeated";
  }
  const size_t expect = std::min(k, oracle.size());
  if (got.size() != expect) {
    return "ranked stream gave " + std::to_string(got.size()) +
           " answers, oracle prefix has " + std::to_string(expect);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == oracle[i])) {
      return "ranked answer " + std::to_string(i) + " differs from the oracle";
    }
  }
  return "";
}

std::string CheckDrain(const std::vector<pl::core::OrderedPlan>& emitted,
                       const pl::stats::Workload& workload, int verify_first) {
  const pl::core::PlanSpace space = pl::core::PlanSpace::FullSpace(workload);
  std::set<std::vector<int>> all;
  for (const auto& plan : pl::core::EnumeratePlans(space)) all.insert(plan);
  std::set<std::vector<int>> seen;
  for (const pl::core::OrderedPlan& e : emitted) {
    if (all.count(e.plan) == 0) return "plan outside the space";
    if (!seen.insert(e.plan).second) {
      return "plan " + PlanText(e.plan) + " emitted twice";
    }
  }
  if (seen.size() != all.size()) {
    return "drain emitted " + std::to_string(seen.size()) + " of " +
           std::to_string(all.size()) + " plans";
  }
  if (verify_first <= 0) return "";
  auto model =
      pl::utility::MakeMeasure(pl::utility::MeasureKind::kCoverage, &workload);
  if (!model.ok()) return model.status().ToString();
  pl::utility::ExecutionContext ctx(&workload);
  std::set<std::vector<int>> remaining = all;
  const size_t n = std::min(size_t(verify_first), emitted.size());
  for (size_t i = 0; i < n; ++i) {
    double best = -1.0;
    for (const auto& plan : remaining) {
      best = std::max(best, (*model)->EvaluateConcrete(plan, ctx));
    }
    const double actual = (*model)->EvaluateConcrete(emitted[i].plan, ctx);
    if (!Close(emitted[i].utility, actual)) {
      return "emission " + std::to_string(i) + " reports utility " +
             std::to_string(emitted[i].utility) + ", model gives " +
             std::to_string(actual);
    }
    if (!Close(actual, best)) {
      return "emission " + std::to_string(i) +
             " is not the best remaining plan";
    }
    ctx.MarkExecuted(emitted[i].plan);
    remaining.erase(emitted[i].plan);
  }
  return "";
}

pl::StatusOr<std::set<Tuple>> GroundTruth(
    const pl::datalog::ConjunctiveQuery& query,
    const pl::datalog::Database& schema_facts) {
  PLANORDER_ASSIGN_OR_RETURN(auto rows,
                             pl::datalog::EvaluateQuery(query, schema_facts));
  return std::set<Tuple>(rows.begin(), rows.end());
}

pl::StatusOr<std::vector<pl::anyk::RankedAnswer>> RankedOracle(
    const pl::datalog::ConjunctiveQuery& query,
    const pl::datalog::Catalog& catalog,
    const pl::datalog::Database& source_facts,
    const pl::anyk::WeightOptions& weights) {
  PLANORDER_ASSIGN_OR_RETURN(auto plans,
                             pl::reformulation::EnumerateSoundPlans(query,
                                                                    catalog));
  std::vector<pl::datalog::ConjunctiveQuery> rewritings;
  for (const pl::reformulation::QueryPlan& plan : plans) {
    auto ordered = pl::reformulation::FindExecutableOrder(plan, catalog);
    if (ordered.ok()) rewritings.push_back(plan.rewriting);
  }
  return pl::anyk::BruteForceRankedUnion(rewritings, source_facts, weights);
}

bool OutputBook::Note(const std::string& key, uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = first_.emplace(key, digest);
  if (!inserted && it->second != digest) {
    errors_.push_back("output of " + key + " differs from its first run");
  }
  return inserted;
}

std::vector<std::string> OutputBook::Errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

void OutputBook::AddError(const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  errors_.push_back(error);
}

}  // namespace perfbench

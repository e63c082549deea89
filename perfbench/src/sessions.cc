#include "sessions.h"

#include <cstdlib>
#include <iostream>

#include "datalog/parser.h"

namespace perfbench {

namespace pl = planorder;

pl::Status DrivePlanSession(const Opener& open, Tally& tally,
                            PlanRecord& record, bool* cache_hit) {
  const double issued = CpuMs();
  SessionPtr session;
  {
    ScopedSpan span("service.open");
    PLANORDER_ASSIGN_OR_RETURN(session, open());
  }
  *cache_hit = session->cache_hit();
  bool answered = false;
  while (true) {
    pl::StatusOr<pl::exec::MediatorStep> step = pl::NotFoundError("");
    {
      ScopedSpan span("exec.step");
      step = session->NextStep();
    }
    if (!step.ok()) {
      if (step.status().code() == pl::StatusCode::kNotFound) break;
      return step.status();
    }
    if (step->failed) return pl::UnavailableError(step->failure_reason);
    if (!answered && step->new_answers > 0) {
      answered = true;
      tally.first_result_ms.push_back(CpuMs() - issued);
    }
    record.steps.push_back({step->plan, step->estimated_utility, step->sound,
                            step->answers_from_plan, step->new_answers,
                            step->total_answers});
  }
  record.answers = session->Answers();
  pl::exec::MediatorResult result;
  {
    ScopedSpan span("service.finish");
    result = session->Finish();
  }
  tally.query_ms.push_back(CpuMs() - issued);
  record.reported_total = result.total_answers;

  ++tally.queries;
  ++tally.plan_queries;
  tally.plans += int64_t(result.steps.size());
  tally.steps += int64_t(result.steps.size());
  tally.answers += int64_t(result.total_answers);
  for (const pl::exec::MediatorStep& step : result.steps) {
    if (step.sound) ++tally.sound_steps;
    tally.plan_answers += int64_t(step.answers_from_plan);
  }
  tally.source_calls += result.source_calls;
  tally.tuples_shipped += result.tuples_shipped;
  tally.retries += result.runtime.retries;
  tally.source_wait_ms += result.runtime.latency_ms_total;
  return pl::OkStatus();
}

pl::Status DriveRankedSession(const Opener& open, size_t k, Tally& tally,
                              std::vector<pl::anyk::RankedAnswer>& answers) {
  const double issued = CpuMs();
  SessionPtr session;
  {
    ScopedSpan span("anyk.open");
    PLANORDER_ASSIGN_OR_RETURN(session, open());
  }
  while (answers.size() < k) {
    pl::StatusOr<pl::anyk::RankedAnswer> next = pl::NotFoundError("");
    {
      ScopedSpan span("anyk.next");
      next = session->NextRankedAnswer();
    }
    if (!next.ok()) {
      if (next.status().code() == pl::StatusCode::kNotFound) break;
      return next.status();
    }
    answers.push_back(*std::move(next));
  }
  tally.ranked_first_k_ms.push_back(CpuMs() - issued);
  const pl::anyk::RankedAnswerStream::Stats stats = *session->ranked_stats();
  {
    ScopedSpan span("service.finish");
    (void)session->Finish();
  }
  tally.query_ms.push_back(CpuMs() - issued);
  ++tally.queries;
  ++tally.ranked_sessions;
  tally.plans += stats.plans_considered;
  tally.ranked_plans += stats.plans_considered;
  tally.ranked_witnesses += int64_t(stats.witnesses_expanded);
  tally.ranked_answers += int64_t(answers.size());
  tally.answers += int64_t(answers.size());
  return pl::OkStatus();
}

std::string ChainQueryText(int from, int to, const std::vector<int>& head,
                           const std::string& constant, int variant) {
  const std::string suffix = variant > 0 ? "_v" + std::to_string(variant) : "";
  auto term = [&](int position) {
    if (!constant.empty() && position == from) return constant;
    return "X" + std::to_string(position) + suffix;
  };
  std::string text = "q(";
  for (size_t i = 0; i < head.size(); ++i) {
    text += (i ? "," : "") + term(head[i]);
  }
  text += ") :- ";
  for (int b = from; b < to; ++b) {
    text += (b > from ? ", " : "") + std::string("p") + std::to_string(b) +
            "(" + term(b) + "," + term(b + 1) + ")";
  }
  return text + ".";
}

std::unique_ptr<pl::exec::SourceRegistry> MakeRegistry(
    const pl::exec::SyntheticDomain& domain) {
  auto registry = std::make_unique<pl::exec::SourceRegistry>();
  for (pl::datalog::SourceId id = 0; id < domain.catalog.num_sources(); ++id) {
    const std::string& name = domain.catalog.source(id).name;
    auto source = registry->Register(name, 2);
    if (!source.ok()) {
      std::cerr << source.status() << "\n";
      std::abort();
    }
    for (const Tuple& tuple : domain.source_facts.TuplesFor(name)) {
      if (!(*source)->Add(tuple).ok()) std::abort();
    }
  }
  return registry;
}

pl::runtime::RuntimeOptions MediatorRuntime(uint64_t seed,
                                            pl::runtime::Clock* clock) {
  pl::runtime::RuntimeOptions options;
  options.num_threads = 1;
  options.seed = seed;
  options.time_dilation = 0.0;
  options.clock = clock;
  options.default_model.base_latency_ms = 2.0;
  options.default_model.per_binding_latency_ms = 0.05;
  options.default_model.per_tuple_latency_ms = 0.01;
  options.default_model.latency_jitter = 0.25;
  options.default_model.transient_failure_rate = 0.02;
  options.retry.max_attempts = 8;
  return options;
}

pl::datalog::ConjunctiveQuery ParseQuery(const std::string& text) {
  auto parsed = pl::datalog::ParseRule(text);
  if (!parsed.ok()) {
    std::cerr << "bad benchmark query " << text << ": " << parsed.status()
              << "\n";
    std::abort();
  }
  return *std::move(parsed);
}

}  // namespace perfbench

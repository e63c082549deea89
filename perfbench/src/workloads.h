// Shared vocabulary of the benchmark's three workloads: run options, what a
// timed phase gathers, and what a workload hands to the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one recorded output before the checks run
  /// ("drop-answer", "swap-emission" or "ranked-order"); empty = none.
  std::string inject;
  /// Where the traced run writes its spans (TSV); empty = not written.
  std::string trace_out;
  /// Scratch directory for files the workload writes (the plan store).
  std::string work_dir = ".";
  /// Hardware threads; client plus runtime pool threads never exceed it.
  int nproc = 1;
};

/// Everything the clients of one timed phase observed, summed over clients.
/// Latency samples are milliseconds on the client thread's CPU clock.
struct Tally {
  std::vector<double> first_result_ms;   // issue -> first answer-bearing step
                                         // (plan mode) or first plan (drains)
  std::vector<double> query_ms;          // issue -> Finish / end of drain
  std::vector<double> ranked_first_k_ms; // issue -> k-th ranked answer
  int64_t attempted = 0;  // operations issued
  int64_t failed = 0;     // ... of which returned an error
  int64_t queries = 0;    // completed
  int64_t plans = 0;    // orderer emissions consumed, all query kinds
  int64_t answers = 0;  // distinct plan-mode answers + ranked answers

  // Plan-mode sessions (exec + runtime layers).
  int64_t plan_queries = 0;
  int64_t steps = 0;
  int64_t sound_steps = 0;
  int64_t plan_answers = 0;  // answers returned by executed plans
  int64_t source_calls = 0;
  int64_t tuples_shipped = 0;
  int64_t retries = 0;
  double source_wait_ms = 0.0;

  // Ranked sessions (anyk layer).
  int64_t ranked_sessions = 0;
  int64_t ranked_plans = 0;
  int64_t ranked_witnesses = 0;
  int64_t ranked_answers = 0;

  // Drains (core + adaptive layers).
  int64_t core_drains = 0;
  int64_t core_plans = 0;
  int64_t core_evaluations = 0;
  int64_t adaptive_drains = 0;
  int64_t rebuilds = 0;

  void Merge(const Tally& other);
};

/// One whole round of one client: its time on the client's CPU clock, what
/// it completed, and where its latency samples end in that client's tally.
struct RoundInfo {
  int client = 0;
  double cpu_ms = 0.0;
  int64_t queries = 0;
  int64_t plans = 0;
  int64_t answers = 0;
  size_t first_result_end = 0;
  size_t query_end = 0;
  size_t ranked_end = 0;
};

/// One timed phase: per-client tallies and their sum, every round and, when
/// traced, the spans.
struct Phase {
  Tally tally;
  std::vector<Tally> per_client;
  std::vector<RoundInfo> rounds;
  int clients = 1;
  std::vector<Span> spans;
};

struct WorkloadResult {
  std::vector<double> setup_s;  // one entry per set-up performed
  Phase untraced;               // end-to-end figures
  Phase traced;                 // per-layer figures (trace mode only)
  /// Per-layer figures the workload reads off the library after the traced
  /// phase (cache ratios, shard skew, plan-store cost).
  std::map<std::string, double> layer;
  /// Counts that must repeat exactly for a given seed (compare.py checks
  /// them between two sets of runs).
  std::map<std::string, int64_t> counts;
  /// Failed correctness checks; empty = every output checked out.
  std::vector<std::string> errors;
};

/// Runs `round(client, round_index, tally)` on `clients` closed-loop client
/// threads (client 0 on the calling thread) until `seconds` have passed and
/// every client finished at least `min_rounds` whole rounds. Each client
/// issues its next query only after the previous one completed.
Phase RunPhase(int clients, double seconds, int64_t min_rounds,
               const std::function<void(int, int64_t, Tally&)>& round);

WorkloadResult RunColdMediate(const Options& options);
WorkloadResult RunHotMix(const Options& options);
WorkloadResult RunLargeOrder(const Options& options);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Length of each timed phase: a traced run measures untraced for half of
/// the run, then traced for the other half.
inline double PhaseSeconds(const Options& options) {
  return options.trace ? options.seconds / 2 : options.seconds;
}

/// num / den, or 0 when there is no base.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

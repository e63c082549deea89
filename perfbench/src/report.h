// Metrics of a finished workload run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Linear-interpolated percentile `p` (0..100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// End-to-end metrics, from the untraced phase.
Metrics EndToEnd(const WorkloadResult& result);

/// Per-layer metrics, from the traced phase: per-call means of each layer's
/// spans, per-query counters, each layer's self time per query and the
/// tracing overhead against the untraced phase. Writes the spans (the
/// first 200k) as TSV to `trace_out` unless it is empty.
Metrics PerLayer(const WorkloadResult& result, const std::string& trace_out);

/// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

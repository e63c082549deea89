// Timed phases and the metrics derived from them.
#include "report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {

void Tally::Merge(const Tally& o) {
  first_result_ms.insert(first_result_ms.end(), o.first_result_ms.begin(),
                         o.first_result_ms.end());
  query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
  ranked_first_k_ms.insert(ranked_first_k_ms.end(), o.ranked_first_k_ms.begin(),
                           o.ranked_first_k_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  queries += o.queries;
  plans += o.plans;
  answers += o.answers;
  plan_queries += o.plan_queries;
  steps += o.steps;
  sound_steps += o.sound_steps;
  plan_answers += o.plan_answers;
  source_calls += o.source_calls;
  tuples_shipped += o.tuples_shipped;
  retries += o.retries;
  source_wait_ms += o.source_wait_ms;
  ranked_sessions += o.ranked_sessions;
  ranked_plans += o.ranked_plans;
  ranked_witnesses += o.ranked_witnesses;
  ranked_answers += o.ranked_answers;
  core_drains += o.core_drains;
  core_plans += o.core_plans;
  core_evaluations += o.core_evaluations;
  adaptive_drains += o.adaptive_drains;
  rebuilds += o.rebuilds;
}

Phase RunPhase(int clients, double seconds, int64_t min_rounds,
               const std::function<void(int, int64_t, Tally&)>& round) {
  Phase phase;
  phase.clients = clients;
  phase.per_client.resize(static_cast<size_t>(clients));
  std::vector<std::vector<RoundInfo>> rounds(static_cast<size_t>(clients));
  const double end = NowMs() + seconds * 1000.0;
  auto client = [&](int c) {
    Tally& tally = phase.per_client[size_t(c)];
    for (int64_t r = 0; r < min_rounds || NowMs() < end; ++r) {
      RoundInfo info;
      info.client = c;
      const int64_t queries = tally.queries, plans = tally.plans,
                    answers = tally.answers;
      const double round_start = CpuMs();
      round(c, r, tally);
      info.cpu_ms = CpuMs() - round_start;
      info.queries = tally.queries - queries;
      info.plans = tally.plans - plans;
      info.answers = tally.answers - answers;
      info.first_result_end = tally.first_result_ms.size();
      info.query_end = tally.query_ms.size();
      info.ranked_end = tally.ranked_first_k_ms.size();
      rounds[size_t(c)].push_back(info);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    phase.tally.Merge(phase.per_client[size_t(c)]);
    phase.rounds.insert(phase.rounds.end(), rounds[size_t(c)].begin(),
                        rounds[size_t(c)].end());
  }
  return phase;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * double(values.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

namespace {

/// Peak resident memory of this process image (VmHWM; unlike ru_maxrss it
/// does not carry over the high-water mark of the process that exec'd us).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Throughput: clients x the median over rounds of one round's rate, so a
/// stall that hits a few rounds does not move the figure.
double RatePerS(const Phase& phase, int64_t RoundInfo::*count) {
  std::vector<double> rates;
  for (const RoundInfo& r : phase.rounds) {
    if (r.cpu_ms > 0) rates.push_back(double(r.*count) * 1000.0 / r.cpu_ms);
  }
  return double(phase.clients) * Median(std::move(rates));
}

/// Percentile `p` of one latency kind: consecutive whole rounds of a client
/// form blocks of at least kBlockSamples samples; the figure is the median
/// over blocks of each block's percentile.
constexpr size_t kBlockSamples = 30;

double BlockPercentile(const Phase& phase,
                       std::vector<double> Tally::*samples,
                       size_t RoundInfo::*end, double p) {
  std::vector<double> per_block;
  std::vector<size_t> begin(phase.per_client.size(), 0);
  std::vector<size_t> done(phase.per_client.size(), 0);
  auto close_block = [&](int c, size_t upto) {
    const std::vector<double>& all = phase.per_client[size_t(c)].*samples;
    per_block.push_back(Percentile(
        std::vector<double>(all.begin() + long(begin[size_t(c)]),
                            all.begin() + long(upto)),
        p));
    begin[size_t(c)] = upto;
  };
  for (const RoundInfo& r : phase.rounds) {
    if (r.*end - begin[size_t(r.client)] >= kBlockSamples) {
      close_block(r.client, r.*end);
    }
    done[size_t(r.client)] = r.*end;
  }
  // A client whose samples never fill a block contributes them as one
  // block; otherwise the short tail after its last full block is dropped.
  for (size_t c = 0; c < done.size(); ++c) {
    if (begin[c] == 0 && done[c] > 0) close_block(int(c), done[c]);
  }
  return Median(std::move(per_block));
}

/// The median always, the p90 only when the run yielded at least 100
/// samples of that kind.
void AddLatency(Metrics& m, const Phase& phase, const std::string& name,
                std::vector<double> Tally::*samples, size_t RoundInfo::*end) {
  const size_t n = (phase.tally.*samples).size();
  if (n == 0) return;
  m.push_back(
      {name + "_p50_ms", BlockPercentile(phase, samples, end, 50), "ms"});
  if (n >= 100) {
    m.push_back(
        {name + "_p90_ms", BlockPercentile(phase, samples, end, 90), "ms"});
  }
}

double TotalCpuMs(const Phase& phase) {
  double total = 0.0;
  for (const RoundInfo& r : phase.rounds) total += r.cpu_ms;
  return total;
}

/// The span file keeps the first spans only: a traced large-order run
/// records one span per emission, about 90k per second.
constexpr size_t kMaxWrittenSpans = 200000;

struct SpanStats {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

}  // namespace

Metrics EndToEnd(const WorkloadResult& r) {
  const Phase& phase = r.untraced;
  Metrics m;
  m.push_back({"setup_s", Median(r.setup_s), "s"});
  m.push_back({"queries_per_s", RatePerS(phase, &RoundInfo::queries), "1/s"});
  AddLatency(m, phase, "first_result", &Tally::first_result_ms,
             &RoundInfo::first_result_end);
  AddLatency(m, phase, "query", &Tally::query_ms, &RoundInfo::query_end);
  AddLatency(m, phase, "ranked_first_k", &Tally::ranked_first_k_ms,
             &RoundInfo::ranked_end);
  m.push_back({"plans_per_s", RatePerS(phase, &RoundInfo::plans), "1/s"});
  m.push_back({"answers_per_s", RatePerS(phase, &RoundInfo::answers), "1/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

Metrics PerLayer(const WorkloadResult& r, const std::string& trace_out) {
  const Phase& phase = r.traced;
  const Tally& t = phase.tally;
  std::map<int64_t, double> child_ms;
  for (const Span& s : phase.spans) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, SpanStats> by_name;
  std::map<std::string, double> layer_self_ms;
  double shadow_ms = 0.0;
  for (const Span& s : phase.spans) {
    const double dur = s.end_ms - s.start_ms;
    const double self = dur - child_ms[s.id];
    const std::string name = s.name;
    SpanStats& st = by_name[name];
    ++st.count;
    st.total_ms += dur;
    st.self_ms += self;
    const std::string layer = name.substr(0, name.find('.'));
    layer_self_ms[layer] += self;
    // The reformulation stages are re-timed beside the service (shadow
    // calls); they are left out of the traced-vs-untraced comparison.
    if (layer == "datalog" || layer == "reformulation") shadow_ms += dur;
  }
  auto mean_ms = [&](const char* name) {
    const SpanStats& st = by_name[name];
    return Ratio(st.total_ms, double(st.count));
  };
  auto mean_us = [&](const char* name) { return 1000 * mean_ms(name); };
  auto layer = [&](const char* name) {
    auto it = r.layer.find(name);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  auto per = [](auto num, auto den) { return Ratio(double(num), double(den)); };
  const int64_t pq = t.plan_queries;
  const SpanStats& step = by_name["exec.step"];
  Metrics m = {
      {"datalog.canonicalize_us", mean_us("datalog.canonicalize"), "us"},
      {"datalog.verify_us", mean_us("datalog.verify"), "us"},
      {"reformulation.buckets_ms", mean_ms("reformulation.buckets"), "ms"},
      {"reformulation.estimate_ms", mean_ms("reformulation.estimate"), "ms"},
      {"service.open_ms", mean_ms("service.open"), "ms"},
      {"service.finish_us", mean_us("service.finish"), "us"},
      {"service.reformulation_hit_ratio",
       layer("service.reformulation_hit_ratio"), "ratio"},
      {"adaptive.plan_store_saves_per_query",
       layer("adaptive.plan_store_saves_per_query"), "count"},
      {"adaptive.plan_store_save_ms", layer("adaptive.plan_store_save_ms"),
       "ms"},
      {"adaptive.rebuilds_per_drain", per(t.rebuilds, t.adaptive_drains),
       "count"},
      {"adaptive.next_us", mean_us("adaptive.next"), "us"},
      {"adaptive.fold_us", mean_us("adaptive.fold"), "us"},
      {"core.build_ms", mean_ms("core.build"), "ms"},
      {"core.next_us", mean_us("core.next"), "us"},
      {"core.evaluations_per_plan", per(t.core_evaluations, t.core_plans),
       "count"},
      {"exec.step_self_us", 1000 * per(step.self_ms, step.count), "us"},
      {"exec.execute_ms", mean_ms("exec.execute"), "ms"},
      {"exec.sound_ratio", per(t.sound_steps, t.steps), "ratio"},
      {"exec.answers_per_plan", per(t.plan_answers, t.sound_steps), "count"},
      {"runtime.source_calls_per_query", per(t.source_calls, pq), "count"},
      {"runtime.tuples_shipped_per_query", per(t.tuples_shipped, pq),
       "count"},
      {"runtime.retries_per_query", per(t.retries, pq), "count"},
      {"runtime.source_wait_ms_per_query", per(t.source_wait_ms, pq), "ms"},
      {"cluster.source_cache_hit_ratio",
       layer("cluster.source_cache_hit_ratio"), "ratio"},
      {"cluster.acquire_us", mean_us("cluster.acquire"), "us"},
      {"cluster.shard_skew", layer("cluster.shard_skew"), "ratio"},
      {"anyk.open_ms", mean_ms("anyk.open"), "ms"},
      {"anyk.next_us", mean_us("anyk.next"), "us"},
      {"anyk.plans_per_session", per(t.ranked_plans, t.ranked_sessions),
       "count"},
      {"anyk.witnesses_per_answer", per(t.ranked_witnesses, t.ranked_answers),
       "count"},
  };
  for (const char* name : {"client", "datalog", "reformulation", "service",
                           "adaptive", "core", "exec", "cluster", "anyk"}) {
    m.push_back({std::string(name) + ".self_ms_per_query",
                 per(layer_self_ms[name], t.queries), "ms"});
  }
  // Client CPU time per query, traced against untraced; the shadow calls
  // (single-threaded, so their span time is CPU time) are left out.
  const double plain_ms =
      per(TotalCpuMs(r.untraced), r.untraced.tally.queries);
  const double traced_ms = per(TotalCpuMs(phase) - shadow_ms, t.queries);
  m.push_back({"tracing.overhead_pct",
               100.0 * (Ratio(traced_ms, plain_ms) - 1.0), "%"});

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    const double epoch =
        phase.spans.empty() ? 0.0 : phase.spans.front().start_ms;
    out << "id\tparent\tquery\tname\tstart_ms\tend_ms\n";
    const size_t n = std::min(phase.spans.size(), kMaxWrittenSpans);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = phase.spans[i];
      out << s.id << '\t' << s.parent << '\t' << s.query << '\t' << s.name
          << '\t' << s.start_ms - epoch << '\t' << s.end_ms - epoch << '\n';
    }
    if (n < phase.spans.size()) {
      out << "# truncated: " << phase.spans.size() - n << " more spans\n";
    }
  }
  return m;
}

std::string MetricsJson(const Metrics& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  return json.str() + "}";
}

}  // namespace perfbench

// esdbench driver: runs one workload for --seconds of timed passes and
// prints the metrics, as the last line of stdout, as one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and prints the per-layer metrics, the per-layer table
// of self time and counts, and writes the spans to --out-dir.
//
//   esdbench --workload triage|patch-check|service-stream --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "esdbench/src/bench.h"

namespace esdbench {
namespace {

// Taken during static initialization, before main: set-up time is measured
// from here.
const Clock::time_point kProcessStart = Clock::now();

// The traced run's two set-up totals, each summed over all traced passes,
// must agree within this share of Synthesize's own set-up. See README.md,
// "Set-up two ways".
constexpr double kSetupGapTolerance = 0.25;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The estimator: for each operation its fastest pass, summed over the
// operations. Every pass does identical work, and interference (contended
// memory, other tenants) only ever slows an operation, so each
// operation's minimum is its closest sample of the undisturbed cost; a
// slow spell must cover every pass of an operation to move it.
class OpMinima {
 public:
  void Add(const PassRecord& rec) {
    if (passes_++ == 0) {
      best_ = rec.ops;
      return;
    }
    for (size_t i = 0; i < best_.size(); ++i) {
      best_[i].wall = std::min(best_[i].wall, rec.ops[i].wall);
      best_[i].search = std::min(best_[i].search, rec.ops[i].search);
    }
  }
  size_t passes() const { return passes_; }
  double Sum(double OpSample::*field) const {
    double sum = 0.0;
    for (const OpSample& op : best_) {
      sum += op.*field;
    }
    return sum;
  }

 private:
  size_t passes_ = 0;
  std::vector<OpSample> best_;
};

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Per traced pass, each span name's total and self seconds and calls.
struct LayerTimes {
  std::map<std::string, std::vector<double>> total, self, calls;
};

LayerTimes SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[s.parent] += s.end - s.start;
    }
  }
  // name -> pass -> (total, self, calls)
  std::map<std::string, std::map<uint64_t, std::array<double, 3>>> acc;
  std::set<uint64_t> passes;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    passes.insert(s.pass);
    auto& a = acc[s.name][s.pass];
    a[0] += s.end - s.start;
    a[1] += s.end - s.start - child[i];
    a[2] += 1;
  }
  LayerTimes out;
  for (const auto& [name, per_pass] : acc) {
    for (uint64_t pass : passes) {
      auto it = per_pass.find(pass);
      std::array<double, 3> a = it == per_pass.end() ? std::array<double, 3>{}
                                                     : it->second;
      out.total[name].push_back(a[0]);
      out.self[name].push_back(a[1]);
      out.calls[name].push_back(a[2]);
    }
  }
  return out;
}

double MedianOf(const std::map<std::string, std::vector<double>>& m,
                const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0 : Median(it->second);
}

double SumOf(const std::map<std::string, std::vector<double>>& m,
             const std::string& name) {
  double sum = 0.0;
  auto it = m.find(name);
  for (double v : it == m.end() ? std::vector<double>{} : it->second) {
    sum += v;
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Synthesize's set-up two ways (README.md, "Set-up two ways"): totals
// over all traced passes, reported per pass.
struct SetupTotals {
  double setup_ms = 0.0;    // Set-up alone: the one-state-budget call.
  double parts_ms = 0.0;    // ir.passes + analysis.distance + core.goal.
  double wrapup_ms = 0.0;   // Synthesize's time after its search.
  double gap = 0.0;         // (setup - parts) / setup, over the totals.
};

SetupTotals SplitSetup(const LayerTimes& t, size_t traced_passes) {
  const double per_pass_ms = 1e3 / static_cast<double>(traced_passes);
  auto ms = [&](const std::string& span) {
    return per_pass_ms * SumOf(t.total, span);
  };
  SetupTotals s;
  s.setup_ms = per_pass_ms * SumOf(t.self, "core.setup_only");
  s.parts_ms = ms("ir.passes") + ms("analysis.distance") + ms("core.goal");
  s.wrapup_ms = per_pass_ms * SumOf(t.self, "core.synthesize") - s.setup_ms;
  s.gap = Ratio(s.setup_ms - s.parts_ms, s.setup_ms);
  return s;
}

std::vector<Metric> LayerMetrics(const LayerTimes& t,
                                 const std::map<std::string, double>& c,
                                 const SetupTotals& setup,
                                 double overhead_pct) {
  auto ms = [&](const std::string& span) {
    return 1e3 * MedianOf(t.total, span);
  };
  auto count = [&](const std::string& name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m = {
      {"ir.parse_ms", ms("ir.parse"), "ms"},
      {"ir.passes_ms", ms("ir.passes"), "ms"},
      {"ir.passes_run", count("ir.passes_run"), "count"},
      {"analysis.distance_ms", ms("analysis.distance"), "ms"},
      {"analysis.dataflow_iterations", count("analysis.dataflow_iterations"),
       "count"},
      {"core.goal_ms", ms("core.goal"), "ms"},
      {"core.setup_ms", setup.setup_ms, "ms"},
      {"core.search_ms", ms("core.search"), "ms"},
      {"core.wrapup_ms", setup.wrapup_ms, "ms"},
      {"core.setup_gap_pct", 100.0 * setup.gap, "%"},
  };
  for (const char* name :
       {"vm.instructions", "vm.state_forks", "vm.pages_copied",
        "vm.bytes_hashed", "vm.fingerprint_probes", "vm.states_deduped",
        "vm.sleep_set_skips", "vm.frontier_pops", "vm.frontier_max_depth"}) {
    m.push_back({name, count(name), "count"});
  }
  m.push_back({"vm.dedup_hit_ratio",
               Ratio(count("vm.states_deduped"), count("vm.fingerprint_probes")),
               "ratio"});
  m.push_back({"solver.queries", count("solver.queries"), "count"});
  m.push_back({"solver.cache_hit_ratio",
               Ratio(count("solver.cache_hits"), count("solver.components")),
               "ratio"});
  m.push_back({"solver.range_discharge_ratio",
               Ratio(count("solver.range_discharged"),
                     count("solver.range_checked")),
               "ratio"});
  for (const char* name :
       {"solver.sat_calls", "solver.sat_conflicts", "solver.expr_allocs"}) {
    m.push_back({name, count(name), "count"});
  }
  m.push_back({"replay.strict_ms", ms("replay.strict"), "ms"});
  m.push_back({"replay.instructions", count("replay.instructions"), "count"});
  m.push_back({"report.parse_ms", ms("report.parse"), "ms"});
  for (const char* cat : {"first", "duplicate", "patched", "after_restart"}) {
    m.push_back({std::string("serve.process_ms.") + cat,
                 ms(std::string("serve.process.") + cat), "ms"});
  }
  m.push_back({"serve.flush_ms", ms("serve.flush"), "ms"});
  m.push_back({"serve.cache_load_ms", ms("serve.cache_load"), "ms"});
  m.push_back({"serve.cache_bytes", count("serve.cache_bytes"), "bytes"});
  for (const char* name :
       {"serve.verdict_cache_hits", "serve.incremental",
        "serve.solver_shared_hits", "serve.distance_tables_restored",
        "serve.solver_entries_preloaded"}) {
    m.push_back({name, count(name), "count"});
  }
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

void PrintLayerTable(const LayerTimes& t,
                     const std::map<std::string, double>& counts) {
  std::printf("%-28s %10s %12s %12s\n", "layer (median per pass)", "calls",
              "total_ms", "self_ms");
  for (const auto& [name, totals] : t.total) {
    std::printf("%-28s %10.0f %12.3f %12.3f\n", name.c_str(),
                MedianOf(t.calls, name), 1e3 * Median(totals),
                1e3 * MedianOf(t.self, name));
  }
  std::printf("%-28s %22s\n", "counter (per pass)", "value");
  for (const auto& [name, value] : counts) {
    std::printf("%-28s %22.0f\n", name.c_str(), value);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "esdbench: %s\nusage: esdbench --workload "
               "triage|patch-check|service-stream --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  std::string workload_name, out_dir = ".bench_out";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::unique_ptr<Workload> workload;
  if (workload_name == "triage") {
    workload = MakeTriage();
  } else if (workload_name == "patch-check") {
    workload = MakePatchCheck();
  } else if (workload_name == "service-stream") {
    workload = MakeServiceStream(out_dir);
  } else {
    return Usage(("unknown workload '" + workload_name + "'").c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // Set-up: inputs, independent checks, one untimed warm-up pass.
  workload->Setup(seed);
  Tracer tracer;
  PassRecord warm = workload->RunPass(0, &tracer);
  const double setup_s = SecondsSince(kProcessStart);

  // Timed passes, whole passes only, until the budget is spent. With
  // tracing, even passes are traced and odd ones are not.
  OpMinima untraced, traced;
  PassRecord last_traced;
  uint64_t attempted = warm.reports, failed = warm.failed;
  Clock::time_point start = Clock::now();
  for (uint64_t pass = 1;; ++pass) {
    const bool traced_pass = trace && pass % 2 == 0;
    tracer.set_enabled(traced_pass);
    tracer.set_pass(pass);
    PassRecord rec = workload->RunPass(pass, &tracer);
    (traced_pass ? traced : untraced).Add(rec);
    attempted += rec.reports;
    failed += rec.failed;
    if (rec.states != warm.states) {
      std::fprintf(stderr, "esdbench: pass %llu created %llu states, not %llu\n",
                   static_cast<unsigned long long>(pass),
                   static_cast<unsigned long long>(rec.states),
                   static_cast<unsigned long long>(warm.states));
      return 1;
    }
    if (traced_pass) {
      last_traced = std::move(rec);
    }
    bool enough = untraced.passes() >= 2 && (!trace || traced.passes() >= 2);
    if (enough && SecondsSince(start) >= seconds) {
      break;
    }
  }
  tracer.set_enabled(false);

  const double wall = untraced.Sum(&OpSample::wall);
  const double search = untraced.Sum(&OpSample::search);
  std::fprintf(stderr,
               "esdbench: %s seed %llu: %zu untraced passes of %llu reports; "
               "sum of per-op minima %.4f s\n",
               workload_name.c_str(), static_cast<unsigned long long>(seed),
               untraced.passes(), static_cast<unsigned long long>(warm.reports),
               wall);
  for (const std::string& e : workload->errors()) {
    std::fprintf(stderr, "esdbench: CHECK FAILED: %s\n", e.c_str());
  }
  bool correct = workload->errors().empty();

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"reports_per_s", Ratio(static_cast<double>(warm.reports), wall),
         "reports/s"},
        {"states_per_s", Ratio(static_cast<double>(warm.states), search),
         "states/s"},
        {"states_explored", static_cast<double>(warm.states), "states"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    const double overhead_pct =
        100.0 * (Ratio(traced.Sum(&OpSample::wall), wall) - 1.0);
    LayerTimes layers = SummarizeSpans(tracer.spans());
    PrintLayerTable(layers, last_traced.counts);
    const SetupTotals setup = SplitSetup(layers, traced.passes());
    metrics = LayerMetrics(layers, last_traced.counts, setup, overhead_pct);
    std::printf("set-up two ways, over %zu traced passes, per pass: "
                "Synthesize set-up (one-state budget, wall - search) = "
                "%.3f ms, ir.passes + analysis.distance + core.goal = "
                "%.3f ms, gap %.1f%% (tolerance %.0f%%); after the search "
                "%.3f ms; tracing overhead %.1f%%\n",
                traced.passes(), setup.setup_ms, setup.parts_ms,
                100.0 * setup.gap, 100.0 * kSetupGapTolerance,
                setup.wrapup_ms, overhead_pct);
    const std::string path = out_dir + "/trace-" + workload_name + "-" +
                             std::to_string(seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
    if (workload_name != "service-stream" &&
        std::abs(setup.gap) > kSetupGapTolerance) {
      std::fprintf(stderr,
                   "esdbench: CHECK FAILED: set-up totals disagree by %.1f%%\n",
                   100.0 * setup.gap);
      correct = false;
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace esdbench

int main(int argc, char** argv) { return esdbench::Run(argc, argv); }

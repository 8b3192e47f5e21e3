// The service-stream workload: serve::Server over a fresh cache directory
// answers a generated stream of first-seen reports, exact duplicates and
// patched-module resubmissions, is restarted over the same directory, and
// answers more resubmissions. The stream's construction fixes which verdict
// source every job must get, hence Server::Stats exactly.
#include <filesystem>
#include <iterator>
#include <optional>
#include <set>
#include <system_error>
#include <unistd.h>

#include "esdbench/src/bench.h"
#include "esdbench/src/scenarios.h"
#include "src/core/synthesizer.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/replay/execution_file.h"
#include "src/replay/replayer.h"
#include "src/report/coredump.h"
#include "src/serve/server.h"
#include "src/workloads/workloads.h"

namespace esdbench {
namespace {

namespace fs = std::filesystem;

// A scenario as the service sees it: the original module, two patched
// variants (one noise constant changed: a real code change that keeps the
// planted bug and every instruction coordinate), and two textually
// different reports of the same bug.
struct Scenario {
  std::string name;
  std::string modules[3];
  std::string reports[2];
  esd::fuzz::GeneratedProgram program;
};

enum class Phase { kFirst, kAfterRestart };

struct StreamJob {
  size_t scenario = 0;
  int module = 0;  // Index into Scenario::modules.
  int report = 0;  // Index into Scenario::reports.
  Phase phase = Phase::kFirst;
  // Expected JobResult::source and the span category.
  std::string source;
  std::string category;
};

std::optional<esd::ir::Module> Parse(const std::string& text) {
  esd::ir::Module m;
  if (!esd::ir::ParseModule(text, &m).ok) {
    return std::nullopt;
  }
  return m;
}

// An execution file's text without its input lines.
std::string WithoutInputs(const std::string& exec) {
  std::string out;
  size_t at = 0;
  while (at < exec.size()) {
    size_t eol = exec.find('\n', at);
    eol = eol == std::string::npos ? exec.size() : eol + 1;
    if (exec.compare(at, 6, "input ") != 0) {
      out.append(exec, at, eol - at);
    }
    at = eol;
  }
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

class ServiceStream : public Workload {
 public:
  explicit ServiceStream(const std::string& out_dir)
      : run_dir_(out_dir + "/service-" + std::to_string(getpid())) {
    options_.synthesis.jobs = 1;
    options_.synthesis.time_cap_seconds = 60.0;
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
  ~ServiceStream() override {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
  ServiceStream(const ServiceStream&) = delete;
  ServiceStream& operator=(const ServiceStream&) = delete;

  void Setup(uint64_t seed) override {
    for (uint32_t i = 0; i < kScenarios; ++i) {
      Scenario s;
      s.program = GenerateScenario(kKinds[i % std::size(kKinds)],
                                   kShapeBase + i, seed, kSize);
      s.name = ScenarioName(s.program, seed);
      auto dump = esd::fuzz::MakeReport(s.program);
      Check(dump.has_value(), s.name + ": the trigger does not manifest the bug");
      if (!dump.has_value()) {
        continue;
      }
      s.modules[0] = esd::ir::PrintModule(*s.program.module);
      for (int v = 1; v <= 2; ++v) {
        esd::fuzz::ScenarioSpec spec = s.program.spec;
        spec.threads[0].noise[0].a += 2 * v;
        s.modules[v] = esd::ir::PrintModule(*esd::fuzz::Materialize(spec).module);
      }
      // A report names the program it came from, so reports of distinct
      // programs differ even where their dumps coincide (the assert-site
      // dumps of two generated programs can).
      const std::string text =
          esd::report::CoreDumpToText(*s.program.module, *dump);
      size_t msg = text.find("\nmessage ");
      size_t eol = text.find('\n', msg + 1);
      Check(msg != std::string::npos && eol != std::string::npos,
            s.name + ": report has no message line");
      if (eol == std::string::npos) {
        continue;
      }
      for (int r = 0; r < 2; ++r) {
        s.reports[r] = text;
        s.reports[r].insert(eol, " [" + s.name + (r == 0 ? "]" : ", second report]"));
      }
      scenarios_.push_back(std::move(s));
    }
    BuildStream(seed);
    RunTwins();
  }

  PassRecord RunPass(uint64_t pass, Tracer* tracer) override {
    PassRecord rec;
    // A fresh cache directory per pass. They are all removed when the run
    // ends, not pass by pass: deleting a pass's few hundred files made the
    // next pass's flushes 5-10x slower (README.md).
    const std::string dir = run_dir_ + "/pass-" + std::to_string(pass);
    esd::serve::ServerOptions options = options_;
    options.cache_dir = dir;
    esd::serve::Server::Stats totals;
    std::unique_ptr<esd::serve::Server> server;
    // Opening and closing the server are traced (serve.cache_load,
    // serve.flush) but not timed: they answer no report, and their file
    // writes made the slowest-moving term of the estimator (README.md).
    // Loading a module's caches happens lazily inside Process and is timed.
    auto lifecycle = [&](const char* span, bool open) {
      Scope s(tracer, span, 0);
      if (!open) {
        Accumulate(server->stats(), &totals);
      }
      server.reset();  // ~Server flushes every cache to `dir`.
      if (open) {
        server = std::make_unique<esd::serve::Server>(options);
      }
    };
    lifecycle("serve.cache_load", true);
    for (size_t j = 0; j < stream_.size(); ++j) {
      const StreamJob& sj = stream_[j];
      if (sj.phase == Phase::kAfterRestart && stream_[j - 1].phase == Phase::kFirst) {
        lifecycle("serve.flush", false);
        lifecycle("serve.cache_load", true);
      }
      const Scenario& s = scenarios_[sj.scenario];
      esd::serve::Job job;
      job.id = j + 1;
      job.module_text = s.modules[sj.module];
      job.report_text = s.reports[sj.report];
      esd::serve::JobResult result;
      {
        Scope span(tracer, "serve.process." + sj.category, job.id);
        Clock::time_point t0 = Clock::now();
        result = server->Process(job);
        OpSample sample;
        sample.wall = SecondsSince(t0);
        if (sj.category == "first") {
          sample.search = result.seconds;
          rec.states += twin_states_[sj.scenario];
        }
        rec.ops.push_back(sample);
        tracer->Count(span.index(), "search_s", result.seconds);
      }
      ++rec.reports;
      if (!result.ok || !result.reproduced) {
        ++rec.failed;
      }
      CheckJob(pass, sj, result);
    }
    lifecycle("serve.flush", false);
    Check(totals.jobs == stream_.size() &&
              totals.reproduced == stream_.size() &&
              totals.verdict_cache_hits == expected_cache_hits_ &&
              totals.incremental == expected_incremental_,
          "Server::Stats disagree with the stream's construction");
    rec.counts["serve.verdict_cache_hits"] = totals.verdict_cache_hits;
    rec.counts["serve.incremental"] = totals.incremental;
    rec.counts["serve.solver_shared_hits"] = totals.solver_shared_hits;
    rec.counts["serve.distance_tables_restored"] =
        totals.distance_tables_restored;
    rec.counts["serve.solver_entries_preloaded"] =
        totals.solver_entries_preloaded;
    if (tracer->enabled()) {
      rec.counts["serve.cache_bytes"] = DirectoryBytes(dir);
    }
    return rec;
  }

 private:
  static constexpr uint32_t kScenarios = 64;
  static constexpr ScenarioSize kSize = {2, 12, 4};
  // The kinds whose search cost does not move with the program's
  // constants (README.md): the stream then does the same work under every
  // seed. The order-sensitive kinds are measured by triage.
  static constexpr esd::fuzz::BugKind kKinds[] = {
      esd::fuzz::BugKind::kDeadlock, esd::fuzz::BugKind::kCrash,
      esd::fuzz::BugKind::kRwUpgrade, esd::fuzz::BugKind::kBarrierMismatch};
  static constexpr uint64_t kShapeBase = 2000;

  static void Accumulate(const esd::serve::Server::Stats& s,
                         esd::serve::Server::Stats* t) {
    t->jobs += s.jobs;
    t->reproduced += s.reproduced;
    t->verdict_cache_hits += s.verdict_cache_hits;
    t->incremental += s.incremental;
    t->duplicate_bugs += s.duplicate_bugs;
    t->solver_shared_hits += s.solver_shared_hits;
    t->distance_tables_restored += s.distance_tables_restored;
    t->solver_entries_preloaded += s.solver_entries_preloaded;
    t->corpus_preloaded += s.corpus_preloaded;
  }

  // Lays out the stream and derives each job's expected verdict source
  // from a model of the service's results index (report -> module of the
  // last verdict stored for it). Per pass, with N = kScenarios:
  //   before the restart: N first-seen reports, N/2 exact duplicates,
  //                       N/4 patched resubmissions;
  //   after the restart:  N/4 exact duplicates, N/4 second reports of a
  //                       known bug, N/4 patched resubmissions.
  // The seed chooses which scenarios are duplicated and patched, but the
  // k-th pick of every category is of kind k mod 4 (scenario s is of kind
  // s mod 4): the kinds' search costs differ several-fold, so balanced
  // picks make every seed's stream cost nearly the same (README.md).
  void BuildStream(uint64_t seed) {
    const size_t n = scenarios_.size();
    const size_t kinds = std::size(kKinds);
    std::map<std::pair<size_t, int>, int> index;  // (scenario, report) -> module.
    uint64_t rng = Mix(seed ^ 0x5eed);
    // Removes and returns a random element of `from` of kind `k % kinds`.
    auto take = [&](std::vector<size_t>* from, size_t k) {
      std::vector<size_t> at;
      for (size_t i = 0; i < from->size(); ++i) {
        if ((*from)[i] % kinds == k % kinds) {
          at.push_back(i);
        }
      }
      rng = Mix(rng);
      const size_t i = at[rng % at.size()];
      const size_t s = (*from)[i];
      from->erase(from->begin() + i);
      return s;
    };
    auto submit = [&](size_t s, int module, int report, Phase phase,
                      const std::string& category) {
      StreamJob job{s, module, report, phase, "", category};
      auto it = index.find({s, report});
      if (it == index.end()) {
        job.source = report == 0 ? "cold" : "warm";
      } else if (it->second == module) {
        job.source = "cache";
        ++expected_cache_hits_;
      } else {
        job.source = "incremental";
        ++expected_incremental_;
      }
      index[{s, report}] = module;
      stream_.push_back(job);
    };
    std::vector<size_t> unpatched;  // Seen scenarios whose verdict is module 0.
    std::vector<size_t> patched;    // Scenarios whose stored verdict is module 1.
    for (size_t i = 0; i < n; ++i) {
      submit(i, 0, 0, Phase::kFirst, "first");
      unpatched.push_back(i);
      if (i % 2 == 1) {
        std::vector<size_t> pool = unpatched;
        submit(take(&pool, i / 2), 0, 0, Phase::kFirst, "duplicate");
      }
      if (i % 4 == 3) {
        const size_t s = take(&unpatched, i / 4);
        submit(s, 1, 0, Phase::kFirst, "patched");
        patched.push_back(s);
      }
    }
    // After the restart: duplicates and second reports of scenarios never
    // patched, then a second patch of others (the stored execution of the
    // scenario, original or first patch, seeds the search).
    for (size_t k = 0; k < n / 4; ++k) {
      const size_t s = take(&unpatched, k);
      submit(s, 0, 0, Phase::kAfterRestart, "after_restart");
      submit(s, 0, 1, Phase::kAfterRestart, "after_restart");
    }
    patched.insert(patched.end(), unpatched.begin(), unpatched.end());
    for (size_t k = 0; k < n / 4; ++k) {
      submit(take(&patched, k), 2, 0, Phase::kAfterRestart, "after_restart");
    }
  }

  // One-shot synthesis of every first-seen report, apart from the service:
  // a first-seen job searches cold, so the service must return the same
  // execution, and these runs give the states its searches create (the
  // service does not report states per job).
  void RunTwins() {
    for (const Scenario& s : scenarios_) {
      std::string source = s.modules[0];
      std::optional<esd::ir::Module> module = Parse(source);
      Check(module.has_value(), s.name + ": module does not parse");
      if (!module) {
        twin_states_.push_back(0);
        twin_exec_.push_back("");
        continue;
      }
      std::string error;
      auto dump = esd::report::ParseCoreDump(*module, s.reports[0], &error);
      esd::core::SynthesisResult result;
      if (dump.has_value()) {
        esd::core::Synthesizer synthesizer(&*module, options_.synthesis);
        result = synthesizer.Synthesize(*dump);
      }
      Check(result.success && result.bug.kind == s.program.expected_kind,
            s.name + ": one-shot synthesis missed the bug");
      twin_states_.push_back(result.states_created);
      twin_exec_.push_back(
          result.success ? esd::replay::ExecutionFileToText(result.file) : "");
      if (result.success) {
        CheckReplay(s.name, *module, result.file, s.program.expected_kind);
        const std::string wrong =
            CheckSecrets(GuardSecrets(s.program.spec), result.file.inputs);
        Check(wrong.empty(), s.name + ": " + wrong);
      }
    }
  }

  void CheckReplay(const std::string& name, const esd::ir::Module& module,
                   const esd::replay::ExecutionFile& file,
                   esd::vm::BugInfo::Kind kind) {
    esd::replay::ReplayResult replayed =
        esd::replay::Replay(module, file, esd::replay::ReplayMode::kStrict);
    Check(replayed.bug_reproduced && replayed.bug.kind == kind,
          name + ": execution does not strict-replay");
  }

  void CheckJob(uint64_t pass, const StreamJob& sj,
                const esd::serve::JobResult& result) {
    const Scenario& s = scenarios_[sj.scenario];
    const std::string what = s.name + " (" + sj.category + ")";
    Check(result.ok, what + ": job failed: " + result.error);
    Check(result.source == sj.source,
          what + ": verdict source " + result.source + ", expected " + sj.source);
    if (sj.category == "first") {
      // The solver may pick other values for inputs no guard constrains
      // (the service's solver cache answers some queries); the schedule
      // and the guarded inputs must match.
      Check(WithoutInputs(result.exec_text) ==
                WithoutInputs(twin_exec_[sj.scenario]),
            what + ": served schedule differs from one-shot synthesis");
    }
    // The warm-up pass replays every served execution against the module
    // it was synthesized for and checks its guarded inputs.
    if (pass == 0 && result.reproduced) {
      std::string error;
      auto file = esd::replay::ParseExecutionFile(result.exec_text, &error);
      std::optional<esd::ir::Module> module = Parse(s.modules[sj.module]);
      Check(file.has_value() && module.has_value(),
            what + ": served execution does not parse");
      if (file && module) {
        CheckReplay(what, *module, *file, s.program.expected_kind);
        const std::string wrong =
            CheckSecrets(GuardSecrets(s.program.spec), file->inputs);
        Check(wrong.empty(), what + ": " + wrong);
      }
    }
  }

  std::string run_dir_;  // Holds one cache directory per pass.
  esd::serve::ServerOptions options_;
  std::vector<Scenario> scenarios_;
  std::vector<StreamJob> stream_;
  uint64_t expected_cache_hits_ = 0;
  uint64_t expected_incremental_ = 0;
  std::vector<uint64_t> twin_states_;
  std::vector<std::string> twin_exec_;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceStream(const std::string& out_dir) {
  return std::make_unique<ServiceStream>(out_dir);
}

}  // namespace esdbench

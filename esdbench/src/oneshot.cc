// The one-shot workloads, triage and patch-check: every report is answered
// the way `esdsynth` answers it (parse the module, parse the report,
// synthesize), one report after another, jobs = 1.
#include <optional>
#include <set>

#include "bench/arith_workloads.h"
#include "bench/scaling_workloads.h"
#include "esdbench/src/bench.h"
#include "esdbench/src/reference.h"
#include "esdbench/src/scenarios.h"
#include "src/analysis/distance.h"
#include "src/core/goal.h"
#include "src/core/search_setup.h"
#include "src/core/synthesizer.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/ir/parser.h"
#include "src/ir/passes/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/replay/replayer.h"
#include "src/report/coredump.h"
#include "src/workloads/workloads.h"

namespace esdbench {
namespace {

using esd::vm::BugInfo;

// One bug report and the verdict it must get.
struct Case {
  std::string name;
  std::string module_text;  // Printed module, externs included.
  std::string report_text;
  bool expect_found = true;  // false: the search must exhaust.
  BugInfo::Kind kind = BugInfo::Kind::kNone;
  // Input-name prefix -> the only value that passes its guard.
  std::map<std::string, uint64_t> secrets;
};

// Appended to every module in pass `pass`: a function nothing calls. It
// changes the module's digest (so no digest-keyed cache carries work from
// one pass to the next, as with one esdsynth process per report) and
// leaves the search itself unchanged.
std::string InertFunction(uint64_t pass) {
  return "\nfunc @esdbench_inert_" + std::to_string(pass) +
         "() : void {\nentry:\n  ret\n}\n";
}

// The sites Synthesize protects from the IR passes (mirrors
// core/synthesizer.cc), so the traced ir.passes span does the same work.
esd::ir::passes::ProtectedSites ProtectGoal(const esd::core::Goal& goal) {
  esd::ir::passes::ProtectedSites prot;
  for (const esd::core::ThreadGoal& tg : goal.threads) {
    if (tg.target.IsValid()) {
      prot.funcs.insert(tg.target.func);
      prot.sites.insert(tg.target);
    }
    for (const esd::ir::InstRef& frame : tg.stack) {
      if (frame.IsValid()) {
        prot.funcs.insert(frame.func);
        prot.sites.insert(frame);
      }
    }
  }
  return prot;
}

bool IsExhausted(const esd::core::SynthesisResult& r) {
  return !r.success &&
         r.failure_reason.find("space exhausted") != std::string::npos;
}

void AddCounts(const esd::core::SynthesisResult& r,
               std::map<std::string, double>* c) {
  (*c)["vm.instructions"] += r.instructions;
  (*c)["vm.state_forks"] += r.counters.state_forks;
  (*c)["vm.pages_copied"] += r.counters.pages_copied;
  (*c)["vm.bytes_hashed"] += r.counters.bytes_hashed;
  (*c)["vm.fingerprint_probes"] += r.counters.fingerprint_probes;
  (*c)["vm.states_deduped"] += r.states_deduped;
  (*c)["vm.sleep_set_skips"] += r.sleep_set_skips;
  (*c)["vm.frontier_pops"] += r.counters.frontier_pops;
  double& depth = (*c)["vm.frontier_max_depth"];
  depth = std::max(depth, static_cast<double>(r.counters.frontier_max_depth));
  (*c)["ir.passes_run"] += r.counters.ir_passes_run;
  (*c)["analysis.dataflow_iterations"] += r.counters.dataflow_iterations;
  (*c)["solver.queries"] += r.solver.queries;
  (*c)["solver.components"] += r.solver.components;
  (*c)["solver.cache_hits"] += r.solver.cache_hits + r.solver.shared_hits;
  (*c)["solver.range_checked"] += r.solver.range_checked;
  (*c)["solver.range_discharged"] += r.solver.range_discharged;
  (*c)["solver.sat_calls"] += r.solver.sat_calls;
  (*c)["solver.sat_conflicts"] += r.solver.sat_conflicts;
  (*c)["solver.expr_allocs"] += r.counters.expr_allocs;
}

class OneShot : public Workload {
 public:
  PassRecord RunPass(uint64_t pass, Tracer* tracer) override {
    PassRecord rec;
    const std::string inert = InertFunction(pass);
    for (size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      const uint64_t req = i + 1;
      Scope root(tracer, "report", req);
      esd::ir::Module module;
      std::optional<esd::report::CoreDump> dump;
      esd::core::SynthesisResult result;
      int synth_span = -1;
      Clock::time_point t0 = Clock::now();
      {
        Scope s(tracer, "ir.parse", req);
        bool parsed = esd::ir::ParseModule(c.module_text + inert, &module).ok &&
                      esd::ir::Verify(module).empty();
        Check(parsed, c.name + ": module does not parse");
      }
      {
        Scope s(tracer, "report.parse", req);
        std::string error;
        dump = esd::report::ParseCoreDump(module, c.report_text, &error);
        Check(dump.has_value(), c.name + ": report does not parse: " + error);
      }
      if (dump.has_value()) {
        Scope s(tracer, "core.synthesize", req);
        synth_span = s.index();
        esd::core::Synthesizer synthesizer(&module, options_);
        result = synthesizer.Synthesize(*dump);
      }
      OpSample sample;
      sample.wall = SecondsSince(t0);
      sample.search = result.seconds;
      rec.ops.push_back(sample);
      tracer->AddTimed("core.search", req, synth_span, result.seconds);
      tracer->Count(synth_span, "states", result.states_created);
      tracer->Count(synth_span, "instructions", result.instructions);
      tracer->Count(synth_span, "solver_queries", result.solver.queries);

      // Everything below is untimed: verdict and repeatability checks, and
      // in traced passes the per-layer decomposition calls.
      ++rec.reports;
      bool right = c.expect_found
                       ? result.success && result.bug.kind == c.kind
                       : IsExhausted(result);
      if (!right) {
        ++rec.failed;
      }
      rec.states += result.states_created;
      AddCounts(result, &rec.counts);
      const std::string exec =
          result.success ? esd::replay::ExecutionFileToText(result.file) : "";
      if (pass == 0) {
        base_states_.push_back(result.states_created);
        base_exec_.push_back(exec);
        if (result.success) {
          const std::string wrong = CheckSecrets(c.secrets, result.file.inputs);
          Check(wrong.empty(), c.name + ": " + wrong);
        }
      } else {
        Check(result.states_created == base_states_[i],
              c.name + ": states_explored differs between passes");
        Check(exec == base_exec_[i],
              c.name + ": execution file differs between passes");
      }
      if (tracer->enabled() && dump.has_value()) {
        // Once untraced first, so that both ways of timing the set-up
        // find the module and its tables in cache (README.md, "Set-up two
        // ways").
        tracer->set_enabled(false);
        Decompose(tracer, module, *dump, req);
        tracer->set_enabled(true);
        Decompose(tracer, module, *dump, req);
      }
      if ((pass == 0 || tracer->enabled()) && result.success) {
        Scope s(tracer, "replay.strict", req);
        esd::replay::ReplayResult replayed = esd::replay::Replay(
            module, result.file, esd::replay::ReplayMode::kStrict);
        Check(replayed.bug_reproduced && replayed.bug.kind == c.kind,
              c.name + ": synthesized execution does not strict-replay");
        tracer->Count(s.index(), "instructions", replayed.instructions);
        rec.counts["replay.instructions"] += replayed.instructions;
      }
    }
    return rec;
  }

 protected:
  OneShot() {
    options_.jobs = 1;
    options_.time_cap_seconds = 60.0;
  }

  // Adds a case built from a module and the dump its bug produces.
  void AddCase(const std::string& name, const esd::ir::Module& module,
               const std::optional<esd::report::CoreDump>& dump,
               BugInfo::Kind kind,
               std::map<std::string, uint64_t> secrets = {}) {
    Check(dump.has_value(), name + ": the trigger does not manifest the bug");
    if (!dump.has_value()) {
      return;
    }
    Case c;
    c.name = name;
    c.module_text = esd::ir::PrintModule(module);
    c.report_text = esd::report::CoreDumpToText(module, *dump);
    c.kind = kind;
    c.secrets = std::move(secrets);
    cases_.push_back(std::move(c));
  }

  std::vector<Case> cases_;
  esd::core::SynthesisOptions options_;

 private:
  // The traced run's layer decomposition: the set-up calls Synthesize
  // makes before its search, made again on their own so each gets a span,
  // and Synthesize once more with a one-state budget, whose wall minus its
  // search seconds is Synthesize's set-up alone (README.md, "Set-up two
  // ways").
  void Decompose(Tracer* tracer, const esd::ir::Module& module,
                 const esd::report::CoreDump& dump, uint64_t req) {
    esd::core::Goal goal;
    {
      Scope s(tracer, "core.goal", req);
      goal = esd::core::ExtractGoal(module, dump);
    }
    std::optional<esd::ir::Module> optimized;
    {
      Scope s(tracer, "ir.passes", req);
      optimized = module;
      esd::ir::passes::PassManager pm;
      if (!pm.Run(&*optimized, ProtectGoal(goal))) {
        optimized.reset();
      }
    }
    {
      Scope s(tracer, "analysis.distance", req);
      const esd::ir::Module& search_module = optimized ? *optimized : module;
      esd::analysis::DistanceCalculator distances(&search_module);
      size_t intermediate = 0;
      esd::core::BuildSearchGoals(search_module, distances, goal,
                                  options_.use_intermediate_goals,
                                  &intermediate);
    }
    optimized.reset();
    int setup_span = -1;
    double setup_search = 0.0;
    {
      Scope s(tracer, "core.setup_only", req);
      setup_span = s.index();
      esd::core::SynthesisOptions budget = options_;
      budget.max_states = 1;
      esd::core::Synthesizer synthesizer(&module, budget);
      setup_search = synthesizer.Synthesize(dump).seconds;
    }
    tracer->AddTimed("core.setup_only.search", req, setup_span, setup_search);
  }

  std::vector<uint64_t> base_states_;
  std::vector<std::string> base_exec_;
};

// A fixed mixed corpus: the named workloads, the two factoring-guard
// modules, and generated scenarios of every fuzz kind.
class Triage : public OneShot {
 public:
  void Setup(uint64_t seed) override {
    std::vector<std::string> names = esd::workloads::Table1Names();
    for (const auto& group :
         {esd::workloads::LsNames(), esd::workloads::SyncNames(),
          esd::workloads::AtomicNames()}) {
      names.insert(names.end(), group.begin(), group.end());
    }
    for (const std::string& name : names) {
      esd::workloads::Workload w = esd::workloads::MakeWorkload(name);
      AddCase(name, *w.module,
              w.assert_site_report
                  ? std::optional(esd::workloads::AssertSiteDump(*w.module))
                  : esd::workloads::CaptureDump(*w.module, w.trigger),
              w.expected_kind);
    }
    auto deadlock_arith = esd::bench::DeadlockArithModule();
    AddCase("deadlock-arith", *deadlock_arith,
            esd::workloads::CaptureDump(*deadlock_arith,
                                        esd::bench::DeadlockArithTrigger()),
            BugInfo::Kind::kDeadlock);
    auto race_arith = esd::bench::RaceArithModule();
    AddCase("race-arith", *race_arith,
            esd::workloads::AssertSiteDump(*race_arith),
            BugInfo::Kind::kAssertFail);

    for (uint32_t k = 0; k < esd::fuzz::kNumBugKinds; ++k) {
      for (uint32_t j = 0; j < kScenariosPerKind; ++j) {
        esd::fuzz::GeneratedProgram program = GenerateScenario(
            static_cast<esd::fuzz::BugKind>(k), kShapeBase + 100 * k + j, seed);
        AddCase(ScenarioName(program, seed), *program.module,
                esd::fuzz::MakeReport(program), program.expected_kind,
                GuardSecrets(program.spec));
      }
    }
  }

 private:
  static constexpr uint32_t kScenariosPerKind = 16;
  static constexpr uint64_t kShapeBase = 1000;
};

// The scaling modules run to a verdict: each buggy module must be found,
// each patched one (an assert/gate constant no ordering reaches, checked by
// the reference enumerator) must be exhausted.
class PatchCheck : public OneShot {
 public:
  void Setup(uint64_t seed) override {
    const std::vector<Ordering> finals = RaceFinalValues();
    const std::vector<Ordering> gates = DeadlockGateValues();
    std::set<uint32_t> distinct;
    for (const Ordering& o : finals) {
      distinct.insert(o.value);
    }
    Check(finals.size() == 924 && distinct.size() == 924,
          "reference: race orderings are not 924 distinct values");
    Check(gates.size() == 1716, "reference: deadlock gate prefixes != 1716");
    Check(OrderingsReaching(finals, kRaceBug) ==
              std::vector<std::string>{"ABAABBBBBAAA"},
          "reference: race bug constant not reached by exactly one ordering");
    Check(OrderingsReaching(gates, kDeadlockBug) ==
              std::vector<std::string>{"ABBABBABB"},
          "reference: deadlock gate constant not reached by exactly one prefix");
    const uint32_t race_fix = UnreachableValue(finals, Mix(seed));
    const uint32_t deadlock_fix = UnreachableValue(gates, Mix(seed + 1));
    Check(OrderingsReaching(finals, race_fix).empty() &&
              OrderingsReaching(gates, deadlock_fix).empty(),
          "reference: patched constant is reachable");

    auto race = esd::bench::RaceScalingModule();
    auto race_dump = esd::workloads::AssertSiteDump(*race);
    AddCase("race-scaling", *race, race_dump, BugInfo::Kind::kAssertFail);
    AddPatched("race-scaling-patched", kRaceBug, race_fix);
    auto deadlock = esd::bench::DeadlockScalingModule();
    auto deadlock_dump = esd::workloads::CaptureDump(
        *deadlock, esd::bench::DeadlockScalingTrigger());
    AddCase("deadlock-scaling", *deadlock, deadlock_dump,
            BugInfo::Kind::kDeadlock);
    AddPatched("deadlock-scaling-patched", kDeadlockBug, deadlock_fix);
  }

 private:
  static constexpr uint32_t kRaceBug = 6475774;
  static constexpr uint32_t kDeadlockBug = 245143;

  // The previous case with its bug constant replaced: the same report is
  // checked against the patched program.
  void AddPatched(const std::string& name, uint32_t bug, uint32_t fix) {
    if (cases_.empty()) {
      return;
    }
    Case c = cases_.back();
    const std::string from = "i32 " + std::to_string(bug);
    size_t at = c.module_text.find(from);
    Check(at != std::string::npos &&
              c.module_text.find(from, at + 1) == std::string::npos,
          name + ": bug constant does not occur exactly once");
    if (at == std::string::npos) {
      return;
    }
    c.module_text.replace(at, from.size(), "i32 " + std::to_string(fix));
    c.name = name;
    c.expect_found = false;
    cases_.push_back(std::move(c));
  }
};

}  // namespace

std::unique_ptr<Workload> MakeTriage() { return std::make_unique<Triage>(); }
std::unique_ptr<Workload> MakePatchCheck() {
  return std::make_unique<PatchCheck>();
}

}  // namespace esdbench

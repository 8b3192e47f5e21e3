#include "esdbench/src/scenarios.h"

#include "esdbench/src/bench.h"

namespace esdbench {

esd::fuzz::GeneratedProgram GenerateScenario(esd::fuzz::BugKind kind,
                                             uint64_t shape, uint64_t seed,
                                             ScenarioSize size) {
  esd::fuzz::GeneratorParams params;
  params.kind = kind;
  params.seed = shape;
  params.num_threads = size.threads;
  params.num_locks = 2;
  params.guard_depth = size.guard_depth;
  params.noise_per_thread = size.noise_per_thread;
  esd::fuzz::ScenarioSpec spec = esd::fuzz::Generate(params).spec;

  // The generator's own value ranges, drawn from `seed`.
  uint64_t state = Mix(seed ^ Mix(shape));
  auto draw = [&state](uint32_t bound) {
    state = Mix(state);
    return static_cast<uint32_t>(state % bound);
  };
  for (esd::fuzz::Guard& g : spec.guards) {
    g.mul = (3 + 2 * draw(23)) | 1u;
    g.add = draw(97);
    g.secret = 2 + draw(450);
  }
  spec.crash_secret = 2 + draw(450);
  spec.crash_mul = (3 + 2 * draw(23)) | 1u;
  spec.race_delta_a = 1 + draw(9);
  spec.race_delta_b = 1 + draw(9);
  if (spec.race_write_write && spec.race_delta_a == spec.race_delta_b) {
    spec.race_delta_b += 1;  // Distinct stores, or no order violation.
  }
  spec.spsc_payload = 1 + draw(100);
  for (esd::fuzz::ThreadSpec& t : spec.threads) {
    for (esd::fuzz::NoiseStmt& n : t.noise) {
      n.a = 1 + draw(200);
      n.b = draw(100);
    }
  }
  return esd::fuzz::Materialize(spec);
}

std::string ScenarioName(const esd::fuzz::GeneratedProgram& program,
                         uint64_t seed) {
  return "fuzz:" + std::string(esd::fuzz::BugKindName(program.spec.kind)) +
         ":" + std::to_string(program.spec.seed) + "/" + std::to_string(seed);
}

std::map<std::string, uint64_t> GuardSecrets(const esd::fuzz::ScenarioSpec& spec) {
  std::map<std::string, uint64_t> secrets;
  for (const esd::fuzz::Guard& g : spec.guards) {
    secrets["fz_in" + std::to_string(g.input)] = g.secret;
  }
  if (spec.kind == esd::fuzz::BugKind::kCrash) {
    secrets["fz_crash"] = spec.crash_secret;
  }
  return secrets;
}

std::string CheckSecrets(const std::map<std::string, uint64_t>& secrets,
                         const std::map<std::string, uint64_t>& inputs) {
  for (const auto& [prefix, secret] : secrets) {
    bool seen = false;
    for (const auto& [name, value] : inputs) {
      if (name.substr(0, name.find('#')) == prefix) {
        seen = true;
        if ((value & 0xffffffffu) != secret) {
          return "input " + name + " = " + std::to_string(value) +
                 ", guard secret " + std::to_string(secret);
        }
      }
    }
    if (!seen) {
      return "input " + prefix + " missing from the execution";
    }
  }
  return "";
}

}  // namespace esdbench

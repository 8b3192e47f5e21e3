// Generated scenarios for the triage and service-stream workloads.
#ifndef ESDBENCH_SRC_SCENARIOS_H_
#define ESDBENCH_SRC_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/fuzz/generator.h"

namespace esdbench {

// The size of a generated scenario's shape.
struct ScenarioSize {
  uint32_t threads = 2;
  uint32_t noise_per_thread = 6;
  uint32_t guard_depth = 2;
};

// The generated scenario of `kind` whose structure (the kind and place of
// every noise statement) comes from the fixed `shape` seed, and whose
// constants (guard multipliers, offsets and secrets, crash secret, race
// deltas, noise operands) come from `seed`. Every benchmark seed thus runs
// the same programs with other numbers in them. The shapes are pinned
// small (two worker threads, two locks, two guards, six noise statements
// per thread): a program's search cost moves with its constants, and moves
// least on small shapes, so a corpus of many small programs does nearly
// the same work under every seed (README.md). `size` overrides the thread,
// noise and guard counts.
esd::fuzz::GeneratedProgram GenerateScenario(esd::fuzz::BugKind kind,
                                             uint64_t shape, uint64_t seed,
                                             ScenarioSize size = {});

// "fuzz:<kind>:<shape>/<seed>".
std::string ScenarioName(const esd::fuzz::GeneratedProgram& program,
                         uint64_t seed);

// Input-name prefix -> the only value that passes its guard: the guards
// multiply by odd constants, which are invertible mod 2^32.
std::map<std::string, uint64_t> GuardSecrets(const esd::fuzz::ScenarioSpec& spec);

// Empty if every input of `inputs` named in `secrets` holds its secret and
// every secret is present; otherwise what is wrong.
std::string CheckSecrets(const std::map<std::string, uint64_t>& secrets,
                         const std::map<std::string, uint64_t>& inputs);

}  // namespace esdbench

#endif  // ESDBENCH_SRC_SCENARIOS_H_

// Independent reference computations for the benchmark's output checks.
//
// These never call the engine: they enumerate, in plain arithmetic, every
// critical-section ordering of the two scaling modules of
// bench/scaling_workloads.h, which is what lets the benchmark say in advance
// which constant an ordering can reach (so the engine must find the bug) and
// which none can (so the engine must exhaust the space).
#ifndef ESDBENCH_SRC_REFERENCE_H_
#define ESDBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace esdbench {

// Thread A's update is acc = 3*acc + 1, thread B's is acc = 5*acc + 3, in
// 32-bit arithmetic from acc = 0.
struct Ordering {
  std::string order;  // 'A'/'B' per update, in execution order.
  uint32_t value = 0;
};

// All C(12,6) = 924 orderings of A's six and B's six updates, with the
// accumulator value each leaves (race-scaling's final assert operand).
std::vector<Ordering> RaceFinalValues();

// Every value thread B can read at its gate in deadlock-scaling: B's six
// updates interleaved with the first k of A's, for k = 0..6 (the gate read
// comes after B's sixth update). C(13,6) = 1716 orderings; the 84 with
// k = 3 are the ones the planted inversion relies on.
std::vector<Ordering> DeadlockGateValues();

// Orderings whose value is `value`.
std::vector<std::string> OrderingsReaching(const std::vector<Ordering>& all,
                                           uint32_t value);

// A value no ordering in `all` reaches, drawn from `seed`.
uint32_t UnreachableValue(const std::vector<Ordering>& all, uint64_t seed);

}  // namespace esdbench

#endif  // ESDBENCH_SRC_REFERENCE_H_

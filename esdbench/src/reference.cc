#include "esdbench/src/reference.h"

#include <set>

#include "esdbench/src/bench.h"

namespace esdbench {
namespace {

uint32_t Apply(const std::string& order) {
  uint32_t acc = 0;
  for (char c : order) {
    acc = c == 'A' ? 3u * acc + 1u : 5u * acc + 3u;
  }
  return acc;
}

// Appends every interleaving of `a` A's and `b` B's, extending `prefix`.
void Enumerate(std::string* prefix, int a, int b, std::vector<Ordering>* out) {
  if (a == 0 && b == 0) {
    out->push_back({*prefix, Apply(*prefix)});
    return;
  }
  for (char c : {'A', 'B'}) {
    int& left = c == 'A' ? a : b;
    if (left == 0) {
      continue;
    }
    --left;
    prefix->push_back(c);
    Enumerate(prefix, a, b, out);
    prefix->pop_back();
    ++left;
  }
}

}  // namespace

std::vector<Ordering> RaceFinalValues() {
  std::vector<Ordering> out;
  std::string prefix;
  Enumerate(&prefix, 6, 6, &out);
  return out;
}

std::vector<Ordering> DeadlockGateValues() {
  std::vector<Ordering> out;
  for (int k = 0; k <= 6; ++k) {
    std::string prefix;
    Enumerate(&prefix, k, 6, &out);
  }
  return out;
}

std::vector<std::string> OrderingsReaching(const std::vector<Ordering>& all,
                                           uint32_t value) {
  std::vector<std::string> out;
  for (const Ordering& o : all) {
    if (o.value == value) {
      out.push_back(o.order);
    }
  }
  return out;
}

uint32_t UnreachableValue(const std::vector<Ordering>& all, uint64_t seed) {
  std::set<uint32_t> reached;
  for (const Ordering& o : all) {
    reached.insert(o.value);
  }
  for (uint64_t i = 0;; ++i) {
    // Keep the constant positive as an i32 so the IR text stays plain.
    uint32_t v = static_cast<uint32_t>(Mix(seed ^ (i << 40))) & 0x7fffffffu;
    if (reached.count(v) == 0) {
      return v;
    }
  }
}

}  // namespace esdbench

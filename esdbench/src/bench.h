// esdbench: the end-to-end benchmark of the ESD synthesis pipeline.
//
// One process runs one named workload for a fixed wall-clock budget. Every
// workload is a list of operations (one bug report each) that a pass runs
// in order; all passes do identical work (jobs = 1 is deterministic), so
// only the clock varies between them. See README.md for the workloads, the
// metrics and the estimator.
#ifndef ESDBENCH_SRC_BENCH_H_
#define ESDBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace esdbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// SplitMix64: the benchmark's only source of derived seeds.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- Tracing ---------------------------------------------------------------

// One traced call: [start, end] in seconds since the tracer's origin.
// `parent` indexes the enclosing span (-1 for a root); `req` identifies the
// report or job the span belongs to; `pass` the pass it ran in.
struct Span {
  std::string name;
  int parent = -1;
  uint64_t req = 0;
  uint64_t pass = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, double>> counts;  // Taken at the end.
};

// Records spans in memory while enabled; a disabled tracer records nothing
// and every call on it is a cheap early return.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_pass(uint64_t pass) { pass_ = pass; }

  // Opens a span under the innermost open one; returns its index, or -1
  // when disabled.
  int Begin(const std::string& name, uint64_t req);
  void End(int index);
  // A span known only by its duration (e.g. the engine's own search
  // seconds), placed so that it ends where its parent ends.
  void AddTimed(const std::string& name, uint64_t req, int parent,
                double seconds);
  void Count(int index, const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  uint64_t pass_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, uint64_t req)
      : tracer_(tracer), index_(tracer->Begin(name, req)) {}
  ~Scope() { tracer_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// ---- Passes and workloads ----------------------------------------------------

// One operation's timing in one pass. `wall` is the timed interval the
// end-to-end throughput is made of; `search` the engine's own search
// seconds inside it (0 when the operation did not search).
struct OpSample {
  double wall = 0.0;
  double search = 0.0;
};

struct PassRecord {
  std::vector<OpSample> ops;
  uint64_t reports = 0;  // Reports answered in the pass.
  uint64_t failed = 0;   // Of those, answered with a wrong verdict.
  uint64_t states = 0;   // States created by the pass's searches.
  // Per-layer counts of the pass (identical in every pass).
  std::map<std::string, double> counts;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// A workload owns its inputs and its checks. Failed checks accumulate in
// errors(); the run's `correct` is errors().empty().
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from the seed and runs the independent checks.
  virtual void Setup(uint64_t seed) = 0;
  // Runs pass `pass` (0 is the untimed warm-up pass). Records spans into
  // `tracer` when it is enabled; returns the timings and counts.
  virtual PassRecord RunPass(uint64_t pass, Tracer* tracer) = 0;
  const std::vector<std::string>& errors() const { return errors_; }

 protected:
  // Records a failed check (kept to the first few distinct messages).
  void Check(bool ok, const std::string& what);

 private:
  std::vector<std::string> errors_;
};

std::unique_ptr<Workload> MakeTriage();
std::unique_ptr<Workload> MakePatchCheck();
std::unique_ptr<Workload> MakeServiceStream(const std::string& out_dir);

}  // namespace esdbench

#endif  // ESDBENCH_SRC_BENCH_H_

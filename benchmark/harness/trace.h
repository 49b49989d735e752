// In-memory span recorder for the traced benchmark run.
//
// The harness records a span around each of its own calls into a webcc
// module: name ("<layer>.<call>"), host start and end, the span that caused
// it, and the run or request id it served. Spans stay in memory until the
// run ends, then go to a JSON-lines file and a per-layer self-time table.
// A span's self time is its duration minus the part of its interval that
// its child spans cover (children may overlap when they ran in parallel).

#ifndef WEBCC_BENCHMARK_HARNESS_TRACE_H_
#define WEBCC_BENCHMARK_HARNESS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace webcc::bench {

struct Span {
  uint32_t name = 0;   // index into the tracer's name table
  uint32_t thread = 0;  // small per-thread ordinal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // span id, -1 for a root
  int64_t key = -1;     // run index or request sequence
};

struct LayerTime {
  std::string layer;
  uint64_t spans = 0;
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // summed self times
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Records a finished span and returns its id, or -1 when disabled.
  // Thread-safe.
  int64_t Record(std::string_view name, int64_t start_ns, int64_t end_ns, int64_t parent,
                 int64_t key);
  // Opens a span now, for callers whose children finish before it does;
  // Close stamps its end. Both are no-ops when disabled.
  int64_t Open(std::string_view name, int64_t parent, int64_t key);
  void Close(int64_t id);

  // Self time per layer (the span name up to its first '.'), sorted by name.
  [[nodiscard]] std::vector<LayerTime> SelfTimes() const;
  // Writes one JSON object per span; false if the file cannot be written.
  [[nodiscard]] bool WriteJsonLines(const std::string& path) const;
  [[nodiscard]] size_t size() const;

 private:
  uint32_t Intern(std::string_view name);  // caller holds mu_

  const bool enabled_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
};

}  // namespace webcc::bench

#endif  // WEBCC_BENCHMARK_HARNESS_TRACE_H_

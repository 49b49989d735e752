#include "harness/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <utility>

#include "harness/probe.h"

namespace webcc::bench {

namespace {

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>>& intervals, int64_t lo,
                     int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    const int64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

}  // namespace

uint32_t Tracer::Intern(std::string_view name) {
  const auto [it, inserted] =
      name_ids_.emplace(std::string(name), static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
  }
  return it->second;
}

int64_t Tracer::Record(std::string_view name, int64_t start_ns, int64_t end_ns, int64_t parent,
                       int64_t key) {
  if (!enabled_) {
    return -1;
  }
  const uint32_t thread = ThreadOrdinal();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = Intern(name);
  span.thread = thread;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.key = key;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(std::string_view name, int64_t parent, int64_t key) {
  if (!enabled_) {
    return -1;
  }
  const int64_t now = WallNanos();
  return Record(name, now, now, parent, key);
}

void Tracer::Close(int64_t id) {
  if (id < 0) {
    return;
  }
  const int64_t now = WallNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<LayerTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string& name = names_[span.name];
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t self = duration - CoveredNanos(children[i], span.start_ns, span.end_ns);
    LayerTime& entry = layers[layer];
    entry.layer = layer;
    ++entry.spans;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(self) * 1e-9;
  }
  std::vector<LayerTime> out;
  out.reserve(layers.size());
  for (auto& [layer, entry] : layers) {
    out.push_back(std::move(entry));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"key\":%lld,\"thread\":%u}\n",
                 i, names_[span.name].c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), static_cast<long long>(span.parent),
                 static_cast<long long>(span.key), span.thread);
  }
  return std::fclose(file) == 0;
}

}  // namespace webcc::bench

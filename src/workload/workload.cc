#include "src/workload/workload.h"

#include <algorithm>

#include "src/util/str.h"

namespace webcc {

namespace {

// A stable sort of a sorted stream is the identity, and the generators
// mostly emit sorted streams: checking first costs one pass.
template <typename Event>
void SortByTime(std::vector<Event>& events) {
  if (!std::is_sorted(events.begin(), events.end())) {
    std::stable_sort(events.begin(), events.end());
  }
}

}  // namespace

void Workload::Finalize() {
  SortByTime(modifications);
  SortByTime(requests);
}

std::string Workload::Validate() const {
  for (size_t i = 0; i < objects.size(); ++i) {
    if (objects[i].size_bytes < 0) {
      return StrFormat("object %zu has negative size", i);
    }
    if (objects[i].initial_age < SimDuration(0)) {
      return StrFormat("object %zu has negative initial age", i);
    }
  }
  SimTime prev = SimTime::Epoch();
  for (size_t i = 0; i < modifications.size(); ++i) {
    const auto& m = modifications[i];
    if (m.object_index >= objects.size()) {
      return StrFormat("modification %zu references object %u out of range", i, m.object_index);
    }
    if (m.at < prev) {
      return StrFormat("modification %zu out of order", i);
    }
    if (m.at > horizon) {
      return StrFormat("modification %zu beyond horizon", i);
    }
    prev = m.at;
  }
  prev = SimTime::Epoch();
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& r = requests[i];
    if (r.object_index >= objects.size()) {
      return StrFormat("request %zu references object %u out of range", i, r.object_index);
    }
    if (r.at < prev) {
      return StrFormat("request %zu out of order", i);
    }
    if (r.at > horizon) {
      return StrFormat("request %zu beyond horizon", i);
    }
    prev = r.at;
  }
  return {};
}

int64_t Workload::TotalObjectBytes() const {
  int64_t total = 0;
  for (const auto& obj : objects) {
    total += obj.size_bytes;
  }
  return total;
}

double Workload::MeanObjectBytes() const {
  if (objects.empty()) {
    return 0.0;
  }
  return static_cast<double>(TotalObjectBytes()) / static_cast<double>(objects.size());
}

double Workload::RemoteFraction() const {
  if (requests.empty()) {
    return 0.0;
  }
  uint64_t remote = 0;
  for (const auto& r : requests) {
    if (r.remote) {
      ++remote;
    }
  }
  return static_cast<double>(remote) / static_cast<double>(requests.size());
}

}  // namespace webcc

#include "src/core/fleet.h"

#include <algorithm>
#include <utility>

#include "src/core/sweep_runner.h"
#include "src/origin/server.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace webcc {

namespace {

// One step of a member's subscription-count function of time: the count is
// `level` from `at` until the member's next event.
struct SubscriptionLevel {
  SimTime at;
  size_t level = 0;
};

// Everything one member world produces; summed in member order afterwards.
struct MemberOutcome {
  SimulationResult result;
  size_t final_subscriptions = 0;
  std::vector<SubscriptionLevel> sub_timeline;
};

// Observer wrapper for member worlds: forwards every hook to the caller's
// per-member observer (if any) and records the subscription-count timeline.
// Subscriptions only change inside request handling (preload,
// fetch-subscribe, eviction, snapshot cycles), so sampling after every
// serve captures the exact step function.
class MemberProbe final : public SimObserver {
 public:
  explicit MemberProbe(SimObserver* inner) : inner_(inner) {}

  void OnRunStart(const ProxyCache& cache, const OriginServer& server) override {
    server_ = &server;
    timeline_.push_back({SimTime::Epoch(), server.SubscriptionCount()});
    if (inner_ != nullptr) inner_->OnRunStart(cache, server);
  }
  void OnModification(ObjectId object, SimTime at) override {
    if (inner_ != nullptr) inner_->OnModification(object, at);
  }
  void OnServe(const ServeObservation& observation) override {
    if (inner_ != nullptr) inner_->OnServe(observation);
    const size_t level = server_->SubscriptionCount();
    if (level != timeline_.back().level) {
      timeline_.push_back({observation.at, level});
    }
  }
  void OnRunEnd(const ProxyCache& cache, const OriginServer& server) override {
    final_subscriptions_ = server.SubscriptionCount();
    if (final_subscriptions_ != timeline_.back().level && !cache.stats().requests) {
      // Degenerate no-request run: fold any post-start drift at epoch.
      timeline_.push_back({SimTime::Epoch(), final_subscriptions_});
    }
    if (inner_ != nullptr) inner_->OnRunEnd(cache, server);
  }

  std::vector<SubscriptionLevel> TakeTimeline() { return std::move(timeline_); }
  size_t final_subscriptions() const { return final_subscriptions_; }

 private:
  SimObserver* inner_;
  const OriginServer* server_ = nullptr;
  std::vector<SubscriptionLevel> timeline_;
  size_t final_subscriptions_ = 0;
};

// Replays member `member` in a private world of its own origin (so
// subscription bookkeeping and notice fan-out are per-member and can be
// summed) and its own cache, under its link's faults. The member serves only
// its own requests but sees every modification, applied before its next
// request, which leaves its view identical to a shared-server walk: origin
// state between two of its requests can only matter at its next request.
MemberOutcome RunFleetMember(const Workload& load, const FleetConfig& config, uint32_t member) {
  SimulationConfig sim;
  sim.policy = config.policy;
  sim.refresh_mode = config.refresh_mode;
  sim.preload = config.preload;
  sim.faults = config.faults.ForLink(member);
  MemberProbe probe(config.member_observer ? config.member_observer(member) : nullptr);
  sim.observer = &probe;

  MemberOutcome out;
  out.result = RunMemberSimulation(load, sim, config.num_caches, member);
  out.result.workload_name = StrFormat("%s/fleet-%u", load.name.c_str(), member);
  out.final_subscriptions = probe.final_subscriptions();
  out.sub_timeline = probe.TakeTimeline();
  return out;
}

void AddServerStats(ServerStats& total, const ServerStats& member) {
  total.get_requests += member.get_requests;
  total.ims_queries += member.ims_queries;
  total.ims_not_modified += member.ims_not_modified;
  total.invalidations_sent += member.invalidations_sent;
  total.invalidation_retries += member.invalidation_retries;
  total.invalidations_lost += member.invalidations_lost;
  total.invalidations_queued += member.invalidations_queued;
  total.invalidations_redelivered += member.invalidations_redelivered;
  total.invalidations_delivered += member.invalidations_delivered;
  total.invalidations_undeliverable += member.invalidations_undeliverable;
  total.files_transferred += member.files_transferred;
  total.bytes_sent += member.bytes_sent;
  total.bytes_received += member.bytes_received;
}

// True fleet-wide concurrent subscription peak: k-way merge of the member
// step functions. Events are flattened, stably sorted by time (member order
// breaks ties, deterministically), and each timestamp's changes apply
// atomically before the summed level is compared against the peak.
size_t ConcurrentSubscriptionPeak(const std::vector<MemberOutcome>& outcomes) {
  struct Event {
    SimTime at;
    uint32_t member;
    size_t level;
  };
  std::vector<Event> events;
  for (uint32_t member = 0; member < outcomes.size(); ++member) {
    for (const SubscriptionLevel& step : outcomes[member].sub_timeline) {
      events.push_back({step.at, member, step.level});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  std::vector<size_t> current(outcomes.size(), 0);
  size_t total = 0;
  size_t peak = 0;
  for (size_t i = 0; i < events.size();) {
    const SimTime at = events[i].at;
    for (; i < events.size() && events[i].at == at; ++i) {
      const Event& e = events[i];
      total = total - current[e.member] + e.level;
      current[e.member] = e.level;
    }
    peak = std::max(peak, total);
  }
  return peak;
}

}  // namespace

double FleetResult::WorstMemberStaleRate() const {
  double worst = 0.0;
  for (const FleetMemberSummary& m : members) {
    worst = std::max(worst, m.StaleRate());
  }
  return worst;
}

uint32_t FleetResult::DarkMembers() const {
  uint32_t dark = 0;
  for (const FleetMemberSummary& m : members) {
    if (m.crashes > 0 || m.failed_requests > 0) {
      ++dark;
    }
  }
  return dark;
}

double FleetResult::FanOutAmplification() const {
  return modifications == 0 ? 0.0
                            : static_cast<double>(server.invalidations_sent) /
                                  static_cast<double>(modifications);
}

FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config,
                               SweepRunner& runner) {
  WEBCC_CHECK_GT(config.num_caches, 0);
  WEBCC_CHECK(load.Validate().empty());

  // One slot per member, written only by that member's task: the merge below
  // runs in member order, so the result is independent of completion order.
  std::vector<MemberOutcome> outcomes(config.num_caches);
  runner.ParallelFor(config.num_caches, [&load, &config, &outcomes](size_t member) {
    outcomes[member] = RunFleetMember(load, config, static_cast<uint32_t>(member));
  });

  FleetResult result;
  result.policy_desc = outcomes.front().result.policy_desc;
  result.num_caches = config.num_caches;
  result.modifications = load.modifications.size();
  result.members.reserve(config.num_caches);
  for (uint32_t member = 0; member < config.num_caches; ++member) {
    const MemberOutcome& out = outcomes[member];
    const CacheStats& cache = out.result.cache;
    AddServerStats(result.server, out.result.server);
    result.requests += cache.requests;
    result.stale_hits += cache.stale_hits;
    result.misses += cache.Misses();
    result.total_link_bytes += cache.LinkBytes();
    result.final_subscriptions += out.final_subscriptions;
    FleetMemberSummary summary;
    summary.member = member;
    summary.requests = cache.requests;
    summary.stale_hits = cache.stale_hits;
    summary.degraded_serves = cache.degraded_serves;
    summary.failed_requests = cache.failed_requests;
    summary.crashes = cache.crashes;
    summary.unavailable_seconds = cache.unavailable_seconds;
    result.members.push_back(summary);
  }
  result.peak_subscriptions = ConcurrentSubscriptionPeak(outcomes);
  if (config.keep_member_results) {
    result.member_results.reserve(config.num_caches);
    for (MemberOutcome& out : outcomes) {
      result.member_results.push_back(std::move(out.result));
    }
  }
  return result;
}

FleetResult RunFleetSimulation(const Workload& load, const FleetConfig& config) {
  SweepRunner serial(1);
  return RunFleetSimulation(load, config, serial);
}

}  // namespace webcc

#include "src/cli/serve_driver.h"

#include <cmath>
#include <fstream>
#include <ostream>

#include "src/cli/args.h"
#include "src/cli/driver.h"
#include "src/serve/frontend.h"
#include "src/util/str.h"

namespace webcc {

namespace {

constexpr const char kHelp[] = R"(webcc-serve: wall-clock serving frontend over the live cache world

Drives the live simulator's population, origin, and proxy cache as a
real-time service: an elastic worker pool serves requests at wall-clock
rates while simulated time advances at --time-scale. Overload machinery —
bounded admission, per-request deadlines, origin circuit breaking, bounded
serve-stale degradation — is always on and fully counted; the final line is
a machine-readable JSON metrics snapshot.

Wall durations (WDUR) take ns/us/ms/s/m suffixes; a bare number means
milliseconds. Simulated durations (DUR) use the webcc-sim grammar
(s/m/h/d, bare = seconds).

World:
  --policy=NAME          consistency policy and its knobs, same grammar as
                         webcc-sim (ttl, alex, squid, cern, adaptive,
                         invalidation)                      (default: alex)
  --mode=base|optimized  full refetch vs conditional GET    (default: optimized)
  --no-preload           start with a cold cache
  --files=N              population size                    (default: 2085)
  --seed=N               world + arrival seed               (default: 19960101)
  --time-scale=F         simulated seconds per wall second  (default: 3600)
  --stale-bound=DUR      stale-if-error bound, sim time; 0 = unbounded
                                                            (default: 2h)

Frontend:
  --workers-min=N        resident worker threads            (default: 1)
  --workers-max=N        elastic worker ceiling             (default: 8)
  --worker-idle=WDUR     surplus-worker idle timeout        (default: 200ms)
  --queue-depth=N        admission capacity, queued+running (default: 64)
  --deadline=WDUR        per-request budget                 (default: 50ms)
  --retry-max=N          total origin attempts per request  (default: 3)
  --retry-backoff=WDUR   initial retry backoff              (default: 5ms)
  --retry-max-backoff=WDUR  backoff cap                     (default: 40ms)
  --retry-jitter[=BOOL]  full-jitter backoff (seeded)       (default: off)
  --service-time=WDUR    modeled origin service time        (default: 1ms)
  --fail-timeout=WDUR    modeled failed-contact discovery   (default: 5ms)
  --breaker-threshold=N  consecutive failures that open     (default: 5)
  --breaker-cooldown=WDUR  open-state cooldown before probe (default: 100ms)

Load:
  --rate=F               offered requests per second        (default: 200)
  --duration=WDUR        offered-load length                (default: 2s)
  --snapshot-interval=WDUR  live status-line cadence; 0 = none
                                                            (default: 500ms)
  --outage-start=WDUR    origin outage start, from run start (default: never)
  --outage-duration=WDUR origin outage length               (default: 0)

Output and acceptance:
  --metrics-json=PATH    also write the final JSON snapshot to PATH
  --expect-shed          exit 1 unless the run shed load
  --expect-degraded      exit 1 unless stale-if-error serves happened
  --expect-breaker       exit 1 unless the breaker opened AND recovered
                         via a half-open probe
  --help                 this text
)";

// Invariants every run must satisfy regardless of load; a violation is a
// frontend bug, reported distinctly from unmet --expect-* hopes.
bool SelfCheck(const ServeMetricsSnapshot& snap, std::ostream& err) {
  bool ok = true;
  const auto fail = [&](const std::string& what) {
    err << "self-check failed: " << what << "\n";
    ok = false;
  };
  if (snap.offered != snap.shed_queue_full + snap.OutcomeTotal()) {
    fail(StrFormat("conservation: offered %llu != shed %llu + outcomes %llu",
                   static_cast<unsigned long long>(snap.offered),
                   static_cast<unsigned long long>(snap.shed_queue_full),
                   static_cast<unsigned long long>(snap.OutcomeTotal())));
  }
  if (snap.admitted != snap.OutcomeTotal()) {
    fail(StrFormat("drain: admitted %llu != outcomes %llu",
                   static_cast<unsigned long long>(snap.admitted),
                   static_cast<unsigned long long>(snap.OutcomeTotal())));
  }
  if (snap.queue_depth_peak > snap.queue_capacity) {
    fail(StrFormat("admission: queue depth peak %llu exceeded capacity %llu",
                   static_cast<unsigned long long>(snap.queue_depth_peak),
                   static_cast<unsigned long long>(snap.queue_capacity)));
  }
  if (snap.attempts_past_deadline != 0) {
    fail(StrFormat("deadline: %llu origin attempts began past their deadline",
                   static_cast<unsigned long long>(snap.attempts_past_deadline)));
  }
  if (snap.staleness_bound_seconds > 0 &&
      snap.max_served_staleness_seconds > snap.staleness_bound_seconds) {
    fail(StrFormat("staleness: served %lld s stale, bound %lld s",
                   static_cast<long long>(snap.max_served_staleness_seconds),
                   static_cast<long long>(snap.staleness_bound_seconds)));
  }
  return ok;
}

}  // namespace

std::string ServeCliHelpText() { return std::string(kHelp); }

int RunServeCliDriver(const std::vector<std::string>& args_vec, std::ostream& out,
                      std::ostream& err) {
  ArgParser args(args_vec);
  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  if (args.GetBool("help")) {
    out << kHelp;
    return 0;
  }

  const auto policy = ParsePolicyFlags(args, err);
  if (!policy) {
    return 2;
  }

  ServeFrontendOptions options;
  options.world.policy = *policy;
  const std::string mode = ToLower(args.GetString("mode", "optimized"));
  if (mode == "base") {
    options.world.refresh_mode = RefreshMode::kFullRefetch;
  } else if (mode == "optimized") {
    options.world.refresh_mode = RefreshMode::kConditionalGet;
  } else {
    err << "error: unknown --mode '" << mode << "'\n";
    return 2;
  }
  options.world.preload = !args.GetBool("no-preload");
  options.world.num_files =
      static_cast<uint32_t>(args.GetIntInRange("files", options.world.num_files, 1, 10'000'000));
  options.world.seed =
      static_cast<uint64_t>(args.GetInt("seed", static_cast<int64_t>(options.world.seed)));
  options.time_scale = args.GetDouble("time-scale", options.time_scale);
  if (!std::isfinite(options.time_scale) || options.time_scale <= 0.0) {
    err << "error: --time-scale must be a finite positive number\n";
    return 2;
  }
  options.stale_serve_bound = args.GetDuration("stale-bound", options.stale_serve_bound);

  const int64_t workers_min = args.GetInt("workers-min", 1);
  const int64_t workers_max = args.GetInt("workers-max", 8);
  if (workers_min < 1 || workers_max < workers_min || workers_max > 256) {
    err << "error: --workers-min/--workers-max must satisfy 1 <= min <= max <= 256\n";
    return 2;
  }
  options.workers_min = static_cast<size_t>(workers_min);
  options.workers_max = static_cast<size_t>(workers_max);
  const int64_t worker_idle_ns = args.GetWallNanos("worker-idle", 200'000'000);
  options.worker_idle_timeout_ms = std::max<int64_t>(1, worker_idle_ns / 1'000'000);
  options.queue_depth = static_cast<size_t>(args.GetIntInRange("queue-depth", 64, 1, 1'000'000));
  options.deadline_ns = args.GetWallNanos("deadline", options.deadline_ns);
  if (options.deadline_ns <= 0) {
    err << "error: --deadline must be > 0\n";
    return 2;
  }
  options.retry.max_attempts =
      static_cast<int>(args.GetIntInRange("retry-max", options.retry.max_attempts, 1, 100));
  options.retry.initial_backoff_ns =
      args.GetWallNanos("retry-backoff", options.retry.initial_backoff_ns);
  options.retry.max_backoff_ns =
      args.GetWallNanos("retry-max-backoff", options.retry.max_backoff_ns);
  options.retry.full_jitter = args.GetBool("retry-jitter", options.retry.full_jitter);
  options.service_time_ns = args.GetWallNanos("service-time", options.service_time_ns);
  options.fail_timeout_ns = args.GetWallNanos("fail-timeout", options.fail_timeout_ns);
  options.breaker_failure_threshold =
      static_cast<int>(args.GetIntInRange("breaker-threshold", 5, 1, 1'000'000));
  options.breaker_cooldown_ns = args.GetWallNanos("breaker-cooldown", options.breaker_cooldown_ns);
  if (args.Has("outage-start")) {
    options.outage_start_ns = args.GetWallNanos("outage-start", 0);
    options.outage_duration_ns = args.GetWallNanos("outage-duration", 0);
    if (options.outage_duration_ns <= 0) {
      err << "error: --outage-start needs --outage-duration > 0\n";
      return 2;
    }
  } else if (args.Has("outage-duration")) {
    err << "error: --outage-duration needs --outage-start\n";
    return 2;
  }

  const double rate = args.GetDouble("rate", 200.0);
  if (!std::isfinite(rate) || rate <= 0.0 || rate > 10'000'000.0) {
    err << "error: --rate must be a finite rate in (0, 10000000]\n";
    return 2;
  }
  const int64_t duration_ns = args.GetWallNanos("duration", 2'000'000'000);
  if (duration_ns <= 0) {
    err << "error: --duration must be > 0\n";
    return 2;
  }
  const int64_t snapshot_interval_ns = args.GetWallNanos("snapshot-interval", 500'000'000);
  const std::string metrics_json = args.GetString("metrics-json", "");
  const bool expect_shed = args.GetBool("expect-shed");
  const bool expect_degraded = args.GetBool("expect-degraded");
  const bool expect_breaker = args.GetBool("expect-breaker");

  if (!args.ok()) {
    err << "error: " << args.error() << "\n";
    return 2;
  }
  const auto unused = args.UnusedFlags();
  if (!unused.empty()) {
    err << "error: unknown flag --" << unused.front() << " (see --help)\n";
    return 2;
  }

  ServeFrontend frontend(options, RealWallClock());
  frontend.Start();
  frontend.RunOfferedLoad(rate, duration_ns, snapshot_interval_ns,
                          [&out](const ServeMetricsSnapshot& snap) {
                            out << snap.StatusLine() << "\n";
                          });
  frontend.Stop();
  const ServeMetricsSnapshot final_snap = frontend.Snapshot();
  out << final_snap.StatusLine() << "\n";
  out << final_snap.ToJson() << "\n";
  if (!metrics_json.empty()) {
    std::ofstream file(metrics_json, std::ios::trunc);
    file << final_snap.ToJson() << "\n";
    if (!file) {
      err << "error: cannot write --metrics-json file '" << metrics_json << "'\n";
      return 2;
    }
  }

  int exit_code = 0;
  if (!SelfCheck(final_snap, err)) {
    exit_code = 1;
  }
  if (expect_shed && final_snap.shed_queue_full == 0) {
    err << "expectation failed: no load was shed (--expect-shed)\n";
    exit_code = 1;
  }
  if (expect_degraded && final_snap.served_degraded == 0) {
    err << "expectation failed: no stale-if-error serves (--expect-degraded)\n";
    exit_code = 1;
  }
  if (expect_breaker &&
      (final_snap.breaker_opened == 0 || final_snap.breaker_closed_from_half_open == 0)) {
    err << "expectation failed: breaker never completed an open -> half-open -> closed "
           "cycle (--expect-breaker)\n";
    exit_code = 1;
  }
  return exit_code;
}

}  // namespace webcc

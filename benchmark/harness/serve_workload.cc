// serve-open: ServeFrontend under an open-loop, seeded, uniform request
// stream offered by one generator thread (the caller's).
//
// The frontend runs webcc-serve's defaults except service_time = 0 (the
// frontend itself sets capacity), workers = nproc - 1, and a 200 k-object
// population, whose entry table and pending-event heap outgrow the CPU
// caches. An overload phase at a fixed rate several times capacity is
// followed, on a fresh frontend, by a light phase at a fixed rate far below
// capacity. This is the only workload that runs admission,
// ElasticThreadPool, the breaker, cache_mu_ and the per-request RunUntil;
// it bypasses the sweep pool and the replay kernel.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/digest.h"
#include "harness/workloads.h"
#include "src/cache/origin_upstream.h"
#include "src/cache/policy_factory.h"
#include "src/cache/proxy_cache.h"
#include "src/core/live_simulation.h"
#include "src/origin/mutator.h"
#include "src/origin/server.h"
#include "src/serve/frontend.h"
#include "src/serve/origin_gate.h"
#include "src/serve/wall_clock.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace webcc::bench {

namespace {

constexpr uint32_t kObjects = 200'000;
constexpr int kSetupRepeats = 5;
constexpr double kLightRate = 5'000.0;         // requests/s, far below capacity
constexpr double kOverloadRate = 1'200'000.0;  // requests/s, several times capacity
constexpr double kLightShare = 0.2;            // of the timed seconds
// Untimed warm-ups before each phase kind. Overload runs before light: for
// ~1.5 s of overload right after a light phase, goodput sat near a quarter
// of capacity while the workers together got about half a core (measured
// on a 4-vCPU host). Slow starts still happen now and then on a busy host;
// the overload warm-up and the median over windows absorb them.
constexpr int64_t kLightWarmupNs = 500'000'000;
constexpr int64_t kOverloadWarmupNs = 2'000'000'000;
constexpr int64_t kWindowNs = 250'000'000;     // overload goodput window
constexpr uint64_t kSpanSample = 64;           // traced: one submit span in 64

ServeFrontendOptions ServeOptions(uint64_t seed) {
  ServeFrontendOptions options;
  options.world.policy = PolicyConfig::Alex(0.10);  // webcc-serve's default
  options.world.num_files = kObjects;
  options.world.seed = 19960101 + seed;
  options.workers_max = std::max<size_t>(1, Nproc() - 1);
  options.service_time_ns = 0;
  return options;
}

// ServeFrontend::SimTimeFor, for a clock that started at 0.
SimTime SimTimeAt(const ServeFrontendOptions& options, int64_t elapsed_ns) {
  return SimTime::Epoch() +
         SecondsF(static_cast<double>(std::max<int64_t>(0, elapsed_ns)) * 1e-9 *
                  options.time_scale);
}

// A single-threaded world built the way ServeFrontend's constructor builds
// it (same seed, same draw order), stepped the way ProcessRequest steps it
// under cache_mu_.
class ServeWorld {
 public:
  ServeWorld(const ServeFrontendOptions& options, WallClock* clock)
      : server_(&engine_, options.world.invalidation_retry_interval),
        upstream_(&server_),
        gate_(&upstream_, clock),
        now_(SimTime::Epoch()) {
    Rng rng(options.world.seed);
    const LivePopulation population = SeedLivePopulation(options.world, server_, rng);
    CacheConfig cache_config;
    cache_config.refresh_mode = options.world.refresh_mode;
    cache_config.stale_serve_bound = options.stale_serve_bound;
    cache_ = std::make_unique<ProxyCache>("serve-proxy", &gate_, MakePolicy(options.world.policy),
                                          cache_config, &server_.store());
    if (options.world.preload) {
      cache_->Preload(server_.store(), SimTime::Epoch());
    }
    server_.ResetStats();
    cache_->ResetStats();
    mutator_ = std::make_unique<ModificationProcess>(&engine_, &server_, rng.Fork());
    for (uint32_t i = 0; i < options.world.num_files; ++i) {
      mutator_->Track(static_cast<ObjectId>(i), population.lifetime, population.first_delays[i]);
    }
  }

  void Step(ObjectId object, SimTime target) {
    if (target > now_) {
      engine_.RunUntil(target);
      now_ = target;
    }
    cache_->HandleRequest(object, now_);
  }

  [[nodiscard]] const CacheStats& stats() const { return cache_->stats(); }
  [[nodiscard]] size_t pending_events() const { return engine_.pending_events(); }

 private:
  SimEngine engine_;
  OriginServer server_;
  OriginUpstream upstream_;
  OriginGate gate_;
  std::unique_ptr<ProxyCache> cache_;
  std::unique_ptr<ModificationProcess> mutator_;
  SimTime now_;
};

// Which requests of a phase have their SubmitRequest timed and spanned.
// kAlternateWindows traces every other goodput window, so a traced run's
// traced and untraced windows share one phase and one machine state.
enum class Tracing { kOff, kAll, kAlternateWindows };

// What one offered-load phase measured.
struct Phase {
  double wall_s = 0.0;
  uint64_t offered = 0;
  uint64_t due = 0;
  double frontend_cpu_s = 0.0;  // process CPU minus the generator thread's
  ServeMetricsSnapshot before;
  ServeMetricsSnapshot after;
  LogHistogram late_ns;
  LogHistogram submit_admitted_ns;         // traced requests only
  LogHistogram submit_shed_ns;             // traced requests only
  std::vector<PassSample> windows;         // untraced goodput windows
  std::vector<PassSample> traced_windows;  // kAlternateWindows only

  [[nodiscard]] uint64_t Delta(uint64_t ServeMetricsSnapshot::*field) const {
    return after.*field - before.*field;
  }
  [[nodiscard]] uint64_t Processed() const {
    return Delta(&ServeMetricsSnapshot::served_ok) +
           Delta(&ServeMetricsSnapshot::served_degraded) + Delta(&ServeMetricsSnapshot::failed);
  }
};

// Offers `rate` requests/s for `duration_ns` from this thread: request k is
// due at start + k/rate whether or not earlier ones were admitted, and its
// lateness is its submit time minus its due time. The loop spins rather
// than sleeps so lateness measures the generator, not timer slack. With
// `windows`, the phase is cut into kWindowNs goodput windows.
Phase OfferLoad(ServeFrontend& frontend, Rng& arrivals, double rate, int64_t duration_ns,
                bool windows, Tracing tracing, Tracer& tracer, const char* span_name) {
  Phase phase;
  const double gap_ns = 1e9 / rate;
  const int64_t span = tracing == Tracing::kOff ? -1 : tracer.Open(span_name, -1, -1);
  bool traced = tracing == Tracing::kAll;
  phase.before = frontend.Snapshot();
  const int64_t cpu_start = ProcessCpuNanos();
  const int64_t gen_cpu_start = ThreadCpuNanos();
  const int64_t start = WallNanos();
  const int64_t end = start + duration_ns;
  int64_t window_start = start;
  ServeMetricsSnapshot window_before = phase.before;
  int64_t window_cpu = cpu_start;
  int64_t window_gen_cpu = gen_cpu_start;
  while (true) {
    const int64_t now = WallNanos();
    if (now >= end) {
      break;
    }
    if (windows && now - window_start >= kWindowNs) {
      const ServeMetricsSnapshot snap = frontend.Snapshot();
      const int64_t cpu = ProcessCpuNanos();
      const int64_t gen_cpu = ThreadCpuNanos();
      PassSample window;
      window.wall_s = static_cast<double>(now - window_start) * 1e-9;
      window.cpu_s = static_cast<double>((cpu - window_cpu) - (gen_cpu - window_gen_cpu)) * 1e-9;
      window.ok_requests = snap.served_ok - window_before.served_ok;
      window.requests = window.ok_requests +
                        (snap.served_degraded - window_before.served_degraded) +
                        (snap.failed - window_before.failed);
      (traced ? phase.traced_windows : phase.windows).push_back(window);
      if (tracing == Tracing::kAlternateWindows) {
        traced = !traced;
      }
      window_start = now;
      window_before = snap;
      window_cpu = cpu;
      window_gen_cpu = gen_cpu;
      continue;
    }
    // Request k is due at start + k * gap (computed, not accumulated).
    const double due = static_cast<double>(start) + static_cast<double>(phase.offered) * gap_ns;
    if (static_cast<double>(now) < due) {
      continue;
    }
    const auto object = static_cast<ObjectId>(arrivals.UniformInt(0, kObjects - 1));
    const bool admitted = frontend.SubmitRequest(object);
    if (traced) {
      const int64_t after = WallNanos();
      (admitted ? phase.submit_admitted_ns : phase.submit_shed_ns).Add(after - now);
      if (phase.offered % kSpanSample == 0) {
        tracer.Record("serve.submit", now, after, span, static_cast<int64_t>(phase.offered));
      }
    }
    phase.late_ns.Add(now - static_cast<int64_t>(due));
    ++phase.offered;
  }
  const int64_t stop = WallNanos();
  phase.wall_s = static_cast<double>(stop - start) * 1e-9;
  phase.frontend_cpu_s =
      static_cast<double>((ProcessCpuNanos() - cpu_start) - (ThreadCpuNanos() - gen_cpu_start)) *
      1e-9;
  phase.due = static_cast<uint64_t>(std::ceil(static_cast<double>(duration_ns) / gap_ns));
  phase.after = frontend.Snapshot();
  tracer.Close(span);
  return phase;
}

void PrintPhase(const char* name, const Phase& phase) {
  std::printf("%s: %.3f s, offered %llu of %llu due, admitted %llu, served ok %llu, shed %llu, "
              "generator late p50 %.1f us p99 %.1f us\n",
              name, phase.wall_s, static_cast<unsigned long long>(phase.offered),
              static_cast<unsigned long long>(phase.due),
              static_cast<unsigned long long>(phase.Delta(&ServeMetricsSnapshot::admitted)),
              static_cast<unsigned long long>(phase.Delta(&ServeMetricsSnapshot::served_ok)),
              static_cast<unsigned long long>(phase.Delta(&ServeMetricsSnapshot::shed_queue_full)),
              phase.late_ns.Quantile(0.5) * 1e-3, phase.late_ns.Quantile(0.99) * 1e-3);
  if (!phase.windows.empty()) {
    std::vector<double> goodput;
    for (const PassSample& w : phase.windows) {
      goodput.push_back(static_cast<double>(w.ok_requests) / w.wall_s * 1e-3);
    }
    std::printf("  %zu goodput windows: quartiles %.1f / %.1f / %.1f k req/s\n", goodput.size(),
                Quantile(goodput, 0.25), Quantile(goodput, 0.5), Quantile(goodput, 0.75));
  }
}

// webcc-serve's self-check identities on the drained frontend; returns the
// number of requests by which they are broken (0 when all hold).
uint64_t SelfCheckGap(const ServeMetricsSnapshot& snap, uint64_t offered_by_generator) {
  const auto gap = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  uint64_t broken = gap(snap.offered, snap.shed_queue_full + snap.OutcomeTotal());
  broken += gap(snap.admitted, snap.OutcomeTotal());
  broken += gap(snap.offered, offered_by_generator);
  broken += snap.queue_depth_peak > snap.queue_capacity ? 1 : 0;
  broken += snap.attempts_past_deadline;
  if (snap.staleness_bound_seconds > 0 &&
      snap.max_served_staleness_seconds > snap.staleness_bound_seconds) {
    ++broken;
  }
  std::printf("check: offered %llu (generator %llu) = shed %llu + outcomes %llu; admitted %llu; "
              "queue peak %llu / %llu; attempts past deadline %llu; max staleness %lld s "
              "(bound %lld s) -> %s\n",
              static_cast<unsigned long long>(snap.offered),
              static_cast<unsigned long long>(offered_by_generator),
              static_cast<unsigned long long>(snap.shed_queue_full),
              static_cast<unsigned long long>(snap.OutcomeTotal()),
              static_cast<unsigned long long>(snap.admitted),
              static_cast<unsigned long long>(snap.queue_depth_peak),
              static_cast<unsigned long long>(snap.queue_capacity),
              static_cast<unsigned long long>(snap.attempts_past_deadline),
              static_cast<long long>(snap.max_served_staleness_seconds),
              static_cast<long long>(snap.staleness_bound_seconds), broken == 0 ? "ok" : "BROKEN");
  return broken;
}

// Probe: a ManualWallClock frontend with one worker serves kRequests
// requests one at a time; a ServeWorld stepped with the same objects at the
// same simulated instants must end with identical cache statistics. The
// check counts as kRequests outputs, all failed when the stats differ.
void MirrorCheck(const ServeFrontendOptions& base, Rng& arrivals, Tracer& tracer,
                 RunResult* checks) {
  constexpr int kRequests = 2000;
  constexpr int64_t kStepNs = 10'000'000;        // 36 simulated seconds apart
  constexpr int64_t kWaitLimitNs = 5'000'000'000;  // per request, on the host clock
  ServeFrontendOptions options = base;
  options.workers_min = 1;
  options.workers_max = 1;
  ManualWallClock clock(0);
  ServeFrontend frontend(options, &clock);
  ServeWorld world(options, &clock);
  frontend.Start();
  const int64_t span = tracer.Open("serve.mirror_check", -1, -1);
  bool served = true;
  for (int i = 1; i <= kRequests && served; ++i) {
    clock.Advance(kStepNs);
    const auto object = static_cast<ObjectId>(arrivals.UniformInt(0, kObjects - 1));
    served = frontend.SubmitRequest(object);
    const int64_t wait_start = WallNanos();
    while (served && frontend.Snapshot().OutcomeTotal() < static_cast<uint64_t>(i)) {
      served = WallNanos() - wait_start < kWaitLimitNs;
    }
    world.Step(object, SimTimeAt(options, clock.NowNanos()));
  }
  tracer.Close(span);
  frontend.Stop();
  const bool same = served && Digest(frontend.Snapshot().cache) == Digest(world.stats());
  std::printf("probe serve mirror: %d serial requests, frontend and single-threaded world "
              "stats %s\n",
              kRequests, same ? "equal" : (served ? "DIFFER" : "unavailable (a request stalled)"));
  checks->Check(same, kRequests);
}

// Probe: steps a fresh single-threaded world at the overload phase's
// simulated-time step; returns the median ns per step over batches.
double WorldStepProbe(const ServeFrontendOptions& options, double sim_step_s, Rng& arrivals,
                      Tracer& tracer, size_t* pending_events) {
  constexpr int kBatches = 200;
  constexpr int kBatch = 1024;
  ServeWorld world(options, RealWallClock());
  const int64_t root = tracer.Open("serve.world_step_probe", -1, -1);
  std::vector<double> per_step;
  double sim_s = 0.0;
  std::vector<ObjectId> objects(kBatch);
  for (int b = 0; b < kBatches; ++b) {
    for (ObjectId& object : objects) {
      object = static_cast<ObjectId>(arrivals.UniformInt(0, kObjects - 1));
    }
    const int64_t start = WallNanos();
    for (const ObjectId object : objects) {
      sim_s += sim_step_s;
      world.Step(object, SimTime::Epoch() + SecondsF(sim_s));
    }
    const int64_t end = WallNanos();
    tracer.Record("serve.world_step_batch", start, end, root, b);
    per_step.push_back(static_cast<double>(end - start) / kBatch);
  }
  tracer.Close(root);
  *pending_events = world.pending_events();
  return Median(per_step);
}

// The traced run's per-layer metrics: the traced overload windows against
// the untraced ones (`untraced`), the traced light phase, the world-step
// probe, and the mirror check (whose outputs count into `checks`).
std::vector<Metric> ServeLayers(const ServeFrontendOptions& serve, double setup_s,
                                const EndToEnd& untraced, const Phase& overload,
                                const Phase& light, Rng& arrivals, Tracer& tracer,
                                RunResult* checks) {
  // Traced and untraced windows interleave. Tracing times SubmitRequest on
  // the generator thread, whose CPU the per-request figure leaves out, so
  // the overhead is the goodput the traced windows lose.
  const EndToEnd traced = SummarizePasses(overload.traced_windows, setup_s);
  PrintTracingOverhead(untraced, traced);
  const double processed = static_cast<double>(std::max<uint64_t>(1, overload.Processed()));
  const double sim_step_s = serve.time_scale * overload.wall_s / processed;
  size_t pending = 0;
  const double step_ns = WorldStepProbe(serve, sim_step_s, arrivals, tracer, &pending);
  std::printf("probe world step: %.1f ns per RunUntil + HandleRequest at %.4f sim s/request, "
              "%zu pending events\n",
              step_ns, sim_step_s, pending);
  MirrorCheck(serve, arrivals, tracer, checks);

  const auto offered =
      static_cast<double>(std::max<uint64_t>(1, overload.Delta(&ServeMetricsSnapshot::offered)));
  const auto light_processed = static_cast<double>(std::max<uint64_t>(1, light.Processed()));
  const auto light_latencies =
      static_cast<double>(std::max<uint64_t>(1, light.Delta(&ServeMetricsSnapshot::latency_count)));
  const auto light_latency_sum =
      static_cast<double>(light.after.latency_sum_ns - light.before.latency_sum_ns);
  return {
      {"serve.construct_s", setup_s, "s"},
      {"serve.submit_admitted_ns_p50", overload.submit_admitted_ns.Quantile(0.5), "ns"},
      {"serve.submit_admitted_ns_p99", overload.submit_admitted_ns.Quantile(0.99), "ns"},
      {"serve.submit_shed_ns_p50", overload.submit_shed_ns.Quantile(0.5), "ns"},
      {"serve.submit_shed_ns_p99", overload.submit_shed_ns.Quantile(0.99), "ns"},
      {"serve.world_step_ns", step_ns, "ns"},
      {"sim.pending_events", static_cast<double>(pending), "count"},
      {"serve.worker_ns_per_req",
       static_cast<double>(serve.workers_max) * overload.wall_s * 1e9 / processed - step_ns, "ns"},
      {"serve.shed_share",
       static_cast<double>(overload.Delta(&ServeMetricsSnapshot::shed_queue_full)) / offered,
       "ratio"},
      {"serve.queue_depth_peak", static_cast<double>(overload.after.queue_depth_peak), "count"},
      {"serve.workers_peak", static_cast<double>(overload.after.workers_peak), "count"},
      {"serve.latency_mean_us", light_latency_sum / light_latencies * 1e-3, "us"},
      {"serve.latency_max_us", static_cast<double>(light.after.latency_max_ns) * 1e-3, "us"},
      {"serve.cpu_us_per_req", light.frontend_cpu_s * 1e6 / light_processed, "us"},
      {"serve.gen_late_us_p50", overload.late_ns.Quantile(0.5) * 1e-3, "us"},
      {"serve.gen_late_us_p99", overload.late_ns.Quantile(0.99) * 1e-3, "us"},
      {"trace.overhead_pct", PercentAbove(untraced.goodput_kreq_per_s, traced.goodput_kreq_per_s),
       "%"},
  };
}

}  // namespace

RunResult RunServeOpen(const RunOptions& options, Tracer& tracer) {
  if (options.print_digests) {
    std::fprintf(stderr, "error: serve-open runs on the wall clock and has no digests\n");
    std::exit(2);
  }
  const ServeFrontendOptions serve = ServeOptions(options.seed);
  Rng arrivals(SplitMix64(serve.world.seed ^ 0x6f70656eULL).Next());

  // Setup: construct + Start once untimed (the first runs ~20 % slower),
  // then kSetupRepeats timed times; the last frontend serves the run.
  // setup_s is the median process CPU time of the timed constructions: the
  // previous frontend's workers are joined first and Start spawns its pool
  // idle, so that is all the set-up work, without the time a busy host kept
  // the thread off a CPU.
  std::vector<double> setups;
  std::vector<double> setup_walls;
  auto frontend = std::make_unique<ServeFrontend>(serve, RealWallClock());
  frontend->Start();
  for (int i = 0; i < kSetupRepeats; ++i) {
    frontend.reset();
    const int64_t cpu_start = ProcessCpuNanos();
    const int64_t start = WallNanos();
    frontend = std::make_unique<ServeFrontend>(serve, RealWallClock());
    frontend->Start();
    const int64_t end = WallNanos();
    setups.push_back(static_cast<double>(ProcessCpuNanos() - cpu_start) * 1e-9);
    setup_walls.push_back(static_cast<double>(end - start) * 1e-9);
    tracer.Record("serve.construct", start, end, -1, i);
  }
  const double setup_s = Median(setups);
  std::printf("setup: ServeFrontend with %u objects, %zu workers max, seed %llu: median %.4f s "
              "cpu (%.4f s wall) over %d timed constructions\n",
              kObjects, serve.workers_max, static_cast<unsigned long long>(serve.world.seed),
              setup_s, Median(setup_walls), kSetupRepeats);

  // Timed phases. Overload runs first, on the frontend the setup built; a
  // traced run traces every other goodput window of it. The light phase
  // then runs on a fresh frontend, so its latency max never sees overload
  // queueing and no overload phase follows a light one; a traced run traces
  // all of it.
  const double timed_ns = options.seconds * 1e9;
  const auto light_ns = static_cast<int64_t>(timed_ns * kLightShare);
  const auto overload_ns = static_cast<int64_t>(timed_ns * (1.0 - kLightShare));
  RunResult result;
  uint64_t offered = 0;
  const auto offer = [&](double rate, int64_t ns, bool windows, Tracing tracing,
                         const char* name) {
    Phase phase = OfferLoad(*frontend, arrivals, rate, ns, windows, tracing, tracer, name);
    offered += phase.offered;
    return phase;
  };
  const auto drain = [&] {
    frontend->Stop();
    const ServeMetricsSnapshot snap = frontend->Snapshot();
    const uint64_t broken = SelfCheckGap(snap, offered);
    result.AddChecks(snap.admitted, snap.failed + snap.deadline_dropped + broken);
    std::printf("check: %llu admitted, %llu failed, %llu dropped at the deadline\n",
                static_cast<unsigned long long>(snap.admitted),
                static_cast<unsigned long long>(snap.failed),
                static_cast<unsigned long long>(snap.deadline_dropped));
    offered = 0;
  };
  const Tracing overload_tracing = options.trace ? Tracing::kAlternateWindows : Tracing::kOff;
  PrintPhase("overload warm-up (untimed)",
             offer(kOverloadRate, kOverloadWarmupNs, true, Tracing::kOff, ""));
  const Phase overload =
      offer(kOverloadRate, overload_ns, true, overload_tracing, "bench.overload_phase");
  PrintPhase("overload phase", overload);
  drain();

  frontend.reset();  // one world at a time, so peak RSS measures one
  frontend = std::make_unique<ServeFrontend>(serve, RealWallClock());
  frontend->Start();
  offer(kLightRate, kLightWarmupNs, false, Tracing::kOff, "");
  const Phase light = offer(kLightRate, light_ns, false,
                            options.trace ? Tracing::kAll : Tracing::kOff, "bench.light_phase");
  PrintPhase("light phase", light);
  drain();
  frontend.reset();

  EndToEnd e2e = SummarizePasses(overload.windows, setup_s);
  if (options.trace) {
    result.per_layer = ServeLayers(serve, setup_s, e2e, overload, light, arrivals, tracer, &result);
  }
  result.attempted = std::max<uint64_t>(1, result.attempted);
  e2e.ok_share = 1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.end_to_end = EndToEndMetrics(e2e);
  return result;
}

}  // namespace webcc::bench

// webcc_benchmark: the layered benchmark harness.
//
//   webcc_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                   --digests FILE --out DIR [--print-digests]
//
// Workloads: paper-sweep, topology-faults, serve-open (see workloads.h).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics this
// workload exercises (--trace 1). Everything before it is the human-readable
// report: run context, passes, output checks and, when traced, the
// per-layer self-time table. benchmark/run.py builds this binary and is the
// entry point; it also fills in per-layer metrics of bypassed layers.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/probe.h"
#include "harness/trace.h"
#include "harness/workloads.h"

namespace webcc::bench {

EndToEnd SummarizePasses(const std::vector<PassSample>& passes, double setup_s) {
  std::vector<double> rate;
  std::vector<double> cpu;
  std::vector<double> goodput;
  for (const PassSample& p : passes) {
    if (p.requests == 0 || p.wall_s <= 0.0) {
      continue;
    }
    const auto requests = static_cast<double>(p.requests);
    rate.push_back(requests / p.wall_s * 1e-6);
    cpu.push_back(p.cpu_s * 1e9 / requests);
    goodput.push_back(static_cast<double>(p.ok_requests) / p.wall_s * 1e-3);
  }
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.replay_mreq_per_s = Median(rate);
  e2e.cpu_ns_per_req = Median(cpu);
  e2e.goodput_kreq_per_s = Median(goodput);
  return e2e;
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  return {
      {"setup_s", e2e.setup_s, "s"},
      {"replay_mreq_per_s", e2e.replay_mreq_per_s, "Mreq/s"},
      {"cpu_ns_per_req", e2e.cpu_ns_per_req, "ns"},
      {"goodput_kreq_per_s", e2e.goodput_kreq_per_s, "kreq/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_share", e2e.ok_share, "ratio"},
  };
}

double PercentAbove(double value, double base) {
  return base == 0.0 ? 0.0 : (value / base - 1.0) * 100.0;
}

void PrintTracingOverhead(const EndToEnd& untraced, const EndToEnd& traced) {
  std::printf("tracing overhead: replay %.3f -> %.3f M req/s (%+.1f %%), cpu %.2f -> %.2f "
              "ns/req (%+.1f %%), goodput %.1f -> %.1f k req/s (%+.1f %%)\n",
              untraced.replay_mreq_per_s, traced.replay_mreq_per_s,
              PercentAbove(traced.replay_mreq_per_s, untraced.replay_mreq_per_s),
              untraced.cpu_ns_per_req, traced.cpu_ns_per_req,
              PercentAbove(traced.cpu_ns_per_req, untraced.cpu_ns_per_req),
              untraced.goodput_kreq_per_s, traced.goodput_kreq_per_s,
              PercentAbove(traced.goodput_kreq_per_s, untraced.goodput_kreq_per_s));
}

namespace {

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: webcc_benchmark --workload paper-sweep|topology-faults|"
               "serve-open --seed N --seconds S --trace 0|1 --digests FILE --out DIR "
               "[--print-digests]\n",
               message.c_str());
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--print-digests") {
      options.print_digests = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed must be a non-negative integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--digests") {
      options.digests_path = value;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (options.digests_path.empty()) Usage("--digests is required");
  return options;
}

void PrintContext(const char* when, const RunOptions& options) {
  std::printf("context %s: workload=%s seed=%llu seconds=%g trace=%d nproc=%zu load1m=%.2f\n",
              when, options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, Nproc(), LoadAverage1m());
}

void PrintSelfTimes(const Tracer& tracer, const RunOptions& options) {
  std::printf("self time per layer (spans around the benchmark's calls into each module):\n");
  std::printf("  %-10s %10s %12s %12s\n", "layer", "spans", "total s", "self s");
  for (const LayerTime& layer : tracer.SelfTimes()) {
    std::printf("  %-10s %10llu %12.4f %12.4f\n", layer.layer.c_str(),
                static_cast<unsigned long long>(layer.spans), layer.total_s, layer.self_s);
  }
  if (options.out_dir.empty()) {
    return;
  }
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".spans.jsonl";
  if (tracer.WriteJsonLines(path)) {
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  } else {
    std::printf("spans: cannot write %s\n", path.c_str());
  }
}

}  // namespace

}  // namespace webcc::bench

int main(int argc, char** argv) {
  using namespace webcc::bench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const RunOptions options = ParseArgs(argc, argv);
  PrintContext("before", options);
  Tracer tracer(options.trace);
  RunResult result;
  if (options.workload == "paper-sweep") {
    result = RunPaperSweep(options, tracer);
  } else if (options.workload == "topology-faults") {
    result = RunTopologyFaults(options, tracer);
  } else if (options.workload == "serve-open") {
    result = RunServeOpen(options, tracer);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    PrintSelfTimes(tracer, options);
  }
  PrintContext("after", options);

  const std::vector<Metric>& metrics = options.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  bool correct = result.correct;
  std::string body;
  for (const Metric& m : metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::printf("check: metric %s is not finite\n", m.name.c_str());
      correct = false;
      value = -1.0;
    }
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), value, m.unit.c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    body += entry;
  }
  std::printf("result: %s, %llu attempted, %llu failed (fail_share %.6g)\n",
              correct ? "correct" : "INCORRECT", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted));
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

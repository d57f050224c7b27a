// End-to-end benchmark harness for the iFDK reproduction.
//
//   ifdk_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file.json>] [--self-check]
//
// One client thread drives the workload in a closed loop (the next request
// is issued only after the previous one is stored). --trace 0 measures the
// end-to-end metrics with tracing off; --trace 1 alternates traced and
// untraced requests (their latency difference is the tracing overhead), then
// runs the standalone layer replays, and reports the per-layer metrics.
// Every stored request passes the correctness gate; a run also corrupts one
// stored slice through the PFS API and requires the gate to trip.
// --self-check counts that corrupted request as a failure, which makes the
// run fail.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every request passed and the gate tripped.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "harness.h"

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool self_check = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: ifdk_e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--self-check]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-check") {
      a.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 120) usage("--seconds must be in (0, 120]");
  return a;
}

/// Every per-layer metric of BENCHMARK.json, in its order. A traced run
/// prints all of them on every workload; a stage the workload bypasses
/// reads 0 (e.g. filter.busy_s on sart_projector_bound).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"filter.proj_per_s", "1/s"},
    {"filter.scalar.proj_per_s", "1/s"},
    {"filter.avx2.proj_per_s", "1/s"},
    {"filter.avx512.proj_per_s", "1/s"},
    {"filter.busy_s", "s"},
    {"backproj.gups", "GUPS"},
    {"backproj.scalar.gups", "GUPS"},
    {"backproj.avx2.gups", "GUPS"},
    {"backproj.avx512.gups", "GUPS"},
    {"backproj.busy_s", "s"},
    {"backproj.inner_products", "count"},
    {"backproj.interp_calls", "count"},
    {"backproj.voxel_updates", "count"},
    {"projector.msamples_per_s", "Msample/s"},
    {"iterative.forward_s", "s"},
    {"iterative.normalize_s", "s"},
    {"iterative.backproject_s", "s"},
    {"iterative.allreduce_s", "s"},
    {"minimpi.allgather_round_s", "s"},
    {"minimpi.reduce_epoch_s", "s"},
    {"minimpi.allreduce_s", "s"},
    {"minimpi.allgather_busy_s", "s"},
    {"minimpi.reduce_busy_s", "s"},
    {"minimpi.allgather_bytes_per_round", "B"},
    {"minimpi.reduce_bytes_per_epoch", "B"},
    {"pfs.load_busy_s", "s"},
    {"pfs.store_busy_s", "s"},
    {"pfs.get_mb_per_s", "MB/s"},
    {"pfs.put_mb_per_s", "MB/s"},
    {"postproc.compress_mb_per_s", "MB/s"},
    {"postproc.store_ratio", "ratio"},
    {"postproc.min_psnr_db", "dB"},
    {"engine.filter_thread_busy_frac", "frac"},
    {"engine.main_thread_busy_frac", "frac"},
    {"engine.bp_thread_busy_frac", "frac"},
    {"engine.reduce_thread_busy_frac", "frac"},
    {"engine.store_thread_busy_frac", "frac"},
    {"ifdk.transpose_busy_s", "s"},
    {"ifdk.plan_make_s", "s"},
    {"service.submit_s", "s"},
    {"service.queue_wait_s", "s"},
    {"service.batches_per_series", "count"},
    {"cluster.predicted_latency_s", "s"},
    {"cluster.predicted_over_measured", "ratio"},
    {"host.steal_frac", "frac"},
    {"host.spin_s", "s"},
    {"host.cpu_s_per_volume", "s"},
    {"trace.untraced_p50_s", "s"},
    {"trace.traced_p50_s", "s"},
    {"trace.overhead_frac", "frac"},
};

/// Cold starts per run: setup_s is their median (one sample varies about
/// 15% on a shared 4-vCPU guest).
constexpr int kColdStarts = 7;
/// Closed-loop samples a phase needs at least: p75 then has >= 10 samples
/// beyond it.
constexpr int kMinSamples = 44;
constexpr std::size_t kMinTracedSamples = 12;

struct Run {
  int attempted = 0;
  int failed = 0;
  bool gate_tripped = false;
  double first_rmse = -1;
};

/// Gates what the last request stored and books the outcome.
void gate(Workload& w, Tracer& tracer, int id, Run& run) {
  const GateResult g = w.check(tracer, id);
  if (run.first_rmse < 0) run.first_rmse = g.rmse;
  if (!g.ok) {
    ++run.failed;
    std::fprintf(stderr, "request %d failed the gate: %s\n", id,
                 g.reason.c_str());
  }
}

/// One gated cold start; returns its seconds, or -1 when it failed.
double cold_start(Workload& w, Tracer& tracer, int& next_id, Run& run) {
  const int id = next_id++;
  ++run.attempted;
  try {
    const double secs = w.cold_start(tracer);
    gate(w, tracer, id, run);
    return secs;
  } catch (const std::exception& e) {
    ++run.failed;
    std::fprintf(stderr, "cold start %d failed: %s\n", id, e.what());
    return -1;
  }
}

struct Phase {
  std::vector<double> latencies;
  std::vector<LayerSample> samples;
  double busy_s = 0;  ///< sum of request latencies (gate time excluded)
};

/// Issues one request, gates it, and books its latency into `p`.
void one_request(Workload& w, Tracer& tracer, int& next_id, Run& run, Phase& p,
                 bool keep_sample) {
  const int id = next_id++;
  ++run.attempted;
  try {
    ifdk::Timer t;
    w.request(tracer, id);
    const double lat = t.seconds();
    p.latencies.push_back(lat);
    p.busy_s += lat;
    if (keep_sample) p.samples.push_back(w.last_layer_sample());
  } catch (const std::exception& e) {
    ++run.failed;
    std::fprintf(stderr, "request %d failed: %s\n", id, e.what());
    return;
  }
  gate(w, tracer, id, run);
}

/// Closed loop: one request at a time until `seconds` of request time and
/// `min_samples` requests have accrued, or `max_wall_s` of wall time has
/// passed (so a slow host still exits promptly).
Phase closed_loop(Workload& w, Tracer& tracer, double seconds, int min_samples,
                  double max_wall_s, int& next_id, Run& run) {
  Phase p;
  ifdk::Timer wall;
  while ((p.busy_s < seconds ||
          static_cast<int>(p.latencies.size()) < min_samples) &&
         wall.seconds() < max_wall_s) {
    one_request(w, tracer, next_id, run, p, false);
  }
  return p;
}

/// Corrupts one stored slice and requires the gate to reject it. Under
/// --self-check the corrupted request counts as attempted and failed.
void self_test(Workload& w, Tracer& tracer, int id, bool count, Run& run) {
  auto span = tracer.span("self_check", id);
  w.corrupt_last_slice();
  const GateResult g = w.check(tracer, id);
  run.gate_tripped = !g.ok;
  std::fprintf(stderr, "self-check: corrupted one stored slice; gate %s%s%s\n",
               g.ok ? "did NOT trip" : "tripped", g.ok ? "" : ": ",
               g.reason.c_str());
  if (count) {
    ++run.attempted;
    if (!g.ok) ++run.failed;
  }
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

int finish(const Run& run, const Metrics& metrics, double steal, double spin) {
  for (const Metric& m : metrics.all()) {
    std::printf("%-36s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("failed_ratio %s (%d failed of %d attempted)\n",
              number(run.attempted > 0
                         ? static_cast<double>(run.failed) / run.attempted
                         : 0.0)
                  .c_str(),
              run.failed, run.attempted);
  std::printf("%s\n", host_fingerprint_json(steal, spin).c_str());
  const bool correct = run.failed == 0 && run.gate_tripped && run.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_untraced(Workload& w, const Args& a) {
  Tracer off(false);
  Run run;
  int next_id = 0;
  std::vector<double> cold;
  Phase steady;
  const double spin = spin_seconds();
  const CpuTimes cpu0 = read_cpu_times();
  // Cold starts are spread over the run, one before each equal segment of
  // the closed loop, so their median samples the same host-speed drift the
  // steady requests do. Each segment runs on the entry point its cold start
  // opened; the cold requests themselves are excluded from the steady
  // metrics.
  for (int c = 0; c < kColdStarts; ++c) {
    const double secs = cold_start(w, off, next_id, run);
    if (secs >= 0) cold.push_back(secs);
    const Phase seg = closed_loop(
        w, off, a.seconds / kColdStarts,
        (kMinSamples + kColdStarts - 1) / kColdStarts,
        (3 * a.seconds + 10) / kColdStarts, next_id, run);
    steady.latencies.insert(steady.latencies.end(), seg.latencies.begin(),
                            seg.latencies.end());
    steady.busy_s += seg.busy_s;
  }
  const double steal = steal_fraction(cpu0, read_cpu_times());
  self_test(w, off, next_id, a.self_check, run);

  Metrics m;
  m.set("latency_p50_s", quantile(steady.latencies, 0.50), "s");
  m.set("latency_p75_s", quantile(steady.latencies, 0.75), "s");
  m.set("volumes_per_s",
        steady.busy_s > 0 ? static_cast<double>(steady.latencies.size()) *
                                w.volumes_per_request() / steady.busy_s
                          : 0.0,
        "1/s");
  m.set("setup_s", median(cold), "s");
  m.set("image_rmse", run.first_rmse, "1");
  std::printf("workload %s seed %llu: %zu timed requests; cold starts (s):",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              steady.latencies.size());
  for (const double c : cold) std::printf(" %.4f", c);
  std::printf("\n");
  return finish(run, m, steal, spin);
}

int run_traced(Workload& w, const Args& a) {
  Tracer off(false);
  Tracer tracer(true);
  Run run;
  int next_id = 0;
  // The cold start opens the entry point and warms it up; it is not timed.
  cold_start(w, off, next_id, run);

  const double spin = spin_seconds();
  const CpuTimes cpu0 = read_cpu_times();
  // Traced and untraced requests alternate, so both sample the same
  // host-speed drift and their latency difference is the tracing overhead.
  Phase untraced, traced;
  const double cpu_before = process_cpu_seconds();
  ifdk::Timer wall;
  while ((untraced.busy_s + traced.busy_s < 2 * a.seconds / 3 ||
          std::min(untraced.latencies.size(), traced.latencies.size()) <
              kMinTracedSamples) &&
         wall.seconds() < 2 * a.seconds + 10) {
    const bool on = next_id % 2 == 0;
    one_request(w, on ? tracer : off, next_id, run, on ? traced : untraced, on);
  }
  const double cpu_per_volume =
      (process_cpu_seconds() - cpu_before) /
      std::max<double>(1.0, static_cast<double>(untraced.latencies.size() +
                                                traced.latencies.size()) *
                                w.volumes_per_request());
  const double steal = steal_fraction(cpu0, read_cpu_times());

  Metrics layer;
  // In-pipeline numbers: per-name median over the traced requests.
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::string> units;
  for (const LayerSample& s : traced.samples) {
    for (const Metric& m : s) {
      by_name[m.name].push_back(m.value);
      units[m.name] = m.unit;
    }
  }
  for (const auto& [name, values] : by_name) {
    layer.set(name, median(values), units[name]);
  }
  replay_layers(w, tracer, layer);
  for (const Metric& m : w.replay_stats(tracer)) layer.set(m.name, m.value, m.unit);
  self_test(w, tracer, next_id, a.self_check, run);

  const double untraced_p50 = median(untraced.latencies);
  const double traced_p50 = median(traced.latencies);
  const double predicted = w.predicted_latency_s();
  layer.set("cluster.predicted_latency_s", predicted, "s");
  layer.set("cluster.predicted_over_measured",
            untraced_p50 > 0 ? predicted / untraced_p50 : 0.0, "ratio");
  layer.set("host.steal_frac", steal, "frac");
  layer.set("host.spin_s", spin, "s");
  layer.set("host.cpu_s_per_volume", cpu_per_volume, "s");
  layer.set("trace.untraced_p50_s", untraced_p50, "s");
  layer.set("trace.traced_p50_s", traced_p50, "s");
  layer.set("trace.overhead_frac",
            untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "frac");

  // Emit exactly the BENCHMARK.json per-layer set, in its order.
  Metrics out;
  for (const auto& [name, unit] : kLayerMetrics) {
    double value = 0;
    for (const Metric& m : layer.all()) {
      if (m.name == name) value = m.value;
    }
    out.set(name, value, unit);
  }
  if (!a.trace_out.empty()) {
    tracer.write_chrome_json(a.trace_out);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                a.trace_out.c_str());
  }
  return finish(run, out, steal, spin);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) {
    std::string names;
    for (const std::string& n : workload_names()) names += " " + n;
    usage("unknown workload '" + a.workload + "'; expected one of:" + names);
  }
  try {
    w->prepare();
    return a.trace ? run_traced(*w, a) : run_untraced(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}

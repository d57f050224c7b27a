// Shared vocabulary of the end-to-end benchmark harness: the span tracer,
// order statistics, the metric sink, host probes, and the Workload seam the
// three workloads implement. Everything here lives outside the iFDK library:
// the harness only calls the library's public entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/image.h"
#include "common/volume.h"
#include "ifdk/plan.h"

namespace e2e {

// -- spans ---------------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only around the harness's own
/// calls into a layer (never inside the library), kept in memory, and
/// written once at exit as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing). Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0;    ///< seconds since the process's first span
    double t1 = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    int request = -1; ///< closed-loop request id, -1 outside a request
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  Scope span(std::string name, int request = -1) {
    return Scope(this, std::move(name), request);
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as a Chrome trace-event "X" (complete) event, with
  /// the request id and parent span name in `args`. Throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  double now() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices (client thread)
};

// -- statistics ------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// -- metrics ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric sink; names are unique (a second set() overwrites).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// -- host ------------------------------------------------------------------------

/// Cumulative CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of all CPU time between two samples that the hypervisor stole.
double steal_fraction(const CpuTimes& before, const CpuTimes& after);
/// Median seconds of a fixed scalar calibration loop (host speed probe).
double spin_seconds();
/// User + system CPU seconds this process has consumed so far.
double process_cpu_seconds();
/// One-line JSON fingerprint of the host: CPU model, nproc, CPU features,
/// the back-projection column and FFT backends kAuto resolves to, and the
/// measured steal fraction and spin time.
std::string host_fingerprint_json(double steal_frac, double spin_s);

// -- workloads ---------------------------------------------------------------------

/// In-pipeline numbers a traced request reports, by per-layer metric name.
using LayerSample = std::vector<Metric>;

/// Outcome of the correctness gate on one stored request.
struct GateResult {
  bool ok = true;
  std::string reason;  ///< first violated check when !ok
  double rmse = 0;     ///< image_rmse of the stored volume(s)
};

/// One closed-loop workload. The harness drives it as: prepare (untimed
/// input synthesis), then cold starts (setup_s), each followed by
/// request/check pairs in a closed loop from one client thread.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Synthesizes the seeded inputs and references. Never timed.
  virtual void prepare() = 0;
  /// Fresh PFS + staged inputs + fresh entry point, then one request, until
  /// it is stored. Returns the cold-start seconds; the stored output is
  /// gated like any request. Later requests run on this entry point.
  virtual double cold_start(Tracer& tracer) = 0;
  /// Issues one request on the entry point the last cold start opened and
  /// returns once its last slice is stored. Throws when the request fails
  /// or is rejected.
  virtual void request(Tracer& tracer, int id) = 0;
  /// Correctness gate on what the last request stored.
  virtual GateResult check(Tracer& tracer, int id) = 0;
  /// Self-check: corrupts one stored slice of the last request through the
  /// PFS API, so the next check() must fail.
  virtual void corrupt_last_slice() = 0;
  /// Volumes one request stores.
  virtual int volumes_per_request() const = 0;
  /// In-pipeline stats of the last request (traced runs only).
  virtual LayerSample last_layer_sample() const = 0;
  /// Extra in-pipeline stats obtained by replaying the workload's inputs
  /// through the library entry points (traced runs only).
  virtual LayerSample replay_stats(Tracer& tracer) = 0;
  /// Virtual-time latency the cluster simulator predicts for one request.
  virtual double predicted_latency_s() const = 0;
  /// The decomposition one request executes (sizes for standalone replays).
  virtual const ifdk::DecompositionPlan& plan() const = 0;
  /// One reconstructed volume of the workload (standalone compress/project
  /// replays run on it).
  virtual const ifdk::Volume& sample_volume() const = 0;
  /// One filtered-stage input projection of the workload's detector.
  virtual const ifdk::Image2D& sample_projection() const = 0;
};

/// The rank world every workload runs on: 4 ranks in a 2x2 grid.
ifdk::IfdkOptions world_options();

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
/// The workload names make_workload accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Standalone per-layer replays at the workload's plan sizes (traced runs):
/// filter, backproj, projector, minimpi, pfs, postproc, ifdk plan cost.
void replay_layers(const Workload& workload, Tracer& tracer, Metrics& out);

}  // namespace e2e

// The three closed-loop workloads, each on a 2x2 rank world (ranks=4,
// rows=2) and each chosen so a different layer is the bottleneck:
//
//   fdk_bp_bound          run_distributed, one 128^3 volume per request from
//                         128^2 x 128 projections: the Algorithm-4
//                         back-projection kernel dominates, and it is the
//                         only workload on the dedicated-filter-thread path.
//   series_filter_bound   ReconService, one 8-frame 4D-CT series per request
//                         (256^2 x 64 -> 32^3 per frame, 12-bit compressed
//                         store): filtering and the projection-sized
//                         AllGather dominate; PFS traffic is read-heavy.
//   sart_projector_bound  ReconService, one 2-iteration SART job per request
//                         (96^2 x 48 -> 48^3): the forward projector
//                         dominates and fft/filter/backproj are bypassed.
//
// Inputs are synthesized once per process from the seeded phantom before
// anything is timed; the library only ever sees the staged projections.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "cluster/simulator.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "harness.h"
#include "ifdk/framework.h"
#include "iterative/distributed.h"
#include "phantom/phantom.h"
#include "postproc/compression.h"
#include "service/recon_service.h"

namespace e2e {

namespace {

using namespace ifdk;

/// The Shepp-Logan head with its inner structures jittered by the seed:
/// centres by up to 0.02, semi-axes and density by up to 10%, rotation by
/// up to 0.1 rad. The
/// two skull ellipsoids stay fixed: their edges dominate the reconstruction
/// error, so jittering them would move image_rmse by tens of percent between
/// seeds, while jittering the inner ellipsoids keeps it within a few.
phantom::Phantom seeded_phantom(std::uint64_t seed) {
  phantom::Phantom p = phantom::shepp_logan();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed);
  auto jitter = [&](double scale) {
    return static_cast<double>(rng.next_float(-1.0f, 1.0f)) * scale;
  };
  for (std::size_t n = 2; n < p.ellipsoids.size(); ++n) {
    phantom::Ellipsoid& e = p.ellipsoids[n];
    e.center = e.center + geo::Vec3{jitter(0.02), jitter(0.02), jitter(0.02)};
    e.semi_axes = {e.semi_axes.x * (1 + jitter(0.1)),
                   e.semi_axes.y * (1 + jitter(0.1)),
                   e.semi_axes.z * (1 + jitter(0.1))};
    e.phi += jitter(0.1);
    e.density *= 1 + jitter(0.1);
  }
  return p;
}

/// All Np projections of `p`, rendered on every hardware thread (the
/// library's project_all is serial; synthesis is set-up, never timed).
std::vector<Image2D> synthesize(const phantom::Phantom& p,
                                const geo::CbctGeometry& g) {
  std::vector<Image2D> out(g.np);
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t s = w; s < g.np; s += workers) {
        out[s] = phantom::project(p, g, g.beta(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

bool bitwise_equal(const Volume& a, const Volume& b) {
  return a.voxels() == b.voxels() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

double volume_rmse(const Volume& a, const Volume& b) {
  return rmse(a.data(), b.data(), a.voxels());
}

VolDims dims_of(const geo::CbctGeometry& g) { return {g.nx, g.ny, g.nz}; }

/// Flips the sign bit of one 4-byte word in the middle of a stored object.
void corrupt_object(pfs::ParallelFileSystem& fs, const std::string& name) {
  std::vector<char> bytes(fs.object_size(name));
  fs.read_object(name, bytes.data(), bytes.size());
  const std::size_t at = (bytes.size() / 2) & ~std::size_t{3};
  bytes[at + 3] = static_cast<char>(bytes[at + 3] ^ 0x80);
  fs.write_object(name, bytes.data(), bytes.size());
}

/// Gate bookkeeping shared by every workload: the first stored volume of a
/// key becomes the bitwise reference for every later one (all three paths
/// are deterministic by construction), and each volume's RMSE against the
/// voxelized phantom must stay under the workload's threshold.
class Gate {
 public:
  explicit Gate(double rmse_limit) : rmse_limit_(rmse_limit) {}

  /// Checks `v` against the reference for `key` and the RMSE limit.
  /// Returns "" or the first violated check.
  std::string check(std::size_t key, const Volume& v, const Volume& truth,
                    double* rmse_out) {
    if (refs_.size() <= key) refs_.resize(key + 1);
    const double r = volume_rmse(v, truth);
    if (rmse_out != nullptr) *rmse_out = r;
    if (!std::isfinite(r) || r > rmse_limit_) {
      return "image_rmse " + std::to_string(r) + " exceeds " +
             std::to_string(rmse_limit_);
    }
    if (refs_[key].voxels() == 0) {
      refs_[key] = v.reshaped(VolumeLayout::kXMajor);
      return "";
    }
    if (!bitwise_equal(v, refs_[key])) {
      return "volume " + std::to_string(key) +
             " differs bitwise from the run's first";
    }
    return "";
  }

  const Volume& reference(std::size_t key) const { return refs_.at(key); }

 private:
  double rmse_limit_;
  std::vector<Volume> refs_;
};

void add_stage_metrics(const StageTimer& wall, LayerSample& out) {
  out.push_back({"filter.busy_s", wall.get("filter"), "s"});
  out.push_back({"backproj.busy_s", wall.get("backprojection"), "s"});
  out.push_back({"minimpi.allgather_busy_s", wall.get("allgather"), "s"});
  out.push_back({"minimpi.reduce_busy_s", wall.get("reduce"), "s"});
  out.push_back({"pfs.load_busy_s", wall.get("load"), "s"});
  out.push_back({"pfs.store_busy_s", wall.get("store"), "s"});
  out.push_back({"ifdk.transpose_busy_s", wall.get("transpose"), "s"});
}

void add_thread_metrics(const StageTimer& eff, LayerSample& out) {
  for (const char* thread :
       {"filter_thread", "main_thread", "bp_thread", "reduce_thread",
        "store_thread"}) {
    out.push_back({std::string("engine.") + thread + "_busy_frac",
                   eff.get(thread), "frac"});
  }
}

// -- fdk_bp_bound --------------------------------------------------------------

class FdkBpBound final : public Workload {
 public:
  explicit FdkBpBound(std::uint64_t seed) : seed_(seed), gate_(0.09) {}

  void prepare() override {
    g_ = geo::make_standard_geometry({{128, 128, 128}, {128, 128, 128}});
    const phantom::Phantom p = seeded_phantom(seed_);
    projections_ = synthesize(p, g_);
    truth_ = phantom::voxelize(p, g_);
    plan_ = DecompositionPlan::make(g_, opts_);
  }

  double cold_start(Tracer& tracer) override {
    auto span = tracer.span("cold_start");
    Timer t;
    fs_ = std::make_unique<pfs::ParallelFileSystem>();
    {
      auto s = tracer.span("pfs.stage_projections");
      stage_projections(*fs_, opts_.input_prefix, projections_);
    }
    run(tracer);
    return t.seconds();
  }

  void request(Tracer& tracer, int id) override {
    auto span = tracer.span("request", id);
    run(tracer);
  }

  GateResult check(Tracer& tracer, int id) override {
    auto span = tracer.span("gate", id);
    GateResult r;
    Volume v;
    {
      auto s = tracer.span("ifdk.load_volume");
      v = load_volume(*fs_, opts_.output_prefix, dims_of(g_));
    }
    r.reason = gate_.check(0, v, truth_, &r.rmse);
    r.ok = r.reason.empty();
    return r;
  }

  void corrupt_last_slice() override {
    corrupt_object(*fs_, engine::object_name(opts_.output_prefix, g_.nz / 2));
  }

  int volumes_per_request() const override { return 1; }

  LayerSample last_layer_sample() const override {
    LayerSample out;
    add_stage_metrics(last_.wall, out);
    add_thread_metrics(last_.overlap_efficiency, out);
    return out;
  }

  LayerSample replay_stats(Tracer&) override { return {}; }

  double predicted_latency_s() const override {
    return cluster::simulate_plan(plan_).t_runtime;
  }
  const DecompositionPlan& plan() const override { return plan_; }
  const Volume& sample_volume() const override { return gate_.reference(0); }
  const Image2D& sample_projection() const override {
    return projections_.front();
  }

 private:
  void run(Tracer& tracer) {
    auto s = tracer.span("ifdk.run_distributed");
    last_ = run_distributed(g_, *fs_, opts_);
  }

  std::uint64_t seed_;
  IfdkOptions opts_ = world_options();
  geo::CbctGeometry g_;
  std::vector<Image2D> projections_;
  Volume truth_;
  DecompositionPlan plan_;
  Gate gate_;
  std::unique_ptr<pfs::ParallelFileSystem> fs_;
  IfdkStats last_;
};

// -- service-backed workloads ----------------------------------------------------

/// Shared service plumbing: a fresh PFS with staged inputs plus a fresh
/// ReconService is the cold entry point, and steady requests reuse both.
/// The service is always torn down before the PFS it writes to.
class ServiceWorkload : public Workload {
 public:
  double cold_start(Tracer& tracer) override {
    auto span = tracer.span("cold_start");
    Timer t;
    start(tracer);
    issue(tracer);
    return t.seconds();
  }

  void request(Tracer& tracer, int id) override {
    auto span = tracer.span("request", id);
    issue(tracer);
  }

  LayerSample last_layer_sample() const override {
    LayerSample out;
    add_stage_metrics(last_wall_, out);
    out.push_back({"service.submit_s", last_submit_s_, "s"});
    out.push_back({"service.queue_wait_s", last_queue_wait_s_, "s"});
    out.push_back({"service.batches_per_series",
                   static_cast<double>(last_batches_), "count"});
    return out;
  }

  const DecompositionPlan& plan() const override { return plan_; }

 protected:
  /// The jobs one request submits, in submit order.
  virtual const std::vector<JobSpec>& jobs() const = 0;
  /// Stages every input projection set into a fresh PFS.
  virtual void stage(pfs::ParallelFileSystem& fs) const = 0;

  void start(Tracer& tracer) {
    svc_.reset();
    fs_ = std::make_unique<pfs::ParallelFileSystem>();
    {
      auto s = tracer.span("pfs.stage_projections");
      stage(*fs_);
    }
    auto s = tracer.span("service.construct");
    service::ServiceOptions so;
    so.ifdk = opts_;
    svc_ = std::make_unique<service::ReconService>(g_, *fs_, so);
  }

  /// Pause, submit every job, resume, wait for all: one request. Throws on
  /// rejection or when any job ends kFailed.
  void issue(Tracer& tracer) {
    const std::size_t batches_before = svc_->stats().batches;
    std::vector<service::JobHandle> handles;
    svc_->pause();
    {
      auto s = tracer.span("service.submit");
      Timer t;
      try {
        for (const JobSpec& spec : jobs()) handles.push_back(svc_->submit(spec));
      } catch (...) {
        svc_->resume();  // a rejected request must not leave the queue held
        throw;
      }
      last_submit_s_ = t.seconds();
    }
    svc_->resume();
    {
      auto s = tracer.span("service.wait");
      for (service::JobHandle& h : handles) {
        if (h.wait() != service::JobState::kStored) {
          throw std::runtime_error("job " + std::to_string(h.id()) +
                                   " failed: " + h.error());
        }
      }
    }
    double wait_sum = 0;
    for (const service::JobHandle& h : handles) wait_sum += h.queue_latency_s();
    last_queue_wait_s_ = wait_sum / static_cast<double>(handles.size());
    last_batches_ = svc_->stats().batches - batches_before;
    last_wall_ = handles.front().wall();
  }

  IfdkOptions opts_ = world_options();
  geo::CbctGeometry g_;
  DecompositionPlan plan_;
  std::unique_ptr<pfs::ParallelFileSystem> fs_;
  std::unique_ptr<service::ReconService> svc_;  ///< after fs_: dies first
  StageTimer last_wall_;
  double last_submit_s_ = 0;
  double last_queue_wait_s_ = 0;
  std::size_t last_batches_ = 0;
};

// -- series_filter_bound -------------------------------------------------------

class SeriesFilterBound final : public ServiceWorkload {
 public:
  static constexpr int kFrames = 8;
  /// Frames cycle through this many motion phases (two cycles per series),
  /// so frames f and f + kPhases must store bitwise-identical volumes.
  static constexpr int kPhases = 4;
  static constexpr int kStoreBits = 12;
  /// PSNR floor of a 12-bit stored frame against the uncompressed
  /// reconstruction of the same phase (measured: about 84 dB).
  static constexpr double kMinPsnrDb = 60.0;

  explicit SeriesFilterBound(std::uint64_t seed) : seed_(seed), gate_(0.09) {}

  void prepare() override {
    g_ = geo::make_standard_geometry({{256, 256, 64}, {32, 32, 32}});
    plan_ = DecompositionPlan::make(g_, opts_, -1, /*resident_slabs=*/2);
    pfs::ParallelFileSystem oracle_fs;
    for (int p = 0; p < kPhases; ++p) {
      // Motion between phases: the two inner ellipsoids step along Z by
      // 0.02 per phase, so every phase is a distinct volume.
      phantom::Phantom ph = seeded_phantom(seed_);
      const double dz = 0.02 * (p - 0.5 * (kPhases - 1));
      for (std::size_t e = 2; e < 4 && e < ph.ellipsoids.size(); ++e) {
        ph.ellipsoids[e].center.z += dz;
      }
      projections_.push_back(synthesize(ph, g_));
      truth_.push_back(phantom::voxelize(ph, g_));
      // The uncompressed one-volume oracle the stored frames are held to.
      stage_projections(oracle_fs, opts_.input_prefix, projections_.back());
      run_distributed(g_, oracle_fs, opts_);
      oracle_.push_back(
          load_volume(oracle_fs, opts_.output_prefix, dims_of(g_)));
    }
    for (int f = 0; f < kFrames; ++f) {
      JobSpec spec{input_prefix(f % kPhases),
                   "series/f" + std::to_string(f) + "/slice_"};
      spec.compress_store = true;
      spec.store_bits = kStoreBits;
      jobs_.push_back(std::move(spec));
    }
  }

  GateResult check(Tracer& tracer, int id) override {
    auto span = tracer.span("gate", id);
    GateResult r;
    double rmse_sum = 0;
    for (int f = 0; f < kFrames && r.ok; ++f) {
      const int phase = f % kPhases;
      Volume v;
      try {
        auto s = tracer.span("ifdk.load_volume");
        v = load_volume(*fs_, jobs_[static_cast<std::size_t>(f)].output_prefix,
                        dims_of(g_), /*compressed_store=*/true);
      } catch (const std::exception& e) {
        r.ok = false;
        r.reason = "frame " + std::to_string(f) + ": " + e.what();
        break;
      }
      double frame_rmse = 0;
      // Keyed by phase: the second cycle must match the first bitwise.
      r.reason = gate_.check(static_cast<std::size_t>(phase), v,
                             truth_[static_cast<std::size_t>(phase)],
                             &frame_rmse);
      rmse_sum += frame_rmse;
      const double psnr =
          postproc::psnr_db(oracle_[static_cast<std::size_t>(phase)], v);
      if (r.reason.empty() && !(psnr >= kMinPsnrDb)) {
        r.reason = "frame " + std::to_string(f) + " PSNR " +
                   std::to_string(psnr) + " dB under the floor";
      }
      r.ok = r.reason.empty();
    }
    r.rmse = rmse_sum / kFrames;
    return r;
  }

  void corrupt_last_slice() override {
    corrupt_object(*fs_,
                   engine::object_name(jobs_.front().output_prefix, g_.nz / 2));
  }

  int volumes_per_request() const override { return kFrames; }

  /// The series replayed through run_streaming, the entry point the service
  /// dispatches to: per-thread busy fractions and the compressed-store
  /// ratio/PSNR that ServiceStats does not expose. Median of three.
  LayerSample replay_stats(Tracer& tracer) override {
    std::vector<StreamingStats> runs;
    for (int rep = 0; rep < 3; ++rep) {
      auto s = tracer.span("ifdk.run_streaming");
      runs.push_back(run_streaming(g_, *fs_, opts_, jobs_));
    }
    LayerSample out;
    for (const char* thread : {"filter_thread", "main_thread", "bp_thread",
                               "reduce_thread", "store_thread"}) {
      std::vector<double> v;
      for (const StreamingStats& st : runs) {
        v.push_back(st.overlap_efficiency.get(thread));
      }
      out.push_back({std::string("engine.") + thread + "_busy_frac", median(v),
                     "frac"});
    }
    std::vector<double> ratio;
    double min_psnr = 1e300;
    for (const StreamingStats& st : runs) {
      ratio.push_back(st.store_ratio());
      for (double p : st.volume_store_psnr_db) min_psnr = std::min(min_psnr, p);
    }
    out.push_back({"postproc.store_ratio", median(ratio), "ratio"});
    out.push_back({"postproc.min_psnr_db", min_psnr, "dB"});
    return out;
  }

  double predicted_latency_s() const override {
    const std::vector<DecompositionPlan> plans(kFrames, plan_);
    return cluster::simulate_stream(plans).t_total;
  }
  const Volume& sample_volume() const override { return oracle_.front(); }
  const Image2D& sample_projection() const override {
    return projections_.front().front();
  }

 protected:
  const std::vector<JobSpec>& jobs() const override { return jobs_; }
  void stage(pfs::ParallelFileSystem& fs) const override {
    for (int p = 0; p < kPhases; ++p) {
      stage_projections(fs, input_prefix(p),
                        projections_[static_cast<std::size_t>(p)]);
    }
  }

 private:
  static std::string input_prefix(int phase) {
    return "in/p" + std::to_string(phase) + "/";
  }

  std::uint64_t seed_;
  Gate gate_;
  std::vector<std::vector<Image2D>> projections_;
  std::vector<Volume> truth_;
  std::vector<Volume> oracle_;
  std::vector<JobSpec> jobs_;
};

// -- sart_projector_bound ------------------------------------------------------

class SartProjectorBound final : public ServiceWorkload {
 public:
  static constexpr int kIterations = 2;

  explicit SartProjectorBound(std::uint64_t seed) : seed_(seed), gate_(0.18) {}

  void prepare() override {
    g_ = geo::make_standard_geometry({{96, 96, 48}, {48, 48, 48}});
    plan_ = DecompositionPlan::make(g_, opts_);
    const phantom::Phantom p = seeded_phantom(seed_);
    projections_ = synthesize(p, g_);
    truth_ = phantom::voxelize(p, g_);
    JobSpec spec{"in/", "sart/slice_"};
    spec.workload = WorkloadKind::kIterative;
    spec.iterative.algorithm = iterative::Algorithm::kSart;
    spec.iterative.iterations = kIterations;
    jobs_.push_back(std::move(spec));
  }

  GateResult check(Tracer& tracer, int id) override {
    auto span = tracer.span("gate", id);
    GateResult r;
    Volume v;
    {
      auto s = tracer.span("ifdk.load_volume");
      v = load_volume(*fs_, jobs_.front().output_prefix, dims_of(g_));
    }
    r.reason = gate_.check(0, v, truth_, &r.rmse);
    r.ok = r.reason.empty();
    return r;
  }

  void corrupt_last_slice() override {
    corrupt_object(*fs_,
                   engine::object_name(jobs_.front().output_prefix, g_.nz / 2));
  }

  int volumes_per_request() const override { return 1; }

  LayerSample last_layer_sample() const override {
    LayerSample out = ServiceWorkload::last_layer_sample();
    for (const char* stage :
         {"forward", "normalize", "backproject", "allreduce"}) {
      out.push_back({std::string("iterative.") + stage + "_s",
                     last_wall_.get(stage), "s"});
    }
    return out;
  }

  LayerSample replay_stats(Tracer&) override { return {}; }

  double predicted_latency_s() const override {
    return cluster::simulate_iterative(plan_, kIterations, 1).t_total;
  }
  const Volume& sample_volume() const override { return gate_.reference(0); }
  const Image2D& sample_projection() const override {
    return projections_.front();
  }

 protected:
  const std::vector<JobSpec>& jobs() const override { return jobs_; }
  void stage(pfs::ParallelFileSystem& fs) const override {
    stage_projections(fs, jobs_.front().input_prefix, projections_);
  }

 private:
  std::uint64_t seed_;
  Gate gate_;
  std::vector<Image2D> projections_;
  Volume truth_;
  std::vector<JobSpec> jobs_;
};

}  // namespace

IfdkOptions world_options() {
  IfdkOptions o;
  o.ranks = 4;
  o.rows = 2;
  return o;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fdk_bp_bound", "series_filter_bound", "sart_projector_bound"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fdk_bp_bound") return std::make_unique<FdkBpBound>(seed);
  if (name == "series_filter_bound") {
    return std::make_unique<SeriesFilterBound>(seed);
  }
  if (name == "sart_projector_bound") {
    return std::make_unique<SartProjectorBound>(seed);
  }
  return nullptr;
}

}  // namespace e2e

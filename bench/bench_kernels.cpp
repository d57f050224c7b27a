// google-benchmark registration of the hot kernels: the standard and
// proposed back-projection, the filtering stage, interp2, and the forward
// projector of the iterative solvers — the pieces a performance engineer
// would profile when porting iFDK to new hardware.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "backproj/backprojector.h"
#include "bench_common.h"
#include "common/simd_dispatch.h"
#include "common/thread_pool.h"
#include "fft/fft.h"
#include "filter/filter_engine.h"
#include "phantom/phantom.h"
#include "projector/forward.h"

namespace {

using namespace ifdk;

const bench::Scene& shared_scene() {
  static const bench::Scene scene = bench::make_scene({{96, 96, 32},
                                                       {48, 48, 48}});
  return scene;
}

void BM_BackprojectStandard(benchmark::State& state) {
  const bench::Scene& scene = shared_scene();
  const auto matrices = geo::make_all_projection_matrices(scene.g);
  bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kRtk32);
  bp::Backprojector kernel(scene.g, cfg);
  Volume vol(scene.g.nx, scene.g.ny, scene.g.nz, cfg.layout);
  for (auto _ : state) {
    kernel.accumulate(vol, scene.projections, matrices);
  }
  state.counters["GUPS"] = benchmark::Counter(
      static_cast<double>(scene.g.problem().updates()) * state.iterations() /
          1073741824.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojectStandard)->Unit(benchmark::kMillisecond);

void BM_BackprojectProposed(benchmark::State& state) {
  const bench::Scene& scene = shared_scene();
  const auto matrices = geo::make_all_projection_matrices(scene.g);
  bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kL1Tran);
  bp::Backprojector kernel(scene.g, cfg);
  Volume vol(scene.g.nx, scene.g.ny, scene.g.nz, cfg.layout);
  for (auto _ : state) {
    kernel.accumulate(vol, scene.projections, matrices);
  }
  state.counters["GUPS"] = benchmark::Counter(
      static_cast<double>(scene.g.problem().updates()) * state.iterations() /
          1073741824.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojectProposed)->Unit(benchmark::kMillisecond);

// Arg(n) -> the n-th concrete backend (widest first: avx512, avx2, neon,
// scalar); benchmarks for backends this CPU/build lacks skip with an error
// label rather than silently measuring the wrong kernel.
simd::Backend backend_arg(std::int64_t n) {
  return ifdk::simd::kConcreteBackends[static_cast<std::size_t>(n)];
}

void BM_BackprojectProposedBackend(benchmark::State& state) {
  // The same Algorithm-4 kernel pinned to one SIMD column backend: the
  // per-backend rows the scalar-vs-vector speedup in EXPERIMENTS.md is read
  // from.
  const simd::Backend backend = backend_arg(state.range(0));
  if (!ifdk::simd::supported(backend)) {
    const std::string msg = std::string(ifdk::simd::to_string(backend)) +
                            " backend unavailable on this CPU/build";
    state.SkipWithError(msg.c_str());
    return;
  }
  const bench::Scene& scene = shared_scene();
  const auto matrices = geo::make_all_projection_matrices(scene.g);
  bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kL1Tran);
  cfg.simd_backend = backend;
  bp::Backprojector kernel(scene.g, cfg);
  state.SetLabel(kernel.backend_name());
  Volume vol(scene.g.nx, scene.g.ny, scene.g.nz, cfg.layout);
  for (auto _ : state) {
    kernel.accumulate(vol, scene.projections, matrices);
  }
  state.counters["GUPS"] = benchmark::Counter(
      static_cast<double>(scene.g.problem().updates()) * state.iterations() /
          1073741824.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojectProposedBackend)
    ->Unit(benchmark::kMillisecond)
    ->DenseRange(0, 3);  // avx512, avx2, neon, scalar

void BM_BackprojectProposedPooled(benchmark::State& state) {
  // The thread-pooled Algorithm-4 kernel with cache-blocked k-slab
  // scheduling; compare against BM_BackprojectProposed (the single-threaded
  // path) for the parallel speedup.
  const bench::Scene& scene = shared_scene();
  const auto matrices = geo::make_all_projection_matrices(scene.g);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  bp::BpConfig cfg = bp::config_for(bp::KernelVariant::kL1Tran);
  cfg.pool = &pool;
  bp::Backprojector kernel(scene.g, cfg);
  Volume vol(scene.g.nx, scene.g.ny, scene.g.nz, cfg.layout);
  for (auto _ : state) {
    kernel.accumulate(vol, scene.projections, matrices);
  }
  state.counters["GUPS"] = benchmark::Counter(
      static_cast<double>(scene.g.problem().updates()) * state.iterations() /
          1073741824.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackprojectProposedPooled)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // work runs on pool threads; CPU time of this thread
                     // (and rates derived from it) would be meaningless
    ->Arg(2)
    ->Arg(4)
    ->Arg(0);  // 0 = hardware_concurrency

void BM_FilterProjection(benchmark::State& state) {
  const bench::Scene& scene = shared_scene();
  filter::FilterEngine engine(scene.g);
  fft::Workspace ws;
  Image2D img(scene.g.nu, scene.g.nv, false);
  for (auto _ : state) {
    for (std::size_t n = 0; n < img.pixels(); ++n) {
      img.data()[n] = scene.projections[0].data()[n];
    }
    engine.apply(img, ws);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_FilterProjection)->Unit(benchmark::kMicrosecond);

void BM_FilterProjectionBackend(benchmark::State& state) {
  // The filtering stage pinned to one FFT batch backend: the per-backend
  // rows the filter speedup in EXPERIMENTS.md is read from. Second arg:
  // 0 = the shared 96^2 scene, 256 = the 256^2 detector of the 4D-CT series
  // workload (one Shepp-Logan view; the rate does not depend on the data).
  const fft::Backend backend = backend_arg(state.range(0));
  if (!ifdk::simd::supported(backend)) {
    const std::string msg = std::string(ifdk::simd::to_string(backend)) +
                            " backend unavailable on this CPU/build";
    state.SkipWithError(msg.c_str());
    return;
  }
  const std::size_t nu = static_cast<std::size_t>(state.range(1));
  const geo::CbctGeometry g =
      nu == 0 ? shared_scene().g
              : geo::make_standard_geometry({{nu, nu, 64}, {32, 32, 32}});
  const Image2D view = nu == 0 ? Image2D()
                               : phantom::project(phantom::shepp_logan(), g,
                                                  g.beta(0));
  const Image2D& source = nu == 0 ? shared_scene().projections[0] : view;
  filter::FilterOptions options;
  options.fft_backend = backend;
  filter::FilterEngine engine(g, options);
  state.SetLabel(engine.fft_backend_name());
  fft::Workspace ws;
  Image2D img(g.nu, g.nv, false);
  for (auto _ : state) {
    for (std::size_t n = 0; n < img.pixels(); ++n) {
      img.data()[n] = source.data()[n];
    }
    engine.apply(img, ws);
    benchmark::DoNotOptimize(img.data());
  }
  state.counters["proj_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterProjectionBackend)
    ->Unit(benchmark::kMicrosecond)
    // avx512, avx2, neon, scalar x {96^2 scene, 256^2 series detector}
    ->ArgsProduct({{0, 1, 2, 3}, {0, 256}});

void BM_ProjectionTranspose(benchmark::State& state) {
  // Alg. 4 line 3 — the paper argues its cost is a small fraction of the
  // stage; this measures it directly.
  const bench::Scene& scene = shared_scene();
  for (auto _ : state) {
    Image2D t = scene.projections[0].transposed();
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_ProjectionTranspose)->Unit(benchmark::kMicrosecond);

void BM_ForwardProject(benchmark::State& state) {
  // The SART workload's per-rank forward operator: 96^2 detector, 48^3
  // volume, the default half-voxel step, one thread. The Msample rate
  // (Msample/s) counts the trilinear samples the projector actually takes
  // (its interior-clipped ranges), not the bounding-box samples.
  const auto g = geo::make_standard_geometry({{96, 96, 48}, {48, 48, 48}});
  const Volume vol = phantom::voxelize(phantom::shepp_logan(), g);
  const projector::ForwardProjector fp(g);
  std::vector<double> betas;
  std::uint64_t samples = 0;
  for (std::size_t s = 0; s < g.np; s += 4) {
    betas.push_back(g.beta(s));
    samples += fp.sample_count(g.beta(s));
  }
  for (auto _ : state) {
    for (const double beta : betas) {
      Image2D img = fp.project(vol, beta);
      benchmark::DoNotOptimize(img.data());
    }
  }
  state.counters["Msample"] = benchmark::Counter(
      static_cast<double>(samples) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForwardProject)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

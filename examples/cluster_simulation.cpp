// Capacity planning with the iFDK cluster simulator.
//
// "How many GPUs do I need to reconstruct my scan in T seconds?" — this
// example answers the question the paper's Section 6.2 raises for AWS/DGX-2
// deployments. It sweeps GPU counts for a chosen problem, prints the
// Fig.-5-style breakdown, predicts 4D-CT *streaming* throughput at ABCI
// scale by replaying a DecompositionPlan sequence through
// cluster::simulate_stream, and then runs the *functional* distributed
// pipeline on a scaled-down version of the same decomposition as a sanity
// check — including a mixed-geometry streaming run whose measured
// volumes/sec is compared against the simulator's prediction for the very
// plan sequence the runtime consumed (StreamingStats::plans).
//
// Run:  ./cluster_simulation [--volume 4096] [--np 4096] [--budget 30]
//                            [--stream-frames 8]
#include <cmath>
#include <cstdio>
#include <vector>

#include "cluster/simulator.h"
#include "common/cli.h"
#include "common/table.h"
#include "ifdk/fdk.h"
#include "ifdk/framework.h"
#include "phantom/phantom.h"

int main(int argc, char** argv) {
  using namespace ifdk;
  CliParser cli("cluster_simulation", "iFDK capacity planning");
  cli.option("volume", "4096", "output volume N (N^3)")
      .option("np", "4096", "number of 2048^2 projections")
      .option("budget", "30", "time budget in seconds")
      .option("stream-frames", "8", "4D-CT frames in the streaming forecast");
  cli.parse(argc, argv);
  if (cli.has("help")) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  const auto n = static_cast<std::size_t>(cli.get_int("volume"));
  const auto np = static_cast<std::size_t>(cli.get_int("np"));
  const double budget = cli.get_double("budget");

  const Problem problem{{2048, 2048, np}, {n, n, n}};
  const int rows = perfmodel::select_rows(problem);
  std::printf("problem %s, R=%d (8 GB sub-volumes on 16 GB V100s)\n\n",
              problem.to_string().c_str(), rows);

  TextTable t({"GPUs", "Tcompute(s)", "Tpost(s)", "runtime(s)", "GUPS",
               "fits budget?"});
  int needed = 0;
  for (int gpus = rows; gpus <= 4096; gpus *= 2) {
    const cluster::SimResult sim = cluster::simulate(problem, gpus);
    const bool fits = sim.t_runtime <= budget;
    if (fits && needed == 0) needed = gpus;
    t.row()
        .add(static_cast<std::int64_t>(gpus))
        .add(sim.t_compute, 1)
        .add(sim.t_runtime - sim.t_compute, 1)
        .add(sim.t_runtime, 1)
        .add(sim.gups, 0)
        .add(fits ? "yes" : "no");
  }
  std::printf("%s\n", t.str().c_str());
  if (needed > 0) {
    std::printf("=> %d GPUs reconstruct %zu^3 within %.0f s\n\n", needed, n,
                budget);
  } else {
    std::printf("=> no configuration up to 4096 GPUs meets %.0f s (the "
                "post phase is the floor)\n\n", budget);
  }

  // ---- 4D-CT streaming forecast at ABCI scale -----------------------------
  // Build the per-frame DecompositionPlan sequence a heterogeneous stream
  // (full-resolution frames alternating with half-depth scouts) would
  // execute at 2,048 ranks, and replay it through the streaming recurrence.
  // These are the same plan objects ifdk::run_streaming consumes — the
  // simulator never re-derives the decomposition.
  const int stream_frames = cli.get_int("stream-frames");
  const int stream_ranks = 2048;
  std::vector<DecompositionPlan> plans;  // reused by the compression forecast
  if (stream_frames > 0) {
    IfdkOptions plan_opts;
    plan_opts.ranks = stream_ranks;
    plan_opts.rows = 0;  // per-frame Eq. (7) + streaming double buffer
    for (int f = 0; f < stream_frames; ++f) {
      const Problem frame{{2048, 2048, np}, {n, n, f % 2 == 0 ? n : n / 2}};
      plans.push_back(DecompositionPlan::make(
          geo::make_standard_geometry(frame), plan_opts, f,
          /*resident_slabs=*/2));
    }
    // With a single frame there is no alternate geometry to report.
    const DecompositionPlan& alt = plans[plans.size() > 1 ? 1 : 0];
    const cluster::StreamSimResult stream = cluster::simulate_stream(plans);
    std::printf(
        "4D-CT streaming forecast at %d ranks (%d frames, Nz alternating "
        "%zu/%zu, R %dx%d <-> %dx%d, %zu re-splits):\n"
        "  predicted %.3f volumes/s (%.1f s for the series)\n\n",
        stream_ranks, stream_frames, n, n / 2, plans[0].grid.rows,
        plans[0].grid.columns, alt.grid.rows, alt.grid.columns,
        stream.regrids, stream.volumes_per_second, stream.t_total);
  }

  // Functional cross-check: the same R x C decomposition on a toy problem
  // must produce the single-node FDK volume.
  std::printf("functional cross-check (8 ranks, R=2 x C=4, 32^3):\n");
  const geo::CbctGeometry g =
      geo::make_standard_geometry({{64, 64, 32}, {32, 32, 32}});
  const auto projections =
      phantom::project_all(phantom::shepp_logan(), g);
  pfs::ParallelFileSystem fs;
  stage_projections(fs, "proj/", projections);
  IfdkOptions opts;
  opts.ranks = 8;
  opts.rows = 2;
  run_distributed(g, fs, opts);
  const Volume distributed = load_volume(fs, "vol/slice_", g.vol_dims());
  const Volume reference = reconstruct_fdk(g, projections).volume;
  double acc = 0, peak = 0;
  for (std::size_t i = 0; i < reference.voxels(); ++i) {
    const double d = distributed.data()[i] - reference.data()[i];
    acc += d * d;
    peak = std::max(peak, std::abs(static_cast<double>(reference.data()[i])));
  }
  std::printf("  relative RMSE vs single-node FDK: %.2e\n",
              std::sqrt(acc / static_cast<double>(reference.voxels())) / peak);

  // Streaming cross-check: reconstruct a small mixed-geometry series, then
  // feed the EXACT plan sequence the runtime executed
  // (StreamingStats::plans) back into the simulator.
  std::printf("\nstreaming cross-check (4 ranks, 4 mixed frames):\n");
  {
    pfs::ParallelFileSystem sfs;
    std::vector<JobSpec> volumes;
    for (int f = 0; f < 4; ++f) {
      const geo::CbctGeometry fg = geo::make_standard_geometry(
          {{64, 64, 32}, {32, 32, f % 2 == 0 ? std::size_t{32}
                                             : std::size_t{16}}});
      JobSpec vol{"scan/f" + std::to_string(f) + "/",
                       "recon/f" + std::to_string(f) + "/slice_", fg};
      stage_projections(sfs, vol.input_prefix,
                        phantom::project_all(phantom::shepp_logan(), fg));
      volumes.push_back(std::move(vol));
    }
    IfdkOptions sopts;
    sopts.ranks = 4;
    sopts.rows = 0;
    // Full frames resolve R=2, scouts R=1: real re-splits, tiny scale.
    sopts.microbench.sub_volume_bytes =
        volumes[0].geometry->problem().out.bytes() / 2 + 1;
    // Compressed store for the small run: its measured ratio feeds the
    // at-scale forecast below.
    for (JobSpec& vol : volumes) {
      vol.compress_store = true;
      vol.store_bits = 12;
    }
    const StreamingStats measured = run_streaming(g, sfs, sopts, volumes);
    const cluster::StreamSimResult predicted =
        cluster::simulate_stream(measured.plans);
    std::printf(
        "  runtime executed %zu plans (grids %dx%d / %dx%d); measured %.2f "
        "volumes/s, simulator predicts %.2f volumes/s for the same plan "
        "sequence at ABCI rates\n",
        measured.plans.size(), measured.plans[0].grid.rows,
        measured.plans[0].grid.columns, measured.plans[1].grid.rows,
        measured.plans[1].grid.columns, measured.volumes_per_second,
        predicted.volumes_per_second);

    // ---- compression forecast at ABCI scale -------------------------------
    // Feed the MEASURED store ratio of the small run into the simulator's
    // store discount and replay the 2,048-rank plan sequence from the
    // forecast above: the store phase writes bytes/store_ratio, so the
    // delta is the predicted store win of Section 8's compression plan.
    if (!plans.empty()) {
      cluster::SimConfig discounted;
      discounted.store_compression_ratio = measured.store_ratio();
      const cluster::StreamSimResult raw = cluster::simulate_stream(plans);
      const cluster::StreamSimResult cmp =
          cluster::simulate_stream(plans, discounted);
      std::printf(
          "\ncompression forecast at %d ranks (measured store ratio %.3f "
          "@ 12 bits, PSNR %.1f dB):\n"
          "  raw store:       %.3f volumes/s (%.1f s for the series)\n"
          "  compressed:      %.3f volumes/s (%.1f s, %.1f%% faster)\n",
          stream_ranks, measured.store_ratio(),
          measured.volume_store_psnr_db.empty()
              ? 0.0
              : measured.volume_store_psnr_db[0],
          raw.volumes_per_second, raw.t_total, cmp.volumes_per_second,
          cmp.t_total, 100.0 * (raw.t_total - cmp.t_total) / raw.t_total);
    }
  }
  return 0;
}

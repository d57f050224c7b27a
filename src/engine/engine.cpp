#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace ifdk::engine {

int error_class(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const QueueClosedError&) {
    return 2;
  } catch (const mpi::WorldAbortedError&) {
    return 1;
  } catch (...) {
    return 0;
  }
}

std::exception_ptr pick_root_cause(std::span<const std::exception_ptr> errors) {
  std::exception_ptr best;
  int best_class = 3;
  for (const std::exception_ptr& e : errors) {
    if (!e) continue;
    const int c = error_class(e);
    if (c < best_class) {
      best_class = c;
      best = e;
    }
  }
  return best;
}

std::string object_name(const std::string& prefix, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu", index);
  return prefix + buf;
}

void extract_zmajor_slice(const float* zmajor, std::size_t nx, std::size_t ny,
                          std::size_t pair_depth, std::size_t local_k,
                          float* dst) {
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      dst[j * nx + i] = zmajor[(i * ny + j) * pair_depth + local_k];
    }
  }
}

EpochComms::EpochComms(mpi::Comm& world,
                       std::span<const int> rows_per_volume) {
  const int rank = world.rank();
  per_volume_.reserve(rows_per_volume.size());
  for (const int rows_v : rows_per_volume) {
    auto it = by_rows_.find(rows_v);
    if (it == by_rows_.end()) {
      mpi::Comm col_comm = world.split(rank / rows_v, rank % rows_v);
      mpi::Comm row_comm = world.split(rank % rows_v, rank / rows_v);
      it = by_rows_
               .emplace(rows_v,
                        Pair{std::move(col_comm), std::move(row_comm)})
               .first;
    }
    per_volume_.push_back(&it->second);
  }
}

VolumeWriterSet::VolumeWriterSet(pfs::ParallelFileSystem& fs,
                                 std::size_t queue_capacity,
                                 const std::vector<bool>& roots,
                                 const std::vector<int>& store_bits)
    : streams_(roots.size()), roots_(roots) {
  IFDK_ASSERT_MSG(store_bits.empty() || store_bits.size() == roots.size(),
                  "VolumeWriterSet: store_bits must be empty or per-volume");
  const bool any_root =
      std::find(roots.begin(), roots.end(), true) != roots.end();
  if (!any_root) return;
  writer_.emplace(fs, queue_capacity);
  for (std::size_t v = 0; v < roots.size(); ++v) {
    if (!roots[v]) continue;
    std::optional<pfs::StreamCompression> compression;
    if (!store_bits.empty() && store_bits[v] != 0) {
      compression = pfs::StreamCompression{store_bits[v]};
    }
    streams_[v] = writer_->open_stream(compression);
  }
}

pfs::StreamStats VolumeWriterSet::volume_store_stats(
    std::size_t volume) const {
  IFDK_ASSERT(roots_[volume] && writer_.has_value());
  return writer_->stream_stats(streams_[volume]);
}

bool VolumeWriterSet::enqueue(std::size_t volume, std::string name,
                              std::vector<float> payload) {
  IFDK_ASSERT(roots_[volume] && writer_.has_value());
  return writer_->enqueue(streams_[volume], std::move(name),
                          std::move(payload));
}

std::string VolumeWriterSet::finish_volume(std::size_t volume) {
  IFDK_ASSERT(roots_[volume] && writer_.has_value());
  try {
    writer_->finish_stream(streams_[volume]);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

void VolumeWriterSet::finish() {
  if (!writer_.has_value()) return;
  writer_->finish();  // per-volume errors were claimed by finish_volume
  busy_ = writer_->busy_seconds();
}

EngineStats run(int ranks, Workload& workload) {
  struct RankOut {
    StageTimer wall;
    StageTimer efficiency;
    double total = 0;
  };
  std::vector<RankOut> outs(static_cast<std::size_t>(ranks));

  mpi::run_world(ranks, [&](mpi::Comm& world) {
    RankContext ctx{world, world.rank(), {}, {}, 0};
    workload.run_rank(ctx);
    RankOut& out = outs[static_cast<std::size_t>(ctx.rank)];
    out.wall = std::move(ctx.wall);
    out.efficiency = std::move(ctx.efficiency);
    out.total = ctx.total;
  });

  EngineStats merged;
  for (const RankOut& out : outs) {
    merged.wall.max_merge(out.wall);
    merged.efficiency.max_merge(out.efficiency);
    merged.wall_total = std::max(merged.wall_total, out.total);
  }
  return merged;
}

}  // namespace ifdk::engine

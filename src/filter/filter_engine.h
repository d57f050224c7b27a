// The CPU filtering stage of Algorithm 1 (paper Section 3.1).
//
// For each projection E_i:
//   1. point-wise multiply by the 2-D cosine table Fcos (cone-beam weight),
//   2. convolve every row with the 1-D ramp filter Framp via FFT.
//
// FDK normalization: the back-projection kernels compute Wdis = 1/z^2 with z
// in millimetres (Algorithm 2/4), so the full Feldkamp weight
// (2*pi/Np) * d^2 / z^2 is completed by baking (2*pi/Np) * d^2 into the ramp
// kernel here, together with the isocenter-plane sample pitch
// tau = Du * d / D and the half-scan-double-coverage factor 1/2. After this
// stage a back-projection pass reconstructs density in the phantom's units.
//
// The engine is what the paper runs on the CPUs: rows are independent, so a
// ThreadPool parallelizes across them (the paper uses OpenMP + Intel IPP).
// Rows feed the fft/simd batch backends batch_lanes() at a time (SoA, one
// row per vector lane; 8 rows per group on avx512, 4 elsewhere). Each row is
// padded to L = next_pow2(Nu + hw) — the shortest exact length for the
// centred Nu-sample window of the (2 hw + 1)-tap ramp — and filtered as an
// L/2-point complex transform of its even/odd samples (fft/fft.h);
// FilterOptions::fft_backend picks the kernel the same way
// BpConfig::simd_backend does for back-projection, and every backend —
// batched or row-at-a-time — produces bitwise-identical projections.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/image.h"
#include "common/thread_pool.h"
#include "fft/fft.h"
#include "filter/ramp.h"
#include "geometry/cbct.h"

namespace ifdk::filter {

struct FilterOptions {
  RampWindow window = RampWindow::kRamLak;
  /// Ramp kernel half-width in samples; 0 means "cover the row" (Nu - 1),
  /// which makes the FFT convolution exact for the full row support. Any
  /// other value must stay below Nu — FilterEngine rejects oversized widths
  /// that would silently inflate the padded FFT size.
  std::size_t kernel_half_width = 0;
  /// Optional pool; filtering runs serially when null.
  ThreadPool* pool = nullptr;
  /// Which FFT batch backend convolves the rows (kAuto = widest supported
  /// at runtime; kScalar / kAvx2 / kAvx512 / kNeon force one, mirroring
  /// BpConfig::simd_backend).
  fft::Backend fft_backend = fft::Backend::kAuto;
};

class FilterEngine {
 public:
  /// Validates the options against the geometry (throws ConfigError when
  /// kernel_half_width >= Nu), builds the cosine table, the normalized ramp
  /// kernel and the backend-dispatched row convolver.
  FilterEngine(const geo::CbctGeometry& geometry, FilterOptions options = {});

  /// Filters one projection in place (cosine weighting + batched row
  /// convolution) using the calling thread's workspace; pooled row batches
  /// use their own per-thread workspaces.
  void apply(Image2D& projection) const;

  /// Same, with caller-owned scratch: long-lived filtering threads own one
  /// Workspace across projections so steady-state filtering never touches
  /// the heap. `ws` serves the serial path; pool workers (when
  /// FilterOptions::pool is set) use their per-thread workspaces instead.
  void apply(Image2D& projection, fft::Workspace& ws) const;

  /// Filters a batch in place, parallelizing across projections and rows.
  void apply_batch(std::vector<Image2D>& projections) const;

  /// The cosine table Fcos of Table 1 (size Nv x Nu), exposed for tests.
  const Image2D& cosine_table() const { return cosine_; }

  /// The spatial ramp kernel after all normalization, exposed for tests.
  const std::vector<double>& kernel() const { return kernel_; }

  /// Name of the FFT batch backend the convolver selected ("scalar",
  /// "avx2", "avx512" or "neon"), after kAuto resolution.
  const char* fft_backend_name() const { return convolver_->backend_name(); }

 private:
  /// Weights and convolves one batch_lanes()-row group (group g covers rows
  /// [g * batch_lanes(), ...)); the unit of work both apply paths schedule.
  void filter_group(Image2D& projection, std::size_t group,
                    fft::Workspace& ws) const;

  geo::CbctGeometry geometry_;
  FilterOptions options_;
  Image2D cosine_;
  std::vector<double> kernel_;
  std::unique_ptr<fft::RowConvolver> convolver_;
};

}  // namespace ifdk::filter

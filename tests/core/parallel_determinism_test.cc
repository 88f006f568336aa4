// The parallel build's contract is stronger than "same model up to
// floating-point noise": sharded accumulation with ordered reduction
// must make --threads=1 and --threads=N produce bitwise-identical
// serialized models. These tests enforce that, plus the Kahan-summation
// invariant (non-negative candidate residuals) and SVDD round-trips
// with and without the Bloom filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/parallel_build.h"
#include "core/svd_compressor.h"
#include "core/svdd_compressor.h"
#include "data/generators.h"
#include "linalg/kernels.h"
#include "storage/delta_table.h"
#include "storage/row_source.h"
#include "util/rng.h"

namespace tsc {
namespace {

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

Matrix MakePhoneMatrix(std::size_t rows) {
  PhoneDatasetConfig config;
  config.num_customers = rows;
  config.num_days = 60;
  config.seed = 17;
  return GeneratePhoneDataset(config).values;
}

TEST(ParallelDeterminismTest, SvdBitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = MakePhoneMatrix(200);
  const std::string serial_path = ::testing::TempDir() + "/svd_t1.model";
  const std::string parallel_path = ::testing::TempDir() + "/svd_t8.model";

  {
    MatrixRowSource source(&x);
    SvdBuildOptions options;
    options.k = 6;
    options.num_threads = 1;
    const auto model = BuildSvdModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(serial_path).ok());
  }
  {
    MatrixRowSource source(&x);
    SvdBuildOptions options;
    options.k = 6;
    options.num_threads = 8;
    const auto model = BuildSvdModel(&source, options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(parallel_path).ok());
  }

  const auto serial_bytes = ReadFileBytes(serial_path);
  const auto parallel_bytes = ReadFileBytes(parallel_path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST(ParallelDeterminismTest, SvddBitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = MakePhoneMatrix(300);
  const std::string serial_path = ::testing::TempDir() + "/svdd_t1.model";
  const std::string parallel_path = ::testing::TempDir() + "/svdd_t8.model";

  SvddBuildDiagnostics serial_diag;
  SvddBuildDiagnostics parallel_diag;
  {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.num_threads = 1;
    const auto model = BuildSvddModel(&source, options, &serial_diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(serial_path).ok());
  }
  {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 10.0;
    options.num_threads = 8;
    const auto model = BuildSvddModel(&source, options, &parallel_diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->SaveToFile(parallel_path).ok());
  }

  const auto serial_bytes = ReadFileBytes(serial_path);
  const auto parallel_bytes = ReadFileBytes(parallel_path);
  ASSERT_FALSE(serial_bytes.empty());
  EXPECT_EQ(serial_bytes, parallel_bytes);

  // The diagnostics (k choice, per-candidate errors) must agree too.
  EXPECT_EQ(serial_diag.k_opt, parallel_diag.k_opt);
  EXPECT_EQ(serial_diag.delta_count, parallel_diag.delta_count);
  EXPECT_EQ(serial_diag.candidate_sse, parallel_diag.candidate_sse);
  EXPECT_EQ(serial_diag.candidate_residual_sse,
            parallel_diag.candidate_residual_sse);
}

/// Many exactly equal errors: 20 random base rows, each repeated twice
/// more (one copy in a later chunk), and every other row all-zero, whose
/// cells all have error exactly 0. Rows span several build chunks, so
/// the pass-2 bound settles at an err2 shared by thousands of cells and
/// only the cell-id tie-break decides which of them are kept.
Matrix TieHeavyMatrix() {
  constexpr std::size_t kRows = 3 * kBuildChunkRows;
  constexpr std::size_t kCols = 16;
  constexpr std::size_t kBase = 20;
  Matrix x(kRows, kCols);
  Rng rng(5);
  for (std::size_t i = 0; i < kBase; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      x(i, j) = std::round(rng.UniformDouble(0.0, 50.0));
    }
  }
  for (std::size_t i = 0; i < kBase; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      x(kBase + i, j) = x(i, j);
      x(2 * kRows / 3 + i, j) = x(i, j);
    }
  }
  return x;
}

TEST(ParallelDeterminismTest, TiedErrorsBitwiseIdenticalAcrossThreadCounts) {
  const Matrix x = TieHeavyMatrix();
  std::size_t nonzero_cells = 0;
  for (const double value : x.data()) nonzero_cells += value != 0.0;

  std::vector<std::uint8_t> reference;
  for (const std::size_t threads : {1, 2, 4}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = 15.0;
    options.num_threads = threads;
    SvddBuildDiagnostics diag;
    const auto model = BuildSvddModel(&source, options, &diag);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    // The allowance must reach past every nonzero-error cell, so the
    // kept set is partly decided among cells of error exactly 0.
    ASSERT_GT(diag.candidate_delta_counts.front(), nonzero_cells);

    const std::string path = ::testing::TempDir() + "/svdd_ties_t" +
                             std::to_string(threads) + ".model";
    ASSERT_TRUE(model->SaveToFile(path).ok());
    const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

/// Builds `x` and checks the delta table against a brute-force reference:
/// every cell's err2 at k_opt, sorted under the CellErr order and cut to
/// gamma. The stored delta of each kept cell must be its pass-2 error.
void ExpectDeltasAreBruteForceTopGamma(const Matrix& x, double space_percent) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = space_percent;
  options.num_threads = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Every cell's err2 at k_opt, computed with pass 2's own arithmetic:
  // projections by kernels::Dot, the running reconstruction by
  // kernels::Axpy one component at a time.
  const std::size_t k = model->k();
  const Matrix& v = model->svd().v();
  std::vector<std::vector<double>> vt(k, std::vector<double>(cols));
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < cols; ++j) vt[p][j] = v(j, p);
  }
  struct Ranked {
    double err2;
    double err;
    std::uint64_t cell;
  };
  std::vector<Ranked> all;
  std::vector<double> recon(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = x.Row(i).data();
    std::fill(recon.begin(), recon.end(), 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      const double projection = kernels::Dot(row, vt[p].data(), cols);
      kernels::Axpy(projection, vt[p].data(), recon.data(), cols);
    }
    for (std::size_t j = 0; j < cols; ++j) {
      const double err = row[j] - recon[j];
      all.push_back({err * err, err, DeltaTable::CellKey(i, j, cols)});
    }
  }
  // CellErr order: larger err2 first, equal errors by ascending cell.
  std::sort(all.begin(), all.end(), [](const Ranked& a, const Ranked& b) {
    if (a.err2 != b.err2) return a.err2 > b.err2;
    return a.cell < b.cell;
  });
  const std::size_t gamma = std::min<std::size_t>(
      all.size(), model->delta_count());
  ASSERT_GT(gamma, 0u);
  ASSERT_LT(gamma, all.size());
  const auto kopt_it = std::find(diag.candidate_ks.begin(),
                                 diag.candidate_ks.end(), k);
  ASSERT_NE(kopt_it, diag.candidate_ks.end());
  EXPECT_EQ(diag.candidate_delta_counts[static_cast<std::size_t>(
                kopt_it - diag.candidate_ks.begin())],
            gamma);

  std::vector<std::uint64_t> want;
  for (std::size_t r = 0; r < gamma; ++r) {
    want.push_back(all[r].cell);
    // The stored delta is the exact pass-2 error of that cell.
    const auto delta = model->deltas().Get(all[r].cell);
    ASSERT_TRUE(delta.has_value()) << "cell " << all[r].cell;
    EXPECT_EQ(*delta, all[r].err) << "cell " << all[r].cell;
  }
  std::vector<std::uint64_t> got;
  model->deltas().ForEach(
      [&](std::uint64_t key, double) { got.push_back(key); });
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

TEST(ParallelDeterminismTest, DeltaKeysMatchBruteForceTopGamma) {
  // Low-rank rows plus noise and a few spikes, over more than one chunk.
  constexpr std::size_t kRows = kBuildChunkRows + 300;
  constexpr std::size_t kCols = 12;
  Matrix x(kRows, kCols);
  Rng rng(11);
  for (std::size_t i = 0; i < kRows; ++i) {
    const double a = rng.UniformDouble(1.0, 10.0);
    const double b = rng.UniformDouble(-3.0, 3.0);
    for (std::size_t j = 0; j < kCols; ++j) {
      x(i, j) = a + b * static_cast<double>(j % 4) + rng.Gaussian(0.0, 0.5);
      if (rng.UniformDouble() < 0.01) x(i, j) += 40.0;
    }
  }
  ExpectDeltasAreBruteForceTopGamma(x, 30.0);
}

TEST(ParallelDeterminismTest, TiedDeltaKeysMatchBruteForceTopGamma) {
  // The cell-id tie-break alone decides most of the kept set here.
  ExpectDeltasAreBruteForceTopGamma(TieHeavyMatrix(), 15.0);
}

TEST(ParallelDeterminismTest, CandidateResidualsNonNegative) {
  // epsilon_k = SSE_k - (credit of the gamma_k worst cells) is a
  // difference of large sums; naive accumulation can drive it slightly
  // negative. Compensated (Kahan) summation plus the final clamp must
  // keep every candidate residual >= 0.
  const Matrix x = MakePhoneMatrix(250);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 15.0;
  options.num_threads = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_FALSE(diag.candidate_residual_sse.empty());
  for (std::size_t ci = 0; ci < diag.candidate_residual_sse.size(); ++ci) {
    EXPECT_GE(diag.candidate_residual_sse[ci], 0.0) << "candidate " << ci;
    EXPECT_GE(diag.candidate_sse[ci], 0.0) << "candidate " << ci;
  }
}

void RoundTripSvdd(bool with_bloom) {
  const Matrix x = MakePhoneMatrix(150);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.build_bloom_filter = with_bloom;
  options.num_threads = 8;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->has_bloom_filter(), with_bloom);

  const std::string path = ::testing::TempDir() +
                           (with_bloom ? "/svdd_bloom.model"
                                       : "/svdd_nobloom.model");
  ASSERT_TRUE(model->SaveToFile(path).ok());
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->rows(), model->rows());
  EXPECT_EQ(loaded->cols(), model->cols());
  EXPECT_EQ(loaded->k(), model->k());
  EXPECT_EQ(loaded->delta_count(), model->delta_count());
  EXPECT_EQ(loaded->has_bloom_filter(), with_bloom);
  for (std::size_t i = 0; i < loaded->rows(); i += 17) {
    for (std::size_t j = 0; j < loaded->cols(); j += 7) {
      EXPECT_EQ(loaded->ReconstructCell(i, j), model->ReconstructCell(i, j));
    }
  }
  // Every stored delta must survive the round trip.
  loaded->deltas().ForEach([&](std::uint64_t key, double delta) {
    const auto original = model->deltas().Get(key);
    ASSERT_TRUE(original.has_value()) << "key " << key;
    EXPECT_EQ(*original, delta);
  });
}

TEST(ParallelDeterminismTest, SvddRoundTripWithBloom) { RoundTripSvdd(true); }

TEST(ParallelDeterminismTest, SvddRoundTripWithoutBloom) {
  RoundTripSvdd(false);
}

}  // namespace
}  // namespace tsc

#include "core/svdd_compressor.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/parallel_build.h"
#include "data/generators.h"
#include "util/rng.h"

namespace tsc {
namespace {

/// A phone-style workload with spikes: the setting SVDD is designed for.
Matrix SpikyMatrix(std::size_t n = 200, std::size_t m = 40) {
  PhoneDatasetConfig config;
  config.num_customers = n;
  config.num_days = m;
  config.spike_probability = 0.01;
  config.spike_scale = 25.0;
  config.seed = 21;
  return GeneratePhoneDataset(config).values;
}

TEST(SvddCompressorTest, BuildUsesExactlyThreePasses) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(source.passes_started(), 3u);  // Figure 5's guarantee
}

TEST(SvddCompressorTest, RespectsSpaceBudget) {
  const Matrix x = SpikyMatrix();
  for (const double s : {5.0, 10.0, 20.0}) {
    MatrixRowSource source(&x);
    SvddBuildOptions options;
    options.space_percent = s;
    const auto model = BuildSvddModel(&source, options);
    ASSERT_TRUE(model.ok());
    EXPECT_LE(model->SpacePercent(), s * 1.0001) << "s=" << s;
  }
}

TEST(SvddCompressorTest, BeatsPlainSvdAtEqualSpace) {
  const Matrix x = SpikyMatrix(300, 50);
  const SpaceBudget budget = SpaceBudget::FromPercent(300, 50, 15.0, 8);

  MatrixRowSource svdd_source(&x);
  SvddBuildOptions options;
  options.space_percent = 15.0;
  const auto svdd = BuildSvddModel(&svdd_source, options);
  ASSERT_TRUE(svdd.ok());

  MatrixRowSource svd_source(&x);
  SvdBuildOptions svd_options;
  svd_options.k = budget.MaxK();
  const auto svd = BuildSvdModel(&svd_source, svd_options);
  ASSERT_TRUE(svd.ok());

  EXPECT_LE(Rmspe(x, *svdd), Rmspe(x, *svd) + 1e-12);
}

TEST(SvddCompressorTest, OutlierCellsReconstructExactly) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  // Every cell with a stored delta reconstructs with zero error
  // ("error-free reconstruction", Section 4.2).
  model->deltas().ForEach([&](std::uint64_t key, double) {
    const std::size_t i = static_cast<std::size_t>(key / x.cols());
    const std::size_t j = static_cast<std::size_t>(key % x.cols());
    EXPECT_NEAR(model->ReconstructCell(i, j), x(i, j),
                1e-9 * std::max(1.0, std::abs(x(i, j))));
  });
}

TEST(SvddCompressorTest, DeltasTargetWorstCells) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.build_bloom_filter = false;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->delta_count(), 0u);
  // The smallest stored |delta| must be >= the largest plain-SVD error
  // among non-outlier cells (the bounded heaps keep the global top-gamma).
  double min_stored = 1e300;
  model->deltas().ForEach([&](std::uint64_t, double delta) {
    min_stored = std::min(min_stored, std::abs(delta));
  });
  double max_unstored = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const std::uint64_t key = DeltaTable::CellKey(i, j, x.cols());
      if (model->deltas().Contains(key)) continue;
      const double err = std::abs(model->svd().ReconstructCell(i, j) - x(i, j));
      max_unstored = std::max(max_unstored, err);
    }
  }
  EXPECT_GE(min_stored, max_unstored - 1e-9);
}

TEST(SvddCompressorTest, WorstCaseErrorFarBelowPlainSvd) {
  const Matrix x = SpikyMatrix(400, 60);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  const auto svdd = BuildSvddModel(&source, options);
  ASSERT_TRUE(svdd.ok());

  const SpaceBudget budget = SpaceBudget::FromPercent(400, 60, 10.0, 8);
  MatrixRowSource svd_source(&x);
  SvdBuildOptions svd_options;
  svd_options.k = budget.MaxK();
  const auto svd = BuildSvdModel(&svd_source, svd_options);
  ASSERT_TRUE(svd.ok());

  const ErrorReport svdd_report = EvaluateErrors(x, *svdd);
  const ErrorReport svd_report = EvaluateErrors(x, *svd);
  // Table 3's shape: SVDD's worst case is dramatically below plain SVD's.
  EXPECT_LT(svdd_report.max_abs_error, svd_report.max_abs_error * 0.5);
}

TEST(SvddCompressorTest, DiagnosticsConsistent) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(diag.k_opt, model->k());
  EXPECT_LE(diag.k_opt, diag.k_max);
  ASSERT_EQ(diag.candidate_ks.size(), diag.candidate_sse.size());
  ASSERT_EQ(diag.candidate_ks.size(), diag.candidate_residual_sse.size());
  // k_opt achieves the minimum residual among candidates.
  double best = 1e300;
  std::size_t best_k = 0;
  for (std::size_t i = 0; i < diag.candidate_ks.size(); ++i) {
    EXPECT_LE(diag.candidate_residual_sse[i], diag.candidate_sse[i] + 1e-9);
    if (diag.candidate_residual_sse[i] < best) {
      best = diag.candidate_residual_sse[i];
      best_k = diag.candidate_ks[i];
    }
  }
  EXPECT_EQ(best_k, diag.k_opt);
  // Plain-SVD SSE decreases in k (more components, less error).
  for (std::size_t i = 1; i < diag.candidate_sse.size(); ++i) {
    EXPECT_LE(diag.candidate_sse[i], diag.candidate_sse[i - 1] + 1e-6);
  }
}

TEST(SvddCompressorTest, ForcedKIsHonored) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 10.0;
  options.forced_k = 3;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->k(), 3u);
  EXPECT_EQ(diag.candidate_ks.size(), 1u);
}

TEST(SvddCompressorTest, MaxCandidatesBoundsEvaluation) {
  const Matrix x = SpikyMatrix();
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  options.max_candidates = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(diag.candidate_ks.size(), 5u);  // cap + forced k_max endpoint
  EXPECT_EQ(diag.candidate_ks.back(), diag.k_max);
  EXPECT_EQ(diag.candidate_ks.front(), 1u);
}

TEST(SvddCompressorTest, Pass2RetentionStaysNearAllowance) {
  // Pass 2 keeps one top-gamma_k selector per candidate; each holds at
  // most 1.25 * gamma_k entries (a 1024-entry floor for tiny gamma_k)
  // next to one chunk's staged cells. Tier-1 has no RSS check, so this
  // is what catches a pruning bound that goes stale and lets retention
  // grow to a multiple of sum(gamma_k).
  PhoneDatasetConfig config;
  config.num_customers = 20000;
  config.num_days = 366;
  config.seed = 42;
  const Matrix x = GeneratePhoneDataset(config).values;
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 5.0;
  options.num_threads = 4;
  SvddBuildDiagnostics diag;
  const auto model = BuildSvddModel(&source, options, &diag);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::uint64_t selector_bound = 0;
  std::uint64_t gamma_sum = 0;
  for (const std::uint64_t gamma : diag.candidate_delta_counts) {
    gamma_sum += gamma;
    if (gamma > 0) {
      selector_bound += gamma + std::max<std::uint64_t>(gamma / 4, 1024);
    }
  }
  const std::uint64_t chunk_staging = static_cast<std::uint64_t>(
      kBuildChunkRows * x.cols() * diag.candidate_ks.size());
  EXPECT_GT(diag.pass2_peak_entries, gamma_sum);
  EXPECT_LE(diag.pass2_peak_entries, selector_bound + chunk_staging)
      << "sum(gamma_k)=" << gamma_sum;
}

TEST(SvddCompressorTest, BloomFilterNeverChangesResults) {
  const Matrix x = SpikyMatrix();
  SvddBuildOptions with_bloom;
  with_bloom.space_percent = 10.0;
  with_bloom.build_bloom_filter = true;
  SvddBuildOptions without_bloom = with_bloom;
  without_bloom.build_bloom_filter = false;

  MatrixRowSource s1(&x);
  MatrixRowSource s2(&x);
  const auto a = BuildSvddModel(&s1, with_bloom);
  const auto b = BuildSvddModel(&s2, without_bloom);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->has_bloom_filter());
  EXPECT_FALSE(b->has_bloom_filter());
  EXPECT_LT(MaxAbsDifference(a->ReconstructAll(), b->ReconstructAll()), 1e-12);
}

TEST(SvddCompressorTest, TinyBudgetFails) {
  const Matrix x = SpikyMatrix(2000, 40);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 0.01;  // cannot fit even one component
  EXPECT_EQ(BuildSvddModel(&source, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SvddCompressorTest, HugeBudgetReconstructsExactly) {
  // With enough space for full rank, SVDD error must be ~zero. Note the
  // SVD representation at k = M costs (N*M + M + M^2) * b, slightly MORE
  // than the raw matrix, so "enough" is > 100%.
  const Matrix x = SpikyMatrix(100, 20);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 200.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(Rmspe(x, *model), 1e-7);
}

TEST(SvddCompressorTest, SerializeRoundTrip) {
  const Matrix x = SpikyMatrix(100, 30);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 12.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/svdd_model.bin";
  ASSERT_TRUE(model->SaveToFile(path).ok());
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->k(), model->k());
  EXPECT_EQ(loaded->delta_count(), model->delta_count());
  EXPECT_EQ(loaded->has_bloom_filter(), model->has_bloom_filter());
  EXPECT_LT(
      MaxAbsDifference(loaded->ReconstructAll(), model->ReconstructAll()),
      1e-12);
}

TEST(SvddCompressorTest, CorruptedModelFileRejected) {
  const Matrix x = SpikyMatrix(60, 20);
  MatrixRowSource source(&x);
  SvddBuildOptions options;
  options.space_percent = 20.0;
  const auto model = BuildSvddModel(&source, options);
  ASSERT_TRUE(model.ok());
  const std::string path = ::testing::TempDir() + "/corrupt_model.bin";
  ASSERT_TRUE(model->SaveToFile(path).ok());

  // Flip one payload byte: the checksum trailer must catch it.
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(200, std::ios::beg);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(200, std::ios::beg);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  const auto loaded = SvddModel::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);

  // Truncation is caught too.
  ASSERT_TRUE(model->SaveToFile(path).ok());
  {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(path, size - 3, ec);
    ASSERT_FALSE(ec);
  }
  EXPECT_FALSE(SvddModel::LoadFromFile(path).ok());
}

/// Parameterized sweep over space budgets: RMSPE decreases monotonically
/// with space, the Figure 6 property.
class SvddSpaceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SvddSpaceSweepTest, MoreSpaceNeverHurts) {
  // N >> M (the paper's Eq. 1 regime) so that even the smallest swept
  // budget fits one component: one PC costs (N + 1 + M) * b bytes,
  // ~1/M ~= 1.7% of the matrix when N dominates.
  static const Matrix x = SpikyMatrix(600, 60);
  const double s = GetParam();
  MatrixRowSource source_small(&x);
  MatrixRowSource source_large(&x);
  SvddBuildOptions small;
  small.space_percent = s;
  SvddBuildOptions large;
  large.space_percent = s * 2.0;
  const auto model_small = BuildSvddModel(&source_small, small);
  const auto model_large = BuildSvddModel(&source_large, large);
  ASSERT_TRUE(model_small.ok());
  ASSERT_TRUE(model_large.ok());
  EXPECT_LE(Rmspe(x, *model_large), Rmspe(x, *model_small) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SvddSpaceSweepTest,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0));

}  // namespace
}  // namespace tsc

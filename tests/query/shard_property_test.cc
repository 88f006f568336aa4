// Property tests for the sharded store + router (DESIGN.md §15).
//
// The headline contract: a ShardedStore produced by SplitSvddModel
// answers EVERY query class byte-identically to the unsharded model it
// was split from — cells, batched cells, regions, SQL aggregates
// (sum/avg/count/min/max, grouped and not), and data-API rows=~
// selections — at every shard count and under every quant scheme,
// because U rows are copied bit-exact, V and the eigenvalues are
// replicated, and deltas are re-keyed without re-encoding. Scatter
// order cannot leak into results: per-shard outputs land in disjoint
// slots and aggregate partials merge in fixed shard order.
//
// Router rollup answers (per-shard hierarchies merged in shard order)
// are compared against the unsharded hierarchy to fp-reassociation
// tolerance, same as DESIGN.md §14's rollup-vs-scan bound.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded_store.h"
#include "core/svdd_compressor.h"
#include "cube/rollup.h"
#include "data/generators.h"
#include "query/executor.h"
#include "query/shard_router.h"
#include "server/data_api.h"
#include "storage/row_source.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsc {
namespace {

constexpr double kRelTol = 1e-7;
constexpr double kAbsTol = 1e-8;

const std::size_t kShardCounts[] = {1, 2, 4, 7};

Matrix TestData() {
  PhoneDatasetConfig config;
  config.num_customers = 90;
  config.num_days = 40;
  config.spike_probability = 0.05;  // plenty of outliers -> deltas
  return GeneratePhoneDataset(config).values;
}

SvddModel BuildModel(const Matrix& data, QuantScheme quant) {
  MatrixRowSource source(&data);
  SvddBuildOptions options;
  options.space_percent = 25.0;
  options.quant = quant;
  auto model = BuildSvddModel(&source, options);
  TSC_CHECK_OK(model.status());
  return std::move(*model);
}

ShardedStore Split(const SvddModel& model, std::size_t shards,
                   ShardPartition partition = ShardPartition::kRange) {
  auto layout = ShardLayout::Make(partition, model.rows(), shards);
  TSC_CHECK_OK(layout.status());
  auto store = SplitSvddModel(model, *layout);
  TSC_CHECK_OK(store.status());
  return std::move(*store);
}

// ---------------------------------------------------------------------------
// ShardLayout

TEST(ShardLayoutTest, LocateAndGlobalOfAreInverse) {
  for (const ShardPartition partition :
       {ShardPartition::kRange, ShardPartition::kHash}) {
    for (const std::size_t shards : kShardCounts) {
      auto layout = ShardLayout::Make(partition, 53, shards);
      ASSERT_TRUE(layout.ok());
      std::size_t total = 0;
      for (std::size_t s = 0; s < shards; ++s) total += layout->RowsIn(s);
      EXPECT_EQ(total, 53u);
      for (std::size_t r = 0; r < 53; ++r) {
        const auto [shard, local] = layout->Locate(r);
        ASSERT_LT(shard, shards);
        ASSERT_LT(local, layout->RowsIn(shard));
        EXPECT_EQ(layout->GlobalOf(shard, local), r);
        EXPECT_EQ(layout->ShardOf(r), shard);
        EXPECT_EQ(layout->LocalOf(r), local);
      }
    }
  }
}

TEST(ShardLayoutTest, BalancedRangeSlicesDifferByAtMostOneRow) {
  auto layout = ShardLayout::Make(ShardPartition::kRange, 53, 7);
  ASSERT_TRUE(layout.ok());
  std::size_t lo = 53, hi = 0;
  for (std::size_t s = 0; s < 7; ++s) {
    lo = std::min(lo, layout->RowsIn(s));
    hi = std::max(hi, layout->RowsIn(s));
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardLayoutTest, RejectsMoreShardsThanRows) {
  EXPECT_FALSE(ShardLayout::Make(ShardPartition::kRange, 3, 4).ok());
  EXPECT_FALSE(ShardLayout::Make(ShardPartition::kRange, 3, 0).ok());
}

TEST(ShardLayoutTest, AppendRowsNeverRemapsExistingRows) {
  for (const ShardPartition partition :
       {ShardPartition::kRange, ShardPartition::kHash}) {
    auto layout = ShardLayout::Make(partition, 40, 4);
    ASSERT_TRUE(layout.ok());
    std::vector<std::pair<std::size_t, std::size_t>> before;
    for (std::size_t r = 0; r < 40; ++r) before.push_back(layout->Locate(r));
    layout->AppendRows(9);
    EXPECT_EQ(layout->total_rows, 49u);
    for (std::size_t r = 0; r < 40; ++r) {
      EXPECT_EQ(layout->Locate(r), before[r]) << "row " << r;
    }
    // The appended rows land somewhere valid and invertible.
    for (std::size_t r = 40; r < 49; ++r) {
      const auto [shard, local] = layout->Locate(r);
      EXPECT_EQ(layout->GlobalOf(shard, local), r);
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest round-trip

TEST(ShardManifestTest, SaveLoadRoundTripsAndSniffs) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF32);
  const ShardedStore store = Split(model, 3);
  const std::string path = testing::TempDir() + "/shard_manifest_rt";
  TSC_CHECK_OK(store.SaveToFiles(path));

  EXPECT_TRUE(ShardManifest::IsManifestFile(path));
  EXPECT_FALSE(ShardManifest::IsManifestFile(path + ".shard0"));

  auto reloaded = ShardedStore::LoadFromManifest(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->shard_count(), 3u);
  EXPECT_EQ(reloaded->rows(), store.rows());
  EXPECT_EQ(reloaded->cols(), store.cols());
  for (std::size_t r = 0; r < store.rows(); r += 7) {
    for (std::size_t c = 0; c < store.cols(); c += 5) {
      EXPECT_EQ(reloaded->ReconstructCell(r, c), store.ReconstructCell(r, c));
    }
  }
  std::remove(path.c_str());
  for (int s = 0; s < 3; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ShardManifestTest, CorruptedManifestIsRejected) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  const ShardedStore store = Split(model, 2);
  const std::string path = testing::TempDir() + "/shard_manifest_corrupt";
  TSC_CHECK_OK(store.SaveToFiles(path));
  // Flip one byte past the magic: the checksum trailer must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(12);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(ShardManifest::LoadFromFile(path).ok());
  std::remove(path.c_str());
  for (int s = 0; s < 2; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Byte identity: split store vs source model, every quant scheme, both
// partitions, every shard count.

class ShardIdentityTest
    : public testing::TestWithParam<std::tuple<QuantScheme, ShardPartition>> {
};

TEST_P(ShardIdentityTest, ReconstructionIsBitIdenticalToUnsharded) {
  const auto [quant, partition] = GetParam();
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, quant);
  Rng rng(20260809);

  for (const std::size_t shards : kShardCounts) {
    const ShardedStore store = Split(model, shards, partition);
    ASSERT_EQ(store.rows(), model.rows());
    ASSERT_EQ(store.cols(), model.cols());
    // V and the eigenvalues are replicated per shard, so the sharded
    // footprint is never smaller than the source model's.
    EXPECT_GE(store.CompressedBytes(), model.CompressedBytes());

    // Cells, one by one.
    for (std::size_t probe = 0; probe < 200; ++probe) {
      const std::size_t r = rng.UniformUint64(model.rows());
      const std::size_t c = rng.UniformUint64(model.cols());
      EXPECT_EQ(store.ReconstructCell(r, c), model.ReconstructCell(r, c))
          << "shards=" << shards << " cell (" << r << "," << c << ")";
    }

    // Batched cells, shard-interleaved.
    std::vector<CellRef> cells;
    for (std::size_t probe = 0; probe < 64; ++probe) {
      cells.push_back({rng.UniformUint64(model.rows()),
                       rng.UniformUint64(model.cols())});
    }
    std::vector<double> got(cells.size()), want(cells.size());
    store.ReconstructCells(cells, got);
    model.ReconstructCells(cells, want);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "shards=" << shards << " batch " << i;
    }

    // Regions spanning shard boundaries (strided rows hit every shard).
    std::vector<std::size_t> row_ids, col_ids;
    for (std::size_t r = 1; r < model.rows(); r += 3) row_ids.push_back(r);
    for (std::size_t c = 0; c < model.cols(); c += 2) col_ids.push_back(c);
    Matrix got_region, want_region;
    store.ReconstructRegion(row_ids, col_ids, &got_region);
    model.ReconstructRegion(row_ids, col_ids, &want_region);
    for (std::size_t i = 0; i < row_ids.size(); ++i) {
      for (std::size_t j = 0; j < col_ids.size(); ++j) {
        EXPECT_EQ(got_region(i, j), want_region(i, j))
            << "shards=" << shards << " region (" << i << "," << j << ")";
      }
    }

    // Full rows.
    std::vector<double> got_row(model.cols()), want_row(model.cols());
    for (std::size_t r = 0; r < model.rows(); r += 11) {
      store.ReconstructRow(r, got_row);
      model.ReconstructRow(r, want_row);
      EXPECT_EQ(got_row, want_row) << "shards=" << shards << " row " << r;
    }
  }
}

TEST_P(ShardIdentityTest, SqlScanAnswersAreBitIdenticalToUnsharded) {
  const auto [quant, partition] = GetParam();
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, quant);
  // Both sides through the generic CompressedStore ctor: model_k == 0,
  // so the planner scans everything — the determinism contract path.
  const QueryExecutor unsharded(static_cast<const CompressedStore*>(&model));

  const std::vector<std::string> queries = {
      "SELECT sum(value), avg(value), count(value)",
      "SELECT min(value), max(value) WHERE row IN 0:59 AND col IN 3:30",
      "SELECT sum(value), max(value) WHERE row IN 0:10,40:70 GROUP BY row",
      "SELECT avg(value), min(value) WHERE col IN 0:19 GROUP BY col",
      "SELECT median(value) WHERE row IN 5:64",
      "SELECT stddev(value) WHERE row IN 0:29 AND col IN 0:9",
  };
  for (const std::size_t shards : kShardCounts) {
    const ShardedStore store = Split(model, shards, partition);
    const QueryExecutor sharded(static_cast<const CompressedStore*>(&store));
    for (const std::string& q : queries) {
      auto want = unsharded.Execute(q);
      auto got = sharded.Execute(q);
      ASSERT_TRUE(want.ok()) << q;
      ASSERT_TRUE(got.ok()) << q;
      ASSERT_EQ(got->values.size(), want->values.size()) << q;
      for (std::size_t i = 0; i < want->values.size(); ++i) {
        EXPECT_EQ(got->values[i], want->values[i])
            << q << " value " << i << " shards=" << shards;
      }
      EXPECT_EQ(got->group_keys, want->group_keys) << q;
    }
  }
}

TEST_P(ShardIdentityTest, DataApiAnswersAreBitIdenticalToUnsharded) {
  const auto [quant, partition] = GetParam();
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, quant);
  const QueryExecutor unsharded(static_cast<const CompressedStore*>(&model));

  // rows=~pattern resolution happens against the key map before either
  // store is consulted, so both sides see the same selection; every
  // group reduction then scans bit-identically.
  std::vector<std::string> row_keys;
  for (std::size_t r = 0; r < model.rows(); ++r) {
    row_keys.push_back((r % 3 == 0 ? "hot_row" : "cold_row") +
                       std::to_string(r));
  }
  const server::DataApiLimits limits;
  for (const std::size_t shards : kShardCounts) {
    const ShardedStore store = Split(model, shards, partition);
    const QueryExecutor sharded(static_cast<const CompressedStore*>(&store));
    for (const char* group : {"sum", "avg", "min", "max"}) {
      const std::map<std::string, std::string> params = {
          {"after", "0"},
          {"before", std::to_string(model.cols() - 1)},
          {"points", "5"},
          {"group", group},
          {"rows", "~^hot_row"},
      };
      auto request = server::ResolveDataRequest(params, model.rows(),
                                                model.cols(), limits,
                                                &row_keys);
      ASSERT_TRUE(request.ok()) << request.status().ToString();
      auto want = server::ExecuteDataRequest(unsharded, *request);
      auto got = server::ExecuteDataRequest(sharded, *request);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->data.size(), want->data.size());
      for (std::size_t i = 0; i < want->data.size(); ++i) {
        EXPECT_EQ(got->data[i].t, want->data[i].t);
        EXPECT_EQ(got->data[i].value, want->data[i].value)
            << group << " bucket " << i << " shards=" << shards;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQuantSchemesAndPartitions, ShardIdentityTest,
    testing::Combine(testing::Values(QuantScheme::kF64, QuantScheme::kF32,
                                     QuantScheme::kI16, QuantScheme::kI8),
                     testing::Values(ShardPartition::kRange,
                                     ShardPartition::kHash)),
    [](const auto& info) {
      return std::string(QuantSchemeName(std::get<0>(info.param))) + "_" +
             ShardPartitionName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Router aggregates: scatter-gathered rollup vs the unsharded hierarchy.

TEST(ShardRouterTest, RouterAggregatesMatchUnshardedRollup) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  const QueryExecutor unsharded(&model);  // rollup enabled
  ASSERT_NE(unsharded.rollup(), nullptr);

  const std::vector<std::string> queries = {
      "SELECT sum(value), avg(value), count(value)",
      "SELECT sum(value) WHERE row IN 3:50,60:80 AND col IN 2:35",
      "SELECT sum(value), avg(value) WHERE row IN 0:40 GROUP BY row",
      "SELECT sum(value) WHERE col IN 1:30 GROUP BY col",
  };
  for (const ShardPartition partition :
       {ShardPartition::kRange, ShardPartition::kHash}) {
    for (const std::size_t shards : kShardCounts) {
      const ShardedStore store = Split(model, shards, partition);
      const ShardRouter router(&store);
      ASSERT_TRUE(router.rollup_enabled());
      const QueryExecutor sharded(&router);
      for (const std::string& q : queries) {
        auto want = unsharded.Execute(q);
        auto got = sharded.Execute(q);
        ASSERT_TRUE(want.ok()) << q;
        ASSERT_TRUE(got.ok()) << q;
        ASSERT_EQ(got->values.size(), want->values.size()) << q;
        // The sharded compressed-domain path must actually engage.
        EXPECT_GT(got->compressed_domain_aggregates, 0u) << q;
        for (std::size_t i = 0; i < want->values.size(); ++i) {
          EXPECT_NEAR(got->values[i], want->values[i],
                      kRelTol * std::abs(want->values[i]) + kAbsTol)
              << q << " value " << i << " shards=" << shards << " partition="
              << ShardPartitionName(partition);
        }
      }
    }
  }
}

TEST(ShardRouterTest, ResultsIdenticalWithAndWithoutFanOutPool) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF32);
  ShardedStore serial_store = Split(model, 4);
  ShardedStore parallel_store = Split(model, 4);
  parallel_store.EnableParallelFanOut(4);
  const ShardRouter serial_router(&serial_store);
  ShardRouter parallel_router(&parallel_store);
  parallel_router.EnableParallelFanOut(4);
  const QueryExecutor serial_exec(&serial_router);
  const QueryExecutor parallel_exec(&parallel_router, 4);

  const std::vector<std::string> queries = {
      "SELECT sum(value), avg(value)",
      "SELECT min(value), max(value) WHERE row IN 0:79",
      "SELECT sum(value) WHERE row IN 0:60 GROUP BY row",
      "SELECT median(value) WHERE col IN 0:20",
  };
  for (const std::string& q : queries) {
    auto want = serial_exec.Execute(q);
    auto got = parallel_exec.Execute(q);
    ASSERT_TRUE(want.ok()) << q;
    ASSERT_TRUE(got.ok()) << q;
    ASSERT_EQ(got->values.size(), want->values.size()) << q;
    for (std::size_t i = 0; i < want->values.size(); ++i) {
      // The determinism contract: bit-identical at any thread count.
      EXPECT_EQ(got->values[i], want->values[i]) << q << " value " << i;
    }
  }
}

TEST(ShardRouterTest, PartitionRowRunsCoversExactlyTheSelection) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  for (const ShardPartition partition :
       {ShardPartition::kRange, ShardPartition::kHash}) {
    const ShardedStore store = Split(model, 4, partition);
    const ShardRouter router(&store);
    const std::vector<IdRange> runs = {{3, 17}, {25, 25}, {40, 88}};
    const auto per_shard = router.PartitionRowRuns(runs);
    ASSERT_EQ(per_shard.size(), 4u);
    // Map every local run back to globals; the union must equal the
    // input selection exactly (no dup, no drop).
    std::vector<std::size_t> covered;
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      for (const IdRange& run : per_shard[s]) {
        for (std::size_t local = run.lo; local <= run.hi; ++local) {
          covered.push_back(store.layout().GlobalOf(s, local));
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    std::vector<std::size_t> want;
    for (const IdRange& run : runs) {
      for (std::size_t g = run.lo; g <= run.hi; ++g) want.push_back(g);
    }
    EXPECT_EQ(covered, want) << ShardPartitionName(partition);
  }
}

TEST(ShardRouterTest, PatchCellRoutesToOwningShardAndItsHierarchy) {
  const Matrix data = TestData();
  SvddModel model = BuildModel(data, QuantScheme::kF64);
  SvddModel patched_model = BuildModel(data, QuantScheme::kF64);
  ShardedStore store = Split(model, 3, ShardPartition::kHash);
  const ShardRouter router(&store);
  const QueryExecutor sharded(&router);
  const QueryExecutor unsharded(&patched_model);

  Rng rng(7);
  for (std::size_t patch = 0; patch < 40; ++patch) {
    const std::size_t r = rng.UniformUint64(store.rows());
    const std::size_t c = rng.UniformUint64(store.cols());
    const double value = 1000.0 + static_cast<double>(patch);
    TSC_CHECK_OK(store.PatchCell(r, c, value));
    TSC_CHECK_OK(patched_model.PatchCell(r, c, value));
    EXPECT_EQ(store.ReconstructCell(r, c), value);
  }
  // Patches must be visible through the per-shard hierarchies (the
  // routed delta listeners), not just the cell path.
  auto want = unsharded.Execute("SELECT sum(value)");
  auto got = sharded.Execute("SELECT sum(value)");
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_NEAR(got->values[0], want->values[0],
              kRelTol * std::abs(want->values[0]) + kAbsTol);
}

// ---------------------------------------------------------------------------
// Per-shard parallel build

TEST(ShardedBuildTest, HeterogeneousQuantAndThreadCountDeterminism) {
  const Matrix data = TestData();
  ShardedBuildOptions options;
  options.base.space_percent = 25.0;
  options.shard_count = 4;
  options.per_shard_quant = {QuantScheme::kF32, QuantScheme::kF32,
                             QuantScheme::kI8, QuantScheme::kI8};
  options.num_threads = 1;
  ShardedBuildDiagnostics serial_diag;
  auto serial = BuildShardedStore(data, options, &serial_diag);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  options.num_threads = 4;
  auto threaded = BuildShardedStore(data, options);
  ASSERT_TRUE(threaded.ok());

  ASSERT_EQ(serial_diag.shards.size(), 4u);
  ASSERT_EQ(serial_diag.shard_seconds.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(serial->shard_model(s).svd().quant_scheme(),
              options.per_shard_quant[s]);
    // Each shard ran its own k optimization and error accounting.
    EXPECT_GT(serial->shard_model(s).k(), 0u);
    EXPECT_EQ(serial->shard_model(s).k(), serial_diag.shards[s].k_opt);
    // Thread count must not change any shard's model.
    EXPECT_EQ(serial->shard_model(s).delta_count(),
              threaded->shard_model(s).delta_count());
    EXPECT_EQ(serial->shard_model(s).k(), threaded->shard_model(s).k());
  }
  for (std::size_t r = 0; r < serial->rows(); r += 13) {
    for (std::size_t c = 0; c < serial->cols(); c += 7) {
      EXPECT_EQ(serial->ReconstructCell(r, c),
                threaded->ReconstructCell(r, c));
    }
  }
}

}  // namespace
}  // namespace tsc
